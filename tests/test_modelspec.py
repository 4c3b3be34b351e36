import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plscycle import (
    BlockSpec,
    CyclicSpec,
    ModelError,
    ModelSpec,
    PathSpec,
    ancestors,
    model_document,
    parse_model,
    topological_order,
    validate_model,
)
from plscycle.modelspec import MODES, SCHEMES


def chain_doc(cyclic=None):
    doc = {
        "blocks": [
            {"name": "A", "indicators": ["a1", "a2"]},
            {"name": "B", "indicators": ["b1", "b2"]},
            {"name": "C", "indicators": ["c1", "c2"]},
        ],
        "paths": [
            {"source": "A", "target": "B"},
            {"source": "B", "target": "C"},
        ],
    }
    if cyclic is not None:
        doc["cyclic"] = cyclic
    return doc


def test_parse_applies_defaults():
    spec = parse_model(json.dumps(chain_doc()))
    assert spec.scheme == "path"
    assert spec.cyclic is None
    assert all(b.mode == "reflective" for b in spec.blocks)
    assert spec.block_names() == ("A", "B", "C")


def test_parse_accepts_mapping_and_text_equally():
    doc = chain_doc()
    assert parse_model(doc) == parse_model(json.dumps(doc))


def test_syntax_error_reports_position():
    with pytest.raises(ModelError, match=r"syntax error at line 2, column 1"):
        parse_model('{"blocks": [\n!')


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(extra=1), "unknown field 'extra' in model document"),
        (lambda d: d["blocks"][0].update(weight=2), "unknown field 'weight' in block"),
        (lambda d: d["blocks"][0].update(mode="causal"), "unknown mode 'causal'"),
        (lambda d: d.update(scheme="ridge"), "unknown scheme 'ridge'"),
    ],
)
def test_unknown_fields_and_keywords(mutate, message):
    doc = chain_doc()
    mutate(doc)
    with pytest.raises(ModelError, match=message):
        parse_model(doc)


def test_duplicate_construct_rejected():
    doc = chain_doc()
    doc["blocks"].append({"name": "A", "indicators": ["z1"]})
    with pytest.raises(ModelError, match="duplicate construct 'A'"):
        parse_model(doc)


def test_indicator_cannot_repeat_within_block():
    doc = {"blocks": [{"name": "A", "indicators": ["a1", "a1"]}]}
    with pytest.raises(ModelError, match="duplicate indicator 'a1'"):
        parse_model(doc)


def test_indicator_cannot_span_blocks():
    doc = chain_doc()
    doc["blocks"][1]["indicators"] = ["a1", "b2"]
    with pytest.raises(ModelError, match="assigned to more than one block"):
        parse_model(doc)


def test_single_item_arity_enforced():
    doc = {"blocks": [{"name": "A", "mode": "single-item", "indicators": ["a1", "a2"]}]}
    with pytest.raises(ModelError, match="exactly one indicator"):
        parse_model(doc)


@pytest.mark.parametrize(
    "path, message",
    [
        ({"source": "A", "target": "Z"}, "unknown construct 'Z'"),
        ({"source": "A", "target": "A"}, "source equals target"),
        ({"source": "A", "target": "B"}, "duplicate path A -> B"),
    ],
)
def test_path_reference_errors(path, message):
    doc = chain_doc()
    doc["paths"].append(path)
    with pytest.raises(ModelError, match=message):
        parse_model(doc)


def test_cyclic_targets_default_to_all_antecedents_in_declaration_order():
    spec = parse_model(chain_doc(cyclic={"source": "C"}))
    assert spec.cyclic == CyclicSpec(source="C", targets=("A", "B"))


def test_cyclic_default_covers_indirect_antecedents():
    doc = {
        "blocks": [
            {"name": "D", "indicators": ["d1"], "mode": "single-item"},
            {"name": "A", "indicators": ["a1"], "mode": "single-item"},
            {"name": "B", "indicators": ["b1"], "mode": "single-item"},
        ],
        "paths": [
            {"source": "A", "target": "B"},
            {"source": "B", "target": "D"},
        ],
        "cyclic": {"source": "D"},
    }
    # declaration order, not graph order
    assert parse_model(doc).cyclic.targets == ("A", "B")


@pytest.mark.parametrize(
    "cyclic, message",
    [
        ({"source": "Z"}, "unknown construct 'Z'"),
        ({"source": "C", "targets": ["Z"]}, "unknown construct 'Z'"),
        ({"source": "C", "targets": ["C"]}, "target equals the cyclic source"),
        ({"source": "C", "targets": ["A", "A"]}, "duplicate cyclic target 'A'"),
        ({"source": "A"}, "no antecedents"),
    ],
)
def test_cyclic_section_errors(cyclic, message):
    with pytest.raises(ModelError, match=message):
        parse_model(chain_doc(cyclic=cyclic))


def test_validate_flags_structural_cycle():
    spec = ModelSpec(
        blocks=(BlockSpec("A", ("a1",)), BlockSpec("B", ("b1",))),
        paths=(PathSpec("A", "B"), PathSpec("B", "A")),
    )
    report = validate_model(spec)
    assert "sequential graph must be acyclic" in report.violations
    assert topological_order(spec) is None


def test_validate_requires_endogenous_cyclic_source():
    spec = parse_model(chain_doc(cyclic={"source": "C", "targets": ["A"]}))
    exogenous = ModelSpec(
        blocks=spec.blocks,
        paths=spec.paths,
        cyclic=CyclicSpec(source="A", targets=("C",)),
    )
    report = validate_model(exogenous)
    assert "cyclic source must be endogenous" in report.violations


def test_validate_rejects_non_antecedent_target():
    doc = chain_doc(cyclic={"source": "B", "targets": ["C"]})
    spec = parse_model(doc)
    report = validate_model(spec)
    assert "cyclic target 'C' is not an antecedent of the source" in report.violations


def test_two_construct_loop_rejected_with_diagnostic():
    doc = {
        "blocks": [
            {"name": "A", "indicators": ["a1"], "mode": "single-item"},
            {"name": "B", "indicators": ["b1"], "mode": "single-item"},
        ],
        "paths": [{"source": "A", "target": "B"}],
        "cyclic": {"source": "B", "targets": ["A"]},
    }
    report = validate_model(parse_model(doc))
    assert any(
        "requires an intermediate construct" in v
        and "same correlation coefficient" in v
        for v in report.violations
    )


def test_validate_checks_data_columns():
    spec = parse_model(chain_doc())
    report = validate_model(spec, columns={"a1", "a2", "b1", "b2", "c1"})
    assert report.violations == ("indicator column 'c2' missing from data",)
    assert validate_model(spec, columns={"a1", "a2", "b1", "b2", "c1", "c2"}).ok


def test_ancestors_terminates_on_cyclic_graph():
    spec = ModelSpec(
        blocks=(BlockSpec("A", ("a1",)), BlockSpec("B", ("b1",))),
        paths=(PathSpec("A", "B"), PathSpec("B", "A")),
    )
    assert ancestors(spec, "A") == ("B",)


@st.composite
def model_specs(draw):
    k = draw(st.integers(2, 5))
    names = [f"C{i}" for i in range(k)]
    blocks = []
    for i, name in enumerate(names):
        mode = draw(st.sampled_from(MODES))
        width = 1 if mode == "single-item" else draw(st.integers(1, 4))
        blocks.append(
            BlockSpec(
                name=name,
                indicators=tuple(f"x{i}_{j}" for j in range(width)),
                mode=mode,
            )
        )
    pairs = [(names[i], names[j]) for i in range(k) for j in range(i + 1, k)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    paths = tuple(PathSpec(s, t) for s, t in chosen)
    cyclic = None
    if paths and draw(st.booleans()):
        source = draw(st.sampled_from([p.target for p in paths]))
        others = [n for n in names if n != source]
        targets = tuple(
            draw(st.lists(st.sampled_from(others), unique=True, min_size=1))
        )
        cyclic = CyclicSpec(source=source, targets=targets)
    return ModelSpec(
        blocks=tuple(blocks),
        paths=paths,
        cyclic=cyclic,
        scheme=draw(st.sampled_from(SCHEMES)),
    )


@given(model_specs())
def test_serialize_then_parse_is_identity(spec):
    assert parse_model(model_document(spec)) == spec
    assert parse_model(json.dumps(model_document(spec))) == spec


@given(model_specs())
def test_topological_order_respects_every_edge(spec):
    order = topological_order(spec)
    assert order is not None
    position = {name: i for i, name in enumerate(order)}
    for path in spec.paths:
        assert position[path.source] < position[path.target]


@given(model_specs())
def test_validate_is_pure(spec):
    assert validate_model(spec) == validate_model(spec)
