import hashlib
import json

import numpy as np
import pytest

from plscycle import (
    ConstructPopulation,
    ModelError,
    PopulationSpec,
    gen_acyclic,
    gen_cyclic_equilibrium,
    indicator_names,
    parse_population,
    population_truth,
)


def single_items(*names):
    return tuple(ConstructPopulation(name=n, loadings=(1.0,)) for n in names)


def b_from(edges, names):
    index = {n: i for i, n in enumerate(names)}
    b = np.zeros((len(names), len(names)))
    for source, target, value in edges:
        b[index[target], index[source]] = value
    return b


def test_one_factor_inter_item_correlations():
    pop = PopulationSpec(
        constructs=(ConstructPopulation(name="F", loadings=(0.8,) * 4),),
        b_matrix=np.zeros((1, 1)),
        n=50000,
        seed=0,
    )
    table = gen_acyclic(pop)
    assert table.header == ("F_1", "F_2", "F_3", "F_4")
    corr = np.corrcoef(table.values, rowvar=False)
    off = corr[np.triu_indices(4, k=1)]
    assert np.abs(off - 0.64).max() < 0.01


def test_chain_correlation_follows_path_product():
    names = ("A", "B", "C")
    pop = PopulationSpec(
        constructs=single_items(*names),
        b_matrix=b_from([("A", "B", 0.5), ("B", "C", 0.6)], names),
        n=50000,
        seed=1,
    )
    values = gen_acyclic(pop).values
    assert abs(np.corrcoef(values[:, 0], values[:, 2])[0, 1] - 0.30) < 0.01
    truth = population_truth(pop, "acyclic")
    assert abs(truth["construct_correlation"][0][2] - 0.30) < 1e-12
    assert truth["disturbances"] == [1.0, 0.75, 0.64]


def test_zero_paths_give_independent_constructs():
    names = ("A", "B", "C")
    pop = PopulationSpec(
        constructs=single_items(*names),
        b_matrix=np.zeros((3, 3)),
        n=20000,
        seed=2,
    )
    values = gen_acyclic(pop).values
    corr = np.corrcoef(values, rowvar=False)
    bound = 3.5 / np.sqrt(pop.n)
    assert np.abs(corr[np.triu_indices(3, k=1)]).max() < bound


def test_indicator_moments_at_scale():
    pop = PopulationSpec(
        constructs=(
            ConstructPopulation(name="A", loadings=(0.9, 0.7)),
            ConstructPopulation(name="B", loadings=(0.8,)),
        ),
        b_matrix=b_from([("A", "B", 0.4)], ("A", "B")),
        n=20000,
        seed=3,
    )
    values = gen_acyclic(pop).values
    assert np.abs(values.mean(axis=0)).max() < 3.5 / np.sqrt(pop.n)
    assert np.abs(values.var(axis=0) - 1.0).max() < 0.05


def test_generators_are_deterministic_and_seed_sensitive():
    pop = PopulationSpec(
        constructs=single_items("A", "B"),
        b_matrix=b_from([("A", "B", 0.4)], ("A", "B")),
        n=500,
        seed=9,
    )
    first = gen_acyclic(pop).values
    second = gen_acyclic(pop).values
    assert np.array_equal(first, second)
    import dataclasses

    other = gen_acyclic(dataclasses.replace(pop, seed=10)).values
    assert not np.array_equal(first, other)


def test_zero_b_cyclic_equals_acyclic():
    pop = PopulationSpec(
        constructs=(
            ConstructPopulation(name="A", loadings=(0.8, 0.8)),
            ConstructPopulation(name="B", loadings=(1.0,)),
        ),
        b_matrix=np.zeros((2, 2)),
        n=4000,
        seed=4,
    )
    assert np.allclose(
        gen_acyclic(pop).values, gen_cyclic_equilibrium(pop).values, atol=1e-12
    )


def test_triangular_b_cyclic_matches_acyclic_with_matched_disturbances():
    # on a DAG the equilibrium solve is the same linear map as sequential
    # propagation, so matched disturbances reproduce the acyclic draw
    names = ("A", "B", "C")
    b = b_from([("A", "B", 0.5), ("A", "C", 0.2), ("B", "C", 0.6)], names)
    base = PopulationSpec(
        constructs=single_items(*names), b_matrix=b, n=50000, seed=5
    )
    truth = population_truth(base, "acyclic")
    import dataclasses

    matched = dataclasses.replace(base, disturbances=tuple(truth["disturbances"]))
    acyclic = gen_acyclic(matched).values
    cyclic = gen_cyclic_equilibrium(matched).values
    assert np.abs(acyclic - cyclic).max() < 1e-10


def test_two_construct_loop_covariance_oracle():
    names = ("A", "B")
    b = b_from([("A", "B", 0.4), ("B", "A", 0.4)], names)
    pop = PopulationSpec(constructs=single_items(*names), b_matrix=b, n=50000, seed=6)
    truth = population_truth(pop, "cyclic")
    a = np.linalg.inv(np.eye(2) - b)
    sigma = a @ a.T
    expected = sigma[0, 1] / np.sqrt(sigma[0, 0] * sigma[1, 1])
    assert abs(truth["construct_correlation"][0][1] - expected) < 1e-12
    values = gen_cyclic_equilibrium(pop).values
    assert abs(np.corrcoef(values[:, 0], values[:, 1])[0, 1] - expected) < 0.01


def test_cyclic_b_effective_reproduces_scaled_structure():
    names = ("A", "B")
    b = b_from([("A", "B", 0.5), ("B", "A", 0.3)], names)
    pop = PopulationSpec(
        constructs=single_items(*names),
        b_matrix=b,
        n=30000,
        seed=7,
        disturbances=(1.0, 0.5),
    )
    truth = population_truth(pop, "cyclic")
    b_eff = np.asarray(truth["b_effective"])
    corr = np.asarray(truth["construct_correlation"])
    # the rescaled constructs satisfy xi = b_eff xi + scaled zeta, so the
    # regression of each construct on the other matches corr exactly
    values = gen_cyclic_equilibrium(pop).values
    emp = np.corrcoef(values[:, 0], values[:, 1])[0, 1]
    assert abs(emp - corr[0, 1]) < 0.02
    assert b_eff[0, 1] * b_eff[1, 0] == pytest.approx(b[0, 1] * b[1, 0])


def test_no_equilibrium_at_unit_spectral_radius():
    names = ("A", "B")
    b = b_from([("A", "B", 1.0), ("B", "A", 1.0)], names)
    pop = PopulationSpec(constructs=single_items(*names), b_matrix=b, n=100, seed=0)
    with pytest.raises(ValueError, match="no equilibrium: spectral radius 1.000000 >= 1"):
        gen_cyclic_equilibrium(pop)
    with pytest.raises(ValueError, match="no equilibrium"):
        population_truth(pop, "cyclic")


def test_acyclic_rejects_cycles_and_bad_bookkeeping():
    names = ("A", "B")
    loop = b_from([("A", "B", 0.4), ("B", "A", 0.4)], names)
    pop = PopulationSpec(constructs=single_items(*names), b_matrix=loop, n=100, seed=0)
    with pytest.raises(ValueError, match="structural matrix is not acyclic"):
        gen_acyclic(pop)

    names3 = ("A", "B", "C")
    heavy = b_from([("A", "C", 0.8), ("B", "C", 0.8)], names3)
    pop3 = PopulationSpec(constructs=single_items(*names3), b_matrix=heavy, n=100, seed=0)
    with pytest.raises(ValueError, match="implied disturbance variance .* for construct 'C'"):
        gen_acyclic(pop3)


def test_validation_errors():
    with pytest.raises(ValueError, match="negative indicator error variance"):
        gen_acyclic(
            PopulationSpec(
                constructs=(ConstructPopulation(name="A", loadings=(1.2,)),),
                b_matrix=np.zeros((1, 1)),
                n=100,
                seed=0,
            )
        )
    with pytest.raises(ValueError, match="zero diagonal"):
        gen_acyclic(
            PopulationSpec(
                constructs=single_items("A"),
                b_matrix=np.array([[0.5]]),
                n=100,
                seed=0,
            )
        )
    with pytest.raises(ValueError, match="at least 2"):
        gen_acyclic(
            PopulationSpec(
                constructs=single_items("A"),
                b_matrix=np.zeros((1, 1)),
                n=1,
                seed=0,
            )
        )
    with pytest.raises(ValueError, match="inconsistent with unit construct variances"):
        gen_acyclic(
            PopulationSpec(
                constructs=single_items("A", "B"),
                b_matrix=b_from([("A", "B", 0.5)], ("A", "B")),
                n=100,
                seed=0,
                disturbances=(1.0, 1.0),
            )
        )


def test_exact_loading_one_copies_the_construct():
    pop = PopulationSpec(
        constructs=(ConstructPopulation(name="A", loadings=(1.0, -1.0)),),
        b_matrix=np.zeros((1, 1)),
        n=2000,
        seed=8,
    )
    values = gen_acyclic(pop).values
    assert np.allclose(values[:, 0], -values[:, 1], atol=1e-12)


def test_parse_population_full_document():
    doc = {
        "kind": "cyclic",
        "n": 500,
        "seed": 3,
        "constructs": [
            {"name": "A", "loadings": [0.8, 0.7]},
            {"name": "B", "single_item": True},
        ],
        "paths": [
            {"source": "A", "target": "B", "coefficient": 0.4},
            {"source": "B", "target": "A", "coefficient": 0.2},
        ],
        "disturbances": [1.0, 0.5],
    }
    pop, kind = parse_population(doc)
    assert kind == "cyclic"
    assert pop.n == 500 and pop.seed == 3
    assert pop.constructs[1].loadings == (1.0,)
    assert pop.b_matrix[1, 0] == 0.4 and pop.b_matrix[0, 1] == 0.2
    assert pop.disturbances == (1.0, 0.5)
    assert indicator_names(pop) == ("A_1", "A_2", "B_1")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["constructs"][0].update(weights=[1, 2]), "formative generation is not supported"),
        (lambda d: d.update(kind="panel"), "unknown population kind"),
        (lambda d: d.update(n="many"), "'n' must be an integer >= 2"),
        (lambda d: d.update(n=True), "'n' must be an integer >= 2"),
        (lambda d: d.update(seed=1.5), "'seed' must be an integer"),
        (lambda d: d.update(seed=-3), "'seed' must be a non-negative integer"),
        (lambda d: d.update(disturbances=[1.0]), "one variance per construct"),
        (lambda d: d.update(extra=1), "unknown field 'extra'"),
        (
            lambda d: d["paths"].append({"source": "A", "target": "Z", "coefficient": 1}),
            "unknown construct",
        ),
        (
            lambda d: d["constructs"].append({"name": "A", "loadings": [0.5]}),
            "duplicate construct",
        ),
        (lambda d: d.update(paths=5), "'paths' must be a list"),
        (lambda d: d.update(paths="AB"), "'paths' must be a list"),
        (
            lambda d: d["paths"][0].update(coefficient=[0.3]),
            "coefficient of path A -> B must be a finite number",
        ),
        (
            lambda d: d["paths"][0].update(coefficient=float("nan")),
            "coefficient of path A -> B must be a finite number",
        ),
        (lambda d: d["constructs"][0].update(loadings=[[0.5]]), "loading of construct 'A'"),
        (lambda d: d["constructs"][0].update(loadings="1"), "construct 'A' must list loadings"),
        (lambda d: d["constructs"][0].update(loadings=[True]), "loading of construct 'A'"),
        (lambda d: d["constructs"][0].update(loadings=["0.5"]), "loading of construct 'A'"),
        (lambda d: d["constructs"][0].update(loadings=[10**400]), "loading of construct 'A'"),
        (lambda d: d.update(disturbances=[None, 1.0]), "disturbance variance must be"),
        (lambda d: d.update(disturbances=[1.0, False]), "disturbance variance must be"),
        (
            lambda d: d["constructs"].__setitem__(0, {"name": "A", "single_item": "no"}),
            "construct 'A' single_item must be true or false",
        ),
        (
            lambda d: d["constructs"][0].update(single_item=0),
            "construct 'A' single_item must be true or false",
        ),
        (
            lambda d: d["constructs"].__setitem__(0, {"name": "A", "single_item": None}),
            "construct 'A' single_item must be true or false",
        ),
        (
            lambda d: d["constructs"][0].update(single_item=True),
            "construct 'A' declares both single_item and loadings",
        ),
    ],
)
def test_parse_population_errors(mutate, message):
    doc = {
        "kind": "acyclic",
        "n": 100,
        "seed": 0,
        "constructs": [
            {"name": "A", "loadings": [0.8]},
            {"name": "B", "loadings": [0.8]},
        ],
        "paths": [{"source": "A", "target": "B", "coefficient": 0.5}],
    }
    mutate(doc)
    with pytest.raises(ModelError, match=message):
        parse_population(doc)


def test_parse_population_single_item_flag_is_a_bool():
    doc = {
        "n": 100,
        "constructs": [
            {"name": "A", "single_item": True},
            {"name": "B", "single_item": False, "loadings": [0.8, 0.7]},
        ],
    }
    pop, _ = parse_population(doc)
    assert [c.loadings for c in pop.constructs] == [(1.0,), (0.8, 0.7)]


def test_parse_population_reports_json_position():
    with pytest.raises(ModelError, match="syntax error at line 1, column 2"):
        parse_population("{!")


# A DAG declared out of topological order (the wave order is X1, X2, then B
# and A), where B and A share two correlated parents, so the order in which
# their covariance is filled shows in the rounding of the truth; and a
# feedback system with given disturbances.
PINNED_POPULATIONS = [
    (
        {
            "kind": "acyclic", "n": 300, "seed": 11,
            "constructs": [
                {"name": "B", "loadings": [0.9, 0.6]},
                {"name": "A", "loadings": [0.8, 0.7, 0.75]},
                {"name": "X2", "single_item": True},
                {"name": "X1", "loadings": [0.85, 0.65]},
            ],
            "paths": [
                {"source": "X1", "target": "X2", "coefficient": 0.35},
                {"source": "X1", "target": "A", "coefficient": 0.3},
                {"source": "X2", "target": "A", "coefficient": 0.45},
                {"source": "X1", "target": "B", "coefficient": 0.25},
                {"source": "X2", "target": "B", "coefficient": 0.55},
            ],
        },
        "c9c6eb0e7b176aa112b3e30dbd5244032743a6839afd18851476493ba18a2c49",
        "dee9785c5307eb20157aff7b35ab05746a3e107049cc3a39ce109c5479889229",
    ),
    (
        {
            "kind": "cyclic", "n": 300, "seed": 12,
            "constructs": [
                {"name": "A", "loadings": [0.8, 0.7]},
                {"name": "B", "single_item": True},
                {"name": "C", "loadings": [0.9, 0.75, 0.6]},
            ],
            "paths": [
                {"source": "A", "target": "B", "coefficient": 0.4},
                {"source": "B", "target": "C", "coefficient": 0.5},
                {"source": "A", "target": "C", "coefficient": 0.2},
                {"source": "C", "target": "A", "coefficient": 0.3},
            ],
            "disturbances": [1.0, 0.7, 0.5],
        },
        "955098a231ceb357eb59ded6447a96041c7d0e21f840dfe533d511cbe5728e70",
        "e1b156a555b5b160e449e42a4f9a64d380e3d5c99228c8ec160f457479809d00",
    ),
]


@pytest.mark.parametrize(
    "doc, values_sha256, truth_sha256", PINNED_POPULATIONS, ids=["dag", "cyclic"]
)
def test_generators_and_truth_are_pinned(doc, values_sha256, truth_sha256):
    pop, kind = parse_population(doc)
    generate = gen_acyclic if kind == "acyclic" else gen_cyclic_equilibrium
    values = np.ascontiguousarray(generate(pop).values)
    assert values.dtype == np.float64
    assert hashlib.sha256(values.tobytes()).hexdigest() == values_sha256
    truth = json.dumps(population_truth(pop, kind), sort_keys=True)
    assert hashlib.sha256(truth.encode()).hexdigest() == truth_sha256
