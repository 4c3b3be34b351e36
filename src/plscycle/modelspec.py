"""Declarative model documents: constructs, indicator blocks, paths, feedback edges.

A model is a JSON object with top-level keys ``blocks``, ``paths``, ``cyclic``
and ``scheme``. Parsing applies defaults and checks reference integrity;
``validate_model`` reports graph-level violations without raising.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .errors import ModelError

MODES = ("reflective", "formative", "single-item", "mca-single-item")
SCHEMES = ("centroid", "factorial", "path")

# modes whose score is a single fixed-weight column
UNIT_MODES = ("single-item", "mca-single-item")

_TOP_KEYS = {"blocks", "paths", "cyclic", "scheme"}
_BLOCK_KEYS = {"name", "mode", "indicators"}
_PATH_KEYS = {"source", "target"}
_CYCLIC_KEYS = {"source", "targets"}


@dataclass(frozen=True)
class BlockSpec:
    """One construct and its indicator block."""

    name: str
    indicators: tuple[str, ...]
    mode: str = "reflective"


@dataclass(frozen=True)
class PathSpec:
    """A directed structural edge between two constructs."""

    source: str
    target: str


@dataclass(frozen=True)
class CyclicSpec:
    """Feedback edges: the source construct's score predicts each target."""

    source: str
    targets: tuple[str, ...]


@dataclass(frozen=True)
class ModelSpec:
    """Parsed model: blocks, sequential paths, optional feedback section."""

    blocks: tuple[BlockSpec, ...]
    paths: tuple[PathSpec, ...] = ()
    cyclic: CyclicSpec | None = None
    scheme: str = "path"

    def block_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.blocks)

    def block(self, name: str) -> BlockSpec:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)

    def predecessors(self, name: str) -> tuple[str, ...]:
        return tuple(p.source for p in self.paths if p.target == name)

    def successors(self, name: str) -> tuple[str, ...]:
        return tuple(p.target for p in self.paths if p.source == name)


@dataclass(frozen=True)
class ValidationReport:
    """Zero or more violations; an empty report means the model is estimable."""

    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def _require_str(value: object, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ModelError(f"{what} must be a non-empty string")
    return value


def _is_list(value: object) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, str)


def _check_keys(obj: Mapping, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ModelError(f"unknown field '{key}' in {where}")


def _load_document(document: str | Mapping, kind: str) -> Mapping:
    """The JSON object a ``kind`` document holds, from its text or as given."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ModelError(
                f"{kind} document syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(document, Mapping):
        raise ModelError(f"{kind} document must be a JSON object")
    return document


def _parse_block(obj: object, seen_names: set[str], seen_indicators: set[str]) -> BlockSpec:
    """Check one block against the blocks before it and record its names in the ``seen`` sets."""
    if not isinstance(obj, Mapping):
        raise ModelError("each block must be an object")
    _check_keys(obj, _BLOCK_KEYS, "block")
    name = _require_str(obj.get("name"), "block name")
    if name in seen_names:
        raise ModelError(f"duplicate construct '{name}'")
    mode = obj.get("mode", "reflective")
    if mode not in MODES:
        raise ModelError(f"unknown mode '{mode}' in block '{name}'")
    raw = obj.get("indicators")
    if not _is_list(raw) or not raw:
        raise ModelError(f"block '{name}' must list at least one indicator")
    indicators = []
    for item in raw:
        col = _require_str(item, f"indicator of block '{name}'")
        if col in indicators:
            raise ModelError(f"duplicate indicator '{col}' in block '{name}'")
        if col in seen_indicators:
            raise ModelError(f"indicator '{col}' assigned to more than one block")
        indicators.append(col)
    if mode == "single-item" and len(indicators) != 1:
        raise ModelError(f"single-item block '{name}' must declare exactly one indicator")
    seen_names.add(name)
    seen_indicators.update(indicators)
    return BlockSpec(name=name, indicators=tuple(indicators), mode=mode)


def _parse_path(obj: object, names: set[str], seen: set[tuple[str, str]],
                keys: set[str] = _PATH_KEYS, where: str = "path") -> PathSpec:
    """Check one ``where`` entry against the construct ``names`` and record it in ``seen``."""
    if not isinstance(obj, Mapping):
        raise ModelError(f"each {where} must be an object")
    _check_keys(obj, keys, where)
    source = _require_str(obj.get("source"), f"{where} source")
    target = _require_str(obj.get("target"), f"{where} target")
    for endpoint in (source, target):
        if endpoint not in names:
            raise ModelError(f"{where} references unknown construct '{endpoint}'")
    if source == target:
        raise ModelError(f"{where} source equals target '{source}'")
    if (source, target) in seen:
        raise ModelError(f"duplicate {where} {source} -> {target}")
    seen.add((source, target))
    return PathSpec(source=source, target=target)


def parse_model(document: str | Mapping) -> ModelSpec:
    """Parse a model document (JSON text or an equivalent mapping).

    Defaults: block mode ``reflective``, scheme ``path``, and cyclic targets,
    when omitted, all antecedents of the cyclic source in declaration order.
    Raises ModelError for syntax problems, unknown fields or modes, duplicate
    names, and references to undeclared constructs.
    """
    obj = _load_document(document, "model")
    _check_keys(obj, _TOP_KEYS, "model document")

    raw_blocks = obj.get("blocks")
    if not _is_list(raw_blocks) or not raw_blocks:
        raise ModelError("model document must declare a non-empty 'blocks' list")
    seen_names: set[str] = set()
    seen_indicators: set[str] = set()
    blocks = [_parse_block(raw, seen_names, seen_indicators) for raw in raw_blocks]

    raw_paths = obj.get("paths", [])
    if not _is_list(raw_paths):
        raise ModelError("'paths' must be a list")
    seen_edges: set[tuple[str, str]] = set()
    paths = [_parse_path(raw, seen_names, seen_edges) for raw in raw_paths]

    scheme = obj.get("scheme", "path")
    if scheme not in SCHEMES:
        raise ModelError(f"unknown scheme '{scheme}'")

    cyclic = None
    raw_cyclic = obj.get("cyclic")
    if raw_cyclic is not None:
        if not isinstance(raw_cyclic, Mapping):
            raise ModelError("'cyclic' must be an object")
        _check_keys(raw_cyclic, _CYCLIC_KEYS, "cyclic section")
        source = _require_str(raw_cyclic.get("source"), "cyclic source")
        if source not in seen_names:
            raise ModelError(f"cyclic source references unknown construct '{source}'")
        raw_targets = raw_cyclic.get("targets")
        if raw_targets is None:
            spec_wo_cyclic = ModelSpec(blocks=tuple(blocks), paths=tuple(paths))
            targets = ancestors(spec_wo_cyclic, source)
            if not targets:
                raise ModelError(
                    f"cyclic source '{source}' has no antecedents to default the targets to"
                )
        else:
            if not _is_list(raw_targets) or not raw_targets:
                raise ModelError("cyclic 'targets' must be a non-empty list")
            targets_list: list[str] = []
            for item in raw_targets:
                t = _require_str(item, "cyclic target")
                if t not in seen_names:
                    raise ModelError(f"cyclic target references unknown construct '{t}'")
                if t == source:
                    raise ModelError("cyclic target equals the cyclic source")
                if t in targets_list:
                    raise ModelError(f"duplicate cyclic target '{t}'")
                targets_list.append(t)
            targets = tuple(targets_list)
        cyclic = CyclicSpec(source=source, targets=targets)

    return ModelSpec(blocks=tuple(blocks), paths=tuple(paths), cyclic=cyclic, scheme=scheme)


def model_document(spec: ModelSpec) -> dict:
    """Mapping form of a ModelSpec, suitable for JSON serialization."""
    doc: dict = {
        "blocks": [
            {"name": b.name, "mode": b.mode, "indicators": list(b.indicators)}
            for b in spec.blocks
        ],
        "paths": [{"source": p.source, "target": p.target} for p in spec.paths],
        "scheme": spec.scheme,
    }
    if spec.cyclic is not None:
        doc["cyclic"] = {"source": spec.cyclic.source, "targets": list(spec.cyclic.targets)}
    return doc


def _wave_order(parents: Sequence[set[int]]) -> list[int] | None:
    """Topological order of nodes 0..k-1 given each node's parents, or None on a cycle.

    Each pass places, in index order, every node whose parents are all placed.
    """
    order: list[int] = []
    while len(order) < len(parents):
        placed = set(order)
        ready = [i for i, up in enumerate(parents) if i not in placed and up <= placed]
        if not ready:
            return None
        order.extend(ready)
    return order


def topological_order(spec: ModelSpec) -> tuple[str, ...] | None:
    """Topological order of the sequential graph, or None if it has a cycle."""
    names = spec.block_names()
    index = {name: i for i, name in enumerate(names)}
    order = _wave_order([{index[p] for p in spec.predecessors(name)} for name in names])
    return None if order is None else tuple(names[i] for i in order)


def ancestors(spec: ModelSpec, name: str) -> tuple[str, ...]:
    """Direct and indirect antecedents of a construct, in declaration order.

    Cycle-safe: walks the reversed edges with a visited set, so it terminates
    even on graphs that validate_model would reject.
    """
    found: set[str] = set()
    frontier = [name]
    while frontier:
        node = frontier.pop()
        for pred in spec.predecessors(node):
            if pred not in found and pred != name:
                found.add(pred)
                frontier.append(pred)
    return tuple(n for n in spec.block_names() if n in found)


def _cyclic_violations(spec: ModelSpec) -> list[str]:
    assert spec.cyclic is not None
    out: list[str] = []
    source = spec.cyclic.source
    if not spec.predecessors(source):
        out.append("cyclic source must be endogenous")
    anc = set(ancestors(spec, source))
    for t in spec.cyclic.targets:
        if t not in anc:
            out.append(f"cyclic target '{t}' is not an antecedent of the source")
    # estimability needs a construct that both has an antecedent and precedes
    # the source; otherwise step 1 and step 2 collapse to the same correlation
    has_intermediate = any(spec.predecessors(m) for m in anc)
    if not has_intermediate:
        out.append(
            "cyclic estimation requires an intermediate construct "
            "(otherwise the sequential and cyclic estimates reduce to the "
            "same correlation coefficient)"
        )
    return out


def validate_model(spec: ModelSpec, columns: set[str] | None = None) -> ValidationReport:
    """Check graph-level semantics and, when given, data column coverage.

    Violations are report entries rather than exceptions; an empty report
    means the model can be estimated. Pure: identical inputs always yield an
    identical report.
    """
    violations: list[str] = []
    if topological_order(spec) is None:
        violations.append("sequential graph must be acyclic")
    if spec.cyclic is not None:
        violations.extend(_cyclic_violations(spec))
    if columns is not None:
        for block in spec.blocks:
            for col in block.indicators:
                if col not in columns:
                    violations.append(f"indicator column '{col}' missing from data")
    return ValidationReport(violations=tuple(violations))
