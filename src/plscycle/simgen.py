"""Synthetic populations with known measurement and structural parameters.

Two generators share one indicator-emission rule (x = lambda * xi + sqrt(1 -
lambda^2) * eps): ``gen_acyclic`` propagates disturbances through a DAG in
topological order, deriving disturbance variances so every construct has unit
variance; ``gen_cyclic_equilibrium`` draws the feedback system's stationary
solution xi = (I - B)^(-1) zeta and rescales constructs to unit variance
analytically. Only reflective emission is defined, so formative population
blocks are rejected; a loading of exactly +-1 yields a single-item indicator
that equals the construct.
"""

from __future__ import annotations

import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .dataset import RawTable
from .errors import ModelError
from .modelspec import _check_keys, _is_list, _load_document, _parse_path, _require_str, _wave_order

_KINDS = ("acyclic", "cyclic")


@dataclass(frozen=True)
class ConstructPopulation:
    """Population measurement block: reflective loadings, or (1.0,) for single-item."""

    name: str
    loadings: tuple[float, ...]


@dataclass(frozen=True)
class PopulationSpec:
    """Ground-truth population: constructs, structural matrix, size, seed.

    ``b_matrix[i, j]`` is the effect of construct j on construct i (rows are
    regression targets). The diagonal must be zero. ``disturbances`` may be
    given explicitly for the equilibrium generator (default unit variances);
    the acyclic generator derives them to give unit construct variances and
    only checks consistency when they are supplied.
    """

    constructs: tuple[ConstructPopulation, ...]
    b_matrix: np.ndarray
    n: int
    seed: int
    disturbances: tuple[float, ...] | None = None


def _validate(pop: PopulationSpec) -> None:
    k = len(pop.constructs)
    if k == 0:
        raise ValueError("population needs at least one construct")
    names = [c.name for c in pop.constructs]
    if len(set(names)) != k:
        raise ValueError("duplicate construct name in population")
    for c in pop.constructs:
        if not c.loadings:
            raise ValueError(f"construct '{c.name}' needs at least one loading")
        for lam in c.loadings:
            if abs(lam) > 1.0:
                raise ValueError(
                    f"loading {lam} of construct '{c.name}' implies negative "
                    "indicator error variance"
                )
    b = np.asarray(pop.b_matrix, dtype=np.float64)
    if b.shape != (k, k):
        raise ValueError(f"structural matrix must be {k}x{k}")
    if np.any(np.diag(b) != 0.0):
        raise ValueError("structural matrix must have a zero diagonal")
    if pop.n < 2:
        raise ValueError("sample size must be at least 2")
    if pop.disturbances is not None:
        if len(pop.disturbances) != k:
            raise ValueError("disturbances must list one variance per construct")
        if any(v <= 0 for v in pop.disturbances):
            raise ValueError("disturbance variances must be positive")


def _acyclic_moments(pop: PopulationSpec) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Construct covariance (unit diagonal) and disturbance variances."""
    b = np.asarray(pop.b_matrix, dtype=np.float64)
    k = b.shape[0]
    order = _wave_order([set(np.flatnonzero(row).tolist()) for row in b])
    if order is None:
        raise ValueError("structural matrix is not acyclic")
    sigma = np.eye(k)
    psi = np.ones(k)
    for pos, node in enumerate(order):
        row = b[node]
        explained = float(row @ sigma @ row)
        psi[node] = 1.0 - explained
        if psi[node] <= 0:
            name = pop.constructs[node].name
            raise ValueError(
                f"implied disturbance variance {psi[node]:.6f} <= 0 for "
                f"construct '{name}'"
            )
        for previous in order[: pos + 1]:
            cov = float(row @ sigma[:, previous]) if previous != node else 1.0
            sigma[node, previous] = cov
            sigma[previous, node] = cov
    if pop.disturbances is not None:
        given = np.asarray(pop.disturbances)
        if not np.allclose(given, psi, atol=1e-8):
            raise ValueError(
                "supplied disturbances are inconsistent with unit construct variances"
            )
    return sigma, psi, order


def _equilibrium(pop: PopulationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I - B)^-1, the disturbance variances and the construct scales of xi = B xi + zeta.

    The scales are the construct standard deviations, sqrt diag((I-B)^-1 Psi
    (I-B)^-T); an equilibrium needs the spectral radius of B below 1.
    """
    b = np.asarray(pop.b_matrix, dtype=np.float64)
    k = b.shape[0]
    radius = float(np.max(np.abs(np.linalg.eigvals(b))))
    if radius >= 1.0:
        raise ValueError(f"no equilibrium: spectral radius {radius:.6f} >= 1")
    psi = np.ones(k) if pop.disturbances is None else np.asarray(pop.disturbances)
    a = np.linalg.inv(np.eye(k) - b)
    return a, psi, np.sqrt(np.diag(a @ np.diag(psi) @ a.T))


def _emit_indicators(xi: np.ndarray, pop: PopulationSpec, eps: np.ndarray) -> np.ndarray:
    """Turn ``eps`` into the indicator table in place, one column at a time."""
    loadings = [(i, lam) for i, c in enumerate(pop.constructs) for lam in c.loadings]
    for col, (i, lam) in enumerate(loadings):
        eps[:, col] *= np.sqrt(1.0 - lam**2)
        eps[:, col] += lam * xi[:, i]
    return eps


def indicator_names(pop: PopulationSpec) -> tuple[str, ...]:
    """Column names emitted by the generators: <construct>_<1-based index>."""
    return tuple(
        f"{c.name}_{j + 1}" for c in pop.constructs for j in range(len(c.loadings))
    )


def _draws(pop: PopulationSpec) -> tuple[np.ndarray, np.ndarray]:
    total = sum(len(c.loadings) for c in pop.constructs)
    rng = np.random.default_rng(pop.seed)
    z = rng.standard_normal((pop.n, len(pop.constructs)))
    eps = rng.standard_normal((pop.n, total))
    return z, eps


def gen_acyclic(pop: PopulationSpec) -> RawTable:
    """Sample a sequential (DAG) population; deterministic given the seed.

    Disturbance variances are derived so every construct has exactly unit
    population variance; a structural row that already explains variance >= 1
    is rejected as impossible bookkeeping.
    """
    _validate(pop)
    b = np.asarray(pop.b_matrix, dtype=np.float64)
    _, psi, order = _acyclic_moments(pop)
    z, eps = _draws(pop)
    # each score replaces its draw in z; b[node] is zero on every column not
    # yet replaced, and adding x*0 leaves each sum as it was
    for node in order:
        z[:, node] = z @ b[node] + np.sqrt(psi[node]) * z[:, node]
    return RawTable(header=indicator_names(pop), values=_emit_indicators(z, pop, eps))


def gen_cyclic_equilibrium(pop: PopulationSpec) -> RawTable:
    """Sample the stationary solution of a feedback system xi = B xi + zeta.

    Requires spectral radius of B below 1; disturbances default to unit
    variances. Constructs are rescaled to unit variance analytically, so the
    sample mirrors the population covariance (I-B)^-1 Psi (I-B)^-T up to
    sampling noise.
    """
    _validate(pop)
    a, psi, scale = _equilibrium(pop)
    z, eps = _draws(pop)
    z *= np.sqrt(psi)
    xi = (z @ a.T) / scale
    return RawTable(header=indicator_names(pop), values=_emit_indicators(xi, pop, eps))


def population_truth(pop: PopulationSpec, kind: str) -> dict:
    """Analytic ground truth for oracle tests: correlations, effective paths.

    For the equilibrium kind the rescaling changes the effective structural
    matrix to D B D^-1 (D = inverse construct scale); the returned
    ``b_effective`` is the matrix the rescaled constructs actually satisfy.
    """
    _validate(pop)
    if kind not in _KINDS:
        raise ValueError(f"unknown population kind '{kind}'")
    b = np.asarray(pop.b_matrix, dtype=np.float64)
    if kind == "acyclic":
        corr, psi, _ = _acyclic_moments(pop)
        b_eff = b
    else:
        a, psi, scale = _equilibrium(pop)
        corr = a @ np.diag(psi) @ a.T / np.outer(scale, scale)
        b_eff = b * np.outer(1.0 / scale, scale)
    return {
        "kind": kind,
        "n": pop.n,
        "seed": pop.seed,
        "constructs": [
            {
                "name": c.name,
                "loadings": list(c.loadings),
                "indicators": [f"{c.name}_{j + 1}" for j in range(len(c.loadings))],
            }
            for c in pop.constructs
        ],
        "b_matrix": np.asarray(pop.b_matrix, dtype=np.float64).tolist(),
        "b_effective": np.asarray(b_eff).tolist(),
        "disturbances": np.asarray(psi, dtype=np.float64).tolist(),
        "construct_correlation": np.asarray(corr).tolist(),
    }


def _number(value: object, what: str) -> float:
    """A finite JSON number as a float; bools and numeric strings are not numbers."""
    # the comparison is exact for big integers and false for NaN
    finite = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ModelError(f"{what} must be a finite number")
    return float(value)


def parse_population(document: str | Mapping) -> tuple[PopulationSpec, str]:
    """Parse a population document into (PopulationSpec, kind).

    Grammar: {"kind": "acyclic"|"cyclic", "n": int, "seed": int,
    "constructs": [{"name": str, "loadings": [float, ...]} |
                   {"name": str, "single_item": true}],
    "paths": [{"source": str, "target": str, "coefficient": float}],
    "disturbances": [float, ...]?}. Formative blocks (weight vectors) have no
    generative rule here and are rejected.
    """
    obj = _load_document(document, "population")
    _check_keys(obj, {"kind", "n", "seed", "constructs", "paths", "disturbances"},
                "population document")
    kind = obj.get("kind", "acyclic")
    if kind not in _KINDS:
        raise ModelError(f"unknown population kind '{kind}'")
    raw_constructs = obj.get("constructs")
    if not _is_list(raw_constructs) or not raw_constructs:
        raise ModelError("population document must declare a non-empty 'constructs' list")
    constructs: list[ConstructPopulation] = []
    for raw in raw_constructs:
        if not isinstance(raw, Mapping):
            raise ModelError("each population construct must be an object")
        if "weights" in raw:
            raise ModelError("formative generation is not supported")
        _check_keys(raw, {"name", "loadings", "single_item"}, "population construct")
        name = _require_str(raw.get("name"), "population construct name")
        single = raw.get("single_item", False)
        if not isinstance(single, bool):
            raise ModelError(f"construct '{name}' single_item must be true or false")
        if single:
            loadings: tuple[float, ...] = (1.0,)
            if "loadings" in raw:
                raise ModelError(
                    f"construct '{name}' declares both single_item and loadings"
                )
        else:
            raw_loadings = raw.get("loadings")
            if not _is_list(raw_loadings) or not raw_loadings:
                raise ModelError(f"construct '{name}' must list loadings")
            loadings = tuple(_number(v, f"loading of construct '{name}'") for v in raw_loadings)
        constructs.append(ConstructPopulation(name=name, loadings=loadings))
    names = [c.name for c in constructs]
    index = {n: i for i, n in enumerate(names)}
    k = len(names)
    b = np.zeros((k, k))
    raw_paths = obj.get("paths", [])
    if not _is_list(raw_paths):
        raise ModelError("population 'paths' must be a list")
    seen: set[tuple[str, str]] = set()
    for raw in raw_paths:
        path = _parse_path(raw, set(index), seen, {"source", "target", "coefficient"},
                           "population path")
        b[index[path.target], index[path.source]] = _number(
            raw.get("coefficient", 0.0), f"coefficient of path {path.source} -> {path.target}"
        )
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ModelError("population 'n' must be an integer >= 2")
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ModelError("population 'seed' must be an integer")
    if seed < 0:
        raise ModelError("population 'seed' must be a non-negative integer")
    disturbances = obj.get("disturbances")
    if disturbances is not None:
        if not _is_list(disturbances) or len(disturbances) != k:
            raise ModelError("'disturbances' must list one variance per construct")
        disturbances = tuple(_number(v, "disturbance variance") for v in disturbances)
    pop = PopulationSpec(
        constructs=tuple(constructs),
        b_matrix=b,
        n=n,
        seed=seed,
        disturbances=disturbances,
    )
    try:
        _validate(pop)
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    return pop, kind
