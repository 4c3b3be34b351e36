"""Iterative PLS path-modeling estimator on the indicator correlation matrix.

Every standardized PLS quantity is a function of the indicator correlation
matrix R (Lohmöller 1989, ch. 2), so the fixed point runs on R. With W the
block-diagonal outer weights, the score covariance W'RW yields the inner
proxies (centroid, factorial, or path scheme); mode A weights are
R[block, :] W e_i, mode B solves against R[block, block], and single-item
blocks keep a fixed unit weight. Loadings are R[block, :] w_i / sqrt(w_i' R
w_i); path coefficients are OLS on the score correlations. A fit is the same
on prepared data and on its moments; ``PreparedData.score`` turns its weights
into scores. The layout (column order, block slices, inner-model indices) is
derived once per model and block layout, and one iteration's regressions are
solved in one stacked call per predecessor count.

All location parameters are identically zero because every column entering
the estimator is standardized; reports list them as 0 for completeness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Moments, PreparedData
from .errors import EstimationError
from .modelspec import ModelSpec, UNIT_MODES

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 300

# condition number above which a regression system is treated as singular
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class PlsFit:
    """Converged outer weights, loadings, paths, and fit diagnostics."""

    constructs: tuple[str, ...]
    modes: dict[str, str]
    weights: dict[str, np.ndarray]
    loadings: dict[str, np.ndarray]
    paths: dict[tuple[str, str], float]
    r_squared: dict[str, float]
    iterations: int
    converged: bool


# one (targets, preds) pair of index arrays per predecessor count s: targets (g,), preds (g, s)
_Groups = tuple[tuple[np.ndarray, np.ndarray], ...]


@functools.lru_cache(maxsize=64)
def _layout(spec: ModelSpec, bounds: tuple[tuple[int, int], ...]) -> tuple:
    """What a fit derives from the model and its blocks' column bounds alone.

    That is the ``np.ix_`` of the model's columns in block order, each block's
    slice of them, ``member`` (member[j, i] is 1 when model column j belongs to
    block i, else 0), the regression groups and the constructs without neighbors.
    """
    constructs = spec.block_names()
    k = len(constructs)
    index = {name: i for i, name in enumerate(constructs)}
    columns: list[int] = []
    slices: list[slice] = []
    for block, (lo, hi) in zip(spec.blocks, bounds):
        if block.mode in UNIT_MODES and hi - lo != 1:
            raise EstimationError(f"block '{block.name}' must be prepared to exactly one column")
        slices.append(slice(len(columns), len(columns) + hi - lo))
        columns.extend(range(lo, hi))
    member = np.eye(k)[np.repeat(np.arange(k), [s.stop - s.start for s in slices])]
    preds = [[index[p] for p in spec.predecessors(name)] for name in constructs]
    groups = []
    for count in sorted({len(p) for p in preds} - {0}):
        targets = [i for i in range(k) if len(preds[i]) == count]
        groups.append((np.array(targets), np.array([preds[i] for i in targets])))
    isolated = [i for i, name in enumerate(constructs) if not preds[i] and not spec.successors(name)]
    return np.ix_(columns, columns), tuple(slices), member, tuple(groups), isolated


def _solve_groups(corr: np.ndarray, groups: _Groups, names: tuple[str, ...]) -> list[np.ndarray]:
    """Standardized OLS coefficients from a correlation matrix, one stacked solve per group.

    A group's result is (g, s). A system is singular when its condition number
    exceeds ``_COND_LIMIT``; a finite 1x1 system's is 1, or inf at zero, so it
    skips the SVD. The first singular system in construct order raises.
    """
    systems, singular = [], []
    for targets, preds in groups:
        a = corr[preds[:, :, None], preds[:, None, :]]
        if preds.shape[1] == 1 and np.isfinite(a).all():
            singular.extend(targets[a[:, 0, 0] == 0.0])
        else:
            singular.extend(targets[np.linalg.cond(a) > _COND_LIMIT])
        systems.append((a, corr[preds, targets[:, None], None]))
    if singular:
        raise EstimationError(f"singular system: collinear predecessors of '{names[min(singular)]}'")
    return [np.linalg.solve(a, b)[..., 0] for a, b in systems]


def _structural(
    corr: np.ndarray, groups: _Groups, constructs: tuple[str, ...]
) -> tuple[dict[tuple[str, str], float], dict[str, float]]:
    """OLS path coefficients and R squared from the score correlation matrix."""
    systems: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for (targets, preds), beta in zip(groups, _solve_groups(corr, groups, constructs)):
        systems.update(zip(targets.tolist(), zip(preds, beta)))
    paths: dict[tuple[str, str], float] = {}
    r_squared: dict[str, float] = {}
    for target, (preds, beta) in sorted(systems.items()):
        name = constructs[target]
        for p, value in zip(preds, beta):
            paths[(constructs[p], name)] = float(value)
        r_squared[name] = float(corr[preds, target] @ beta)
    return paths, r_squared


def _inner_weights(
    corr: np.ndarray, scheme: str, groups: _Groups, isolated: list[int], names: tuple[str, ...]
) -> np.ndarray:
    """Adjacency weighting matrix E; proxy for construct k is scores @ E[k]."""
    weigh = np.sign if scheme == "centroid" else np.asarray
    if scheme == "path":
        betas = _solve_groups(corr, groups, names)
    else:
        betas = [weigh(corr[targets[:, None], preds]) for targets, preds in groups]
    e = np.zeros_like(corr)
    e[isolated, isolated] = 1.0  # isolated construct: its own score is the proxy
    for (targets, preds), beta in zip(groups, betas):
        e[targets[:, None], preds] = beta
    for targets, preds in groups:  # then each predecessor weighs its successors
        e[preds, targets[:, None]] = weigh(corr[preds, targets[:, None]])
    return e


def fit_pls(
    data: PreparedData | Moments,
    spec: ModelSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PlsFit:
    """Estimate the model on prepared (standardized) data or on its moments.

    Outer weights start equal and are rescaled to unit score variance after
    every update. Each block is oriented so its loading sum is non-negative.
    Convergence is the maximum absolute weight change across all blocks
    dropping below ``tol``; hitting ``max_iter`` returns a fit with
    ``converged=False`` rather than raising.
    """
    if not tol > 0:  # rejects NaN too
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be a positive integer")
    constructs = spec.block_names()
    k = len(constructs)
    modes = [block.mode for block in spec.blocks]
    bounds = tuple(data.block_index[name] for name in constructs)
    columns, slices, member, groups, isolated = _layout(spec, bounds)
    r = data.corr[columns]
    within = [r[s, s] for s in slices]

    for i, name in enumerate(constructs):
        if modes[i] == "formative" and np.linalg.cond(within[i]) > _COND_LIMIT:
            raise EstimationError(f"singular system in formative block '{name}'")

    def settle(i: int, w: np.ndarray) -> np.ndarray:
        """Scale to unit score variance, then orient to a non-negative loading sum."""
        std = math.sqrt(max(float(w @ within[i] @ w), 0.0))
        if std <= 1e-12:
            raise EstimationError(f"degenerate score variance in block '{constructs[i]}'")
        w = w / std
        return -w if (within[i] @ w).sum() < 0 else w

    weights = [settle(i, np.ones(len(within[i]))) for i in range(k)]

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w_mat = member * np.concatenate(weights)[:, None]  # block-diagonal W
        cross = r @ w_mat  # covariance of every column with every score
        e = _inner_weights(w_mat.T @ cross, spec.scheme, groups, isolated, constructs)
        proxy_cov = cross @ e.T  # covariance of every column with every inner proxy
        delta = 0.0
        for i in range(k):
            if modes[i] in UNIT_MODES:
                continue
            cov = proxy_cov[slices[i], i]  # mode A; mode B regresses it on the block
            w = settle(i, np.linalg.solve(within[i], cov) if modes[i] == "formative" else cov)
            delta = max(delta, float(np.max(np.abs(w - weights[i]))))
            weights[i] = w
        if delta < tol:
            converged = True
            break

    w_mat = member * np.concatenate(weights)[:, None]
    cross = r @ w_mat
    score_cov = w_mat.T @ cross
    std = np.sqrt(np.diag(score_cov))
    paths, r_squared = _structural(score_cov / np.outer(std, std), groups, constructs)
    return PlsFit(
        constructs=constructs,
        modes={name: modes[i] for i, name in enumerate(constructs)},
        weights={name: weights[i] for i, name in enumerate(constructs)},
        loadings={name: cross[slices[i], i] / std[i] for i, name in enumerate(constructs)},
        paths=paths,
        r_squared=r_squared,
        iterations=iterations,
        converged=converged,
    )
