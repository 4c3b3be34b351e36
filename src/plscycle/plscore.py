"""Iterative PLS path-modeling estimator on the indicator correlation matrix.

Every standardized PLS quantity is a function of the indicator correlation
matrix R (Lohmöller 1989, ch. 2), so the fixed point runs on R. With W the
block-diagonal outer weights, the score covariance W'RW yields the inner
proxies (centroid, factorial, or path scheme); mode A weights are
R[block, :] W e_i, mode B solves against R[block, block], and single-item
blocks keep a fixed unit weight. Loadings are R[block, :] w_i / sqrt(w_i' R
w_i); path coefficients are OLS on the score correlations. A fit is the same
on prepared data and on its moments; ``PreparedData.score`` turns its weights
into scores.

All location parameters are identically zero because every column entering
the estimator is standardized; reports list them as 0 for completeness.
"""

from __future__ import annotations

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


def _solve_ols(corr: np.ndarray, pred: list[int], target: int, label: str) -> np.ndarray:
    """Standardized OLS coefficients from a correlation matrix."""
    a = corr[np.ix_(pred, pred)]
    b = corr[pred, target]
    if len(pred) == 1 and math.isfinite(a[0, 0]):
        singular = a[0, 0] == 0.0  # a 1x1 condition number is 1, or inf at zero
    else:
        singular = np.linalg.cond(a) > _COND_LIMIT
    if singular:
        raise EstimationError(f"singular system: collinear predecessors of '{label}'")
    return np.linalg.solve(a, b)


def _structural(
    corr: np.ndarray, spec: ModelSpec, constructs: tuple[str, ...]
) -> tuple[dict[tuple[str, str], float], dict[str, float]]:
    """OLS path coefficients and R squared from the score correlation matrix."""
    index = {name: i for i, name in enumerate(constructs)}
    paths: dict[tuple[str, str], float] = {}
    r_squared: dict[str, float] = {}
    for name in constructs:
        preds = spec.predecessors(name)
        if not preds:
            continue
        pred_idx = [index[p] for p in preds]
        beta = _solve_ols(corr, pred_idx, index[name], name)
        for p, value in zip(preds, beta):
            paths[(p, name)] = float(value)
        r_squared[name] = float(corr[pred_idx, index[name]] @ beta)
    return paths, r_squared


def _inner_weights(
    corr: np.ndarray,
    scheme: str,
    preds: list[list[int]],
    succs: list[list[int]],
    names: tuple[str, ...],
) -> np.ndarray:
    """Adjacency weighting matrix E; proxy for construct k is scores @ E[k]."""
    k = corr.shape[0]
    e = np.zeros((k, k))
    for i in range(k):
        neighbors = preds[i] + succs[i]
        if not neighbors:
            e[i, i] = 1.0  # isolated construct: its own score is the proxy
            continue
        if scheme == "centroid":
            e[i, neighbors] = np.sign(corr[i, neighbors])
        elif scheme == "factorial":
            e[i, neighbors] = corr[i, neighbors]
        else:  # path
            if preds[i]:
                e[i, preds[i]] = _solve_ols(corr, preds[i], i, names[i])
            if succs[i]:
                e[i, succs[i]] = corr[i, succs[i]]
    return e


def fit_pls(
    data: PreparedData | Moments,
    spec: ModelSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    init_weights: dict[str, np.ndarray] | None = None,
) -> PlsFit:
    """Estimate the model on prepared (standardized) data or on its moments.

    Outer weights start equal (or at ``init_weights``) and are rescaled to
    unit score variance after every update. Each block is oriented so its
    loading sum is non-negative. Convergence is the maximum absolute weight
    change across all blocks dropping below ``tol``; hitting ``max_iter``
    returns a fit with ``converged=False`` rather than raising.
    """
    if not tol > 0:  # rejects NaN too
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be a positive integer")
    constructs = spec.block_names()
    k = len(constructs)
    index = {name: i for i, name in enumerate(constructs)}
    modes = [block.mode for block in spec.blocks]
    # the model's columns in block order, and each block's slice of them
    columns: list[int] = []
    slices: list[slice] = []
    for block in spec.blocks:
        lo, hi = data.block_index[block.name]
        if block.mode in UNIT_MODES and hi - lo != 1:
            raise EstimationError(
                f"block '{block.name}' must be prepared to exactly one column"
            )
        slices.append(slice(len(columns), len(columns) + hi - lo))
        columns.extend(range(lo, hi))
    r = data.corr[np.ix_(columns, columns)]
    within = [r[s, s] for s in slices]
    # member[j, i] is 1 when model column j belongs to block i, else 0
    member = np.eye(k)[np.repeat(np.arange(k), [len(w) for w in within])]
    preds = [[index[p] for p in spec.predecessors(name)] for name in constructs]
    succs = [[index[s] for s in spec.successors(name)] for name in constructs]

    for i, name in enumerate(constructs):
        if modes[i] == "formative" and np.linalg.cond(within[i]) > _COND_LIMIT:
            raise EstimationError(f"singular system in formative block '{name}'")

    def settle(i: int, w: np.ndarray) -> np.ndarray:
        """Scale to unit score variance, then orient to a non-negative loading sum."""
        std = math.sqrt(max(float(w @ within[i] @ w), 0.0))
        if std <= 1e-12:
            raise EstimationError(f"degenerate score variance in block '{constructs[i]}'")
        w = w / std
        if modes[i] not in UNIT_MODES and (within[i] @ w).sum() < 0:
            return -w
        return w  # a unit-mode weight stays positive: its loading is +1

    weights: list[np.ndarray] = []
    for i, name in enumerate(constructs):
        w = np.asarray((init_weights or {}).get(name, np.ones(len(within[i]))), dtype=np.float64)
        if w.shape != (len(within[i]),):
            raise ValueError(f"init weights for '{name}' have the wrong length")
        weights.append(settle(i, w))

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w_mat = member * np.concatenate(weights)[:, None]  # block-diagonal W
        cross = r @ w_mat  # covariance of every column with every score
        e = _inner_weights(w_mat.T @ cross, spec.scheme, preds, succs, constructs)
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
    paths, r_squared = _structural(score_cov / np.outer(std, std), spec, constructs)
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
