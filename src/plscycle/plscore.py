"""Iterative PLS path-modeling estimator on the indicator correlation matrix.

Every standardized PLS quantity is a function of the indicator correlation
matrix R (Lohmöller 1989, ch. 2), so the fixed point runs on R, and on a
stack of them at once: ``_fit_stack`` fits an (m, p, p) stack, and
``fit_pls`` is its m = 1 case. With W the block-diagonal outer weights, the
score covariance W'RW yields the inner proxies (centroid, factorial, or path
scheme); mode A weights are R[block, :] W e_i, mode B solves against
R[block, block], and single-item blocks keep a fixed unit weight. Loadings
are R[block, :] w_i / sqrt(w_i' R w_i); path coefficients are OLS on the
score correlations, one stacked solve per regressed target. A replicate of
a stack stops updating once it converges or fails, and its products are its
own, so it is a lone fit of its R, bit for bit. A fit is the same on prepared
data and on its moments; ``PreparedData.score`` turns its weights into scores.

All location parameters are identically zero because every column entering
the estimator is standardized; reports list them as 0 for completeness.
"""

from __future__ import annotations

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


def _solve_paths(corr: np.ndarray,
                 preds: list[tuple[int, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Standardized OLS on a stack of correlation matrices, one stacked solve per target.

    ``preds`` pairs each regressed target t with its predecessors' indices.
    Returns B (m, k, k), where B[:, t, s] is the coefficient of predecessor s
    in the regression of t, and which targets' systems are singular (m, k). A
    system is singular when its condition number exceeds ``_COND_LIMIT``; a
    finite 1x1 system's is 1, or inf at zero, so it skips the SVD. A singular
    system is solved as the identity instead, since one exactly singular
    matrix would stop the whole stacked solve.
    """
    m, k = corr.shape[:2]
    b, singular = np.zeros((m, k, k)), np.zeros((m, k), bool)
    for t, p in preds:
        a = corr[:, p[:, None], p]
        finite_1x1 = len(p) == 1 and np.isfinite(a).all()
        bad = a[:, 0, 0] == 0.0 if finite_1x1 else np.linalg.cond(a) > _COND_LIMIT
        a[bad] = np.eye(len(p))
        b[:, t, p] = np.linalg.solve(a, corr[:, p, t, None])[..., 0]
        singular[:, t] = bad
    return b, singular


def _fit_stack(corr: np.ndarray, spec: ModelSpec, block_index: dict[str, tuple[int, int]],
               tol: float, max_iter: int, failures: list[str | None]) -> tuple:
    """The fixed point on an (m, p, p) stack of indicator correlation matrices.

    Returns the outer weights and loadings (m, q) of the model's q columns in
    block order, the path coefficients B (m, k, k), where B[:, t, s] is the
    path s -> t, R squared (m, k), and each replicate's iteration count and
    convergence flag. ``failures`` has one entry per replicate: one already
    set is not fitted, and a replicate that fails gets its first failure's
    message there, as a lone fit would raise it. R is read in place when it is
    C-ordered, its columns are the model's and no replicate has failed. Each
    pass computes the whole stack, with products per replicate, and updates the
    replicates neither converged nor failed: each is its lone fit, bit for bit.
    """
    if not tol > 0:  # rejects NaN too
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be a positive integer")
    names = spec.block_names()
    k = len(names)
    bounds = [block_index[name] for name in names]
    for block, (lo, hi) in zip(spec.blocks, bounds):
        if block.mode in UNIT_MODES and hi - lo != 1:
            raise EstimationError(f"block '{block.name}' must be prepared to exactly one column")
    columns = np.concatenate([np.arange(lo, hi) for lo, hi in bounds])
    m, q, live = len(failures), len(columns), np.array([f is None for f in failures])
    # gathered in C order (a strided R changes matmul's rounding); the identity stands
    # in for the R, maybe NaN, of a replicate failed before the fit, which np.linalg.cond
    # cannot take: such a replicate is never active, and its results mean nothing
    as_is = corr.flags.c_contiguous and np.array_equal(columns, np.arange(corr.shape[1]))
    r = corr if as_is else corr[np.arange(m)[:, None, None], columns[:, None], columns]
    r = r if live.all() else np.where(live[:, None, None], r, np.eye(q))
    owner = np.repeat(np.arange(k), [hi - lo for lo, hi in bounds])  # each column's block
    cols, member = np.arange(q), np.eye(k)[owner]
    unit = np.array([block.mode in UNIT_MODES for block in spec.blocks])
    formative = np.flatnonzero([spec.blocks[i].mode == "formative" for i in owner])
    same = (member @ member.T)[np.ix_(formative, formative)]  # 1 within a block, else 0
    # adjacency[t, s] is 1 when s precedes t; an isolated construct is its own proxy
    adjacency = np.array([[s in spec.predecessors(t) for s in names] for t in names], float)
    alone = np.diag(~(adjacency + adjacency.T).any(1) * 1.0)
    preds = [(t, np.flatnonzero(row)) for t, row in enumerate(adjacency) if row.any()]
    active = live.copy()  # live, not converged

    def fail(bad: np.ndarray, message: str) -> None:
        """Fail each active replicate with a ``bad`` block, naming the first."""
        hit = bad.any(1) & active
        for j, first in zip(np.flatnonzero(hit).tolist(), bad[hit].argmax(1).tolist()):
            failures[j] = message.format(names[first])
        live[hit] = active[hit] = False

    def block_sums(x: np.ndarray) -> np.ndarray:
        """Each replicate's sums of x (m, q) over each block, one product per replicate."""
        return (np.ascontiguousarray(x)[:, None] @ member)[:, 0]

    def settle(w: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Scale to unit score variance, then orient to a non-negative loading sum."""
        within = (r @ (member * w[..., None]))[:, cols, owner]  # R[block, block] w
        std = np.sqrt(np.maximum(block_sums(w * within), 0.0))
        degenerate = std <= 1e-12
        fail(degenerate & blocks, "degenerate score variance in block '{}'")
        scale = np.where(degenerate, 1.0, std) * np.where(block_sums(within) < 0, -1.0, 1.0)
        return w / scale[:, owner]

    singular = np.zeros((m, k), bool)
    for i in np.flatnonzero([block.mode == "formative" for block in spec.blocks]):
        block = np.flatnonzero(owner == i)
        singular[:, i] = np.linalg.cond(r[:, block[:, None], block]) > _COND_LIMIT
    fail(singular, "singular system in formative block '{}'")
    mode_b = r[:, formative[:, None], formative] * same
    mode_b[singular.any(1)] = np.eye(len(formative))  # a singular one would stop the solve
    w = settle(np.ones((m, q)), np.ones(k, bool))
    iterations, converged = np.zeros(m, int), np.zeros(m, bool)

    for iteration in range(1, max_iter + 2):  # the last pass only forms the exit's products
        w_mat = member * w[..., None]  # block-diagonal W
        cross = r @ w_mat  # covariance of every column with every score
        cov = w_mat.transpose(0, 2, 1) @ cross
        if iteration > max_iter or not active.any():
            break
        if spec.scheme == "path":
            beta, singular = _solve_paths(cov, preds)
            fail(singular, "singular system: collinear predecessors of '{}'")
            e = beta + cov * adjacency.T  # and each predecessor weighs its successors
        else:
            e = (np.sign(cov) if spec.scheme == "centroid" else cov) * (adjacency + adjacency.T)
        new = (cross @ (e + alone).transpose(0, 2, 1))[:, cols, owner]  # mode A: cov with the proxy
        if len(formative):  # mode B regresses it on the block
            new[:, formative] = np.linalg.solve(mode_b, new[:, formative, None])[..., 0]
        new = np.where(unit[owner], w, settle(new, ~unit))
        converged[active] = np.abs(new - w)[active].max(1) < tol
        w[active], iterations[active] = new[active], iteration
        active &= ~converged

    active = live  # the last pass may fail a converged replicate
    # a failed replicate keeps its weights, and its score variance, maybe 0, is taken as 1
    std = np.sqrt(np.where(live[:, None], np.diagonal(cov, axis1=1, axis2=2), 1.0))
    score_corr = cov / (std[:, :, None] * std[:, None, :])
    beta, singular = _solve_paths(score_corr, preds)
    fail(singular, "singular system: collinear predecessors of '{}'")
    return (w, cross[:, cols, owner] / std[:, owner], beta,
            (score_corr.transpose(0, 2, 1) * beta).sum(2), iterations, converged & live)


def _as_fit(spec: ModelSpec, block_index: dict[str, tuple[int, int]], stack: tuple) -> PlsFit:
    """The ``PlsFit`` of a one-replicate ``_fit_stack`` result."""
    weights, loadings, b, r_squared, iterations, converged = (part[0] for part in stack)
    names = spec.block_names()
    cuts = np.cumsum([block_index[name][1] - block_index[name][0] for name in names])[:-1]
    targets = [name for name in names if spec.predecessors(name)]
    return PlsFit(
        constructs=names,
        modes={block.name: block.mode for block in spec.blocks},
        weights=dict(zip(names, np.split(weights, cuts))),
        loadings=dict(zip(names, np.split(loadings, cuts))),
        paths={(s, t): float(b[names.index(t), names.index(s)]) for t in targets
               for s in spec.predecessors(t)},
        r_squared={t: float(r_squared[names.index(t)]) for t in targets},
        iterations=int(iterations),
        converged=bool(converged),
    )


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
    failures: list[str | None] = [None]
    stack = _fit_stack(data.corr[None], spec, data.block_index, tol, max_iter, failures)
    if failures[0] is not None:
        raise EstimationError(failures[0])
    return _as_fit(spec, data.block_index, stack)
