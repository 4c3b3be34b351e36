"""Data-space reference for the moment-space estimator.

The PLS fixed point as it runs on the standardized row matrix: scores are
recomputed from the rows in every iteration, loadings are indicator-score
correlations, and each bootstrap replicate re-standardizes its resampled
rows. The differential tests hold the library to these within 1e-10. The
reliability battery takes every block statistic from ``np.corrcoef`` of the
block's rows. Each regression is solved on its own (``_solve_ols``), where
the library stacks the systems with the same number of predecessors.
"""

import math
import types

import numpy as np

from plscycle import assessment as a
from plscycle.cyclic import build_feedback_model
from plscycle.errors import DataError, EstimationError
from plscycle.modelspec import UNIT_MODES
from plscycle.plscore import _COND_LIMIT
from plscycle.resample import _replicate_rng


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
    corr: np.ndarray, spec, constructs: tuple[str, ...]
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


def path_coefficients(scores, spec, constructs=None):
    """OLS path coefficients and R squared per endogenous construct.

    ``scores`` columns must follow ``constructs`` (block declaration order by
    default). On standardized scores a single predecessor's coefficient is
    exactly the Pearson correlation of the two score columns.
    """
    if constructs is None:
        constructs = spec.block_names()
    if scores.shape[1] != len(constructs):
        raise ValueError("scores column count does not match construct count")
    return _structural(np.atleast_2d(np.corrcoef(scores, rowvar=False)), spec, constructs)


def fit(matrix, block_index, spec, tol=1e-6, max_iter=300):
    """Weights, scores, loadings, paths, R squared and convergence, as a dict."""
    names = spec.block_names()
    index = {name: i for i, name in enumerate(names)}
    blocks = [matrix[:, slice(*block_index[name])] for name in names]
    modes = [block.mode for block in spec.blocks]
    preds = [[index[p] for p in spec.predecessors(name)] for name in names]
    succs = [[index[s] for s in spec.successors(name)] for name in names]
    n = matrix.shape[0]
    for i, name in enumerate(names):
        if modes[i] == "formative" and np.linalg.cond(blocks[i].T @ blocks[i] / n) > 1e12:
            raise EstimationError(f"singular system in formative block '{name}'")

    def settle(i, w):  # unit score variance, then a non-negative loading sum
        std = (blocks[i] @ w).std()
        if std <= 1e-12:
            raise EstimationError(f"degenerate score variance in block '{names[i]}'")
        w = w / std
        return -w if (blocks[i].T @ (blocks[i] @ w)).sum() < 0 else w

    weights = [settle(i, np.ones(block.shape[1])) for i, block in enumerate(blocks)]
    converged = False
    for _ in range(max_iter):
        scores = np.column_stack([block @ w for block, w in zip(blocks, weights)])
        e = _inner_weights(scores.T @ scores / n, spec.scheme, preds, succs, names)
        proxies = scores @ e.T
        new = list(weights)
        for i, block in enumerate(blocks):
            if modes[i] not in UNIT_MODES:
                cov = block.T @ proxies[:, i] / n
                w = np.linalg.solve(block.T @ block / n, cov) if modes[i] == "formative" else cov
                new[i] = settle(i, w)
        delta = max(float(np.max(np.abs(a - b))) for a, b in zip(new, weights))
        weights = new
        if delta < tol:
            converged = True
            break
    scores = np.column_stack([block @ w for block, w in zip(blocks, weights)])
    loadings = {
        name: np.corrcoef(np.column_stack([block, scores[:, i]]), rowvar=False)[:-1, -1]
        for i, (name, block) in enumerate(zip(names, blocks))
    }
    paths, r_squared = path_coefficients(scores, spec, names)
    return {"weights": dict(zip(names, weights)), "scores": scores, "loadings": loadings,
            "paths": paths, "r_squared": r_squared, "converged": converged}


def _aligned(f, reference):
    flips = {name: -1.0 if w @ reference["weights"][name] < 0 else 1.0
             for name, w in f["weights"].items()}
    return {**f, "scores": f["scores"] * np.array(list(flips.values())),
            "loadings": {name: lam * flips[name] for name, lam in f["loadings"].items()},
            "paths": {(s, t): v * flips[s] * flips[t] for (s, t), v in f["paths"].items()}}


def replicates(data, spec, b, seed=0, tol=1e-6, max_iter=300):
    """Per-replicate (paths, loadings, cyclic paths) or failure message, in order."""
    ref = fit(data.matrix, data.block_index, spec, tol, max_iter)
    if spec.cyclic is not None:
        source, width = spec.cyclic.source, data.matrix.shape[1]
        step2_spec = build_feedback_model(types.SimpleNamespace(constructs=spec.block_names()), spec)
        index2 = {source: (width, width + 1), **{t: data.block_index[t] for t in spec.cyclic.targets}}
        score = ref["scores"][:, spec.block_names().index(source)]
        ref2 = fit(np.column_stack([data.matrix, score]), index2, step2_spec, tol, max_iter)
    n = data.matrix.shape[0]
    out = []
    for r in range(b):
        x = data.matrix[_replicate_rng(seed, r).integers(0, n, size=n)]
        try:
            if np.any(x.std(axis=0) <= 1e-12):
                raise DataError("zero variance in a resampled column")
            x = (x - x.mean(axis=0)) / x.std(axis=0)
            f = fit(x, data.block_index, spec, tol, max_iter)
            if not f["converged"]:
                raise EstimationError("replicate weights did not converge")
            f, cyclic = _aligned(f, ref), {}
            if spec.cyclic is not None:
                score = f["scores"][:, spec.block_names().index(source)]
                g = fit(np.column_stack([x, score]), index2, step2_spec, tol, max_iter)
                if not g["converged"]:
                    raise EstimationError(f"step-2 estimation did not converge in {max_iter} iterations")
                cyclic = _aligned(g, ref2)["paths"]
        except (DataError, EstimationError, np.linalg.LinAlgError) as exc:
            out.append(str(exc))
            continue
        out.append((f["paths"], f["loadings"], cyclic))
    return out


def assess(fit, data, boot=None):
    """The reliability battery with every block statistic taken from the block's rows."""
    rows = []
    for name in fit.constructs:
        mode, lam = fit.modes[name], fit.loadings[name]
        lo, hi = data.block_index[name]
        p = hi - lo
        indicator_names = data.columns[lo:hi]
        exempt = mode in UNIT_MODES or p < 2
        if exempt or mode == "formative":
            flag = a.FLAG_EXEMPT if exempt else a.FLAG_NA
            indicators = tuple(
                a.IndicatorReliability(col, float(lam[j]), a._indicator_ci(boot, name, col), flag)
                for j, col in enumerate(indicator_names)
            )
            rows.append(a.ConstructReliability(
                name, mode, None, None, None, None, None, None, indicators,
                {key: flag for key in ("alpha", "composite_reliability", "dijkstra_rho_a",
                                       "ave", "unidimensionality")}))
            continue
        corr = np.corrcoef(data.matrix[:, lo:hi], rowvar=False)
        alpha = p / (p - 1) * (1.0 - p / corr.sum())
        cr, ave_value = a.composite_reliability(lam), a.ave(lam)
        rho_a = a.dijkstra_rho_a(fit.weights[name], corr)
        eig = np.linalg.eigvalsh(corr)
        eig1, eig2 = float(eig[-1]), float(eig[-2])
        indicators = tuple(
            a.IndicatorReliability(col, float(lam[j]), a._indicator_ci(boot, name, col),
                                   a.threshold_flag(float(lam[j]), a.LOADING_THRESHOLD))
            for j, col in enumerate(indicator_names)
        )
        flags = {
            "alpha": a.threshold_flag(alpha, a.ALPHA_THRESHOLD),
            "composite_reliability": a.threshold_flag(cr, a.CR_THRESHOLD),
            "dijkstra_rho_a": a.threshold_flag(rho_a, a.RHO_A_THRESHOLD),
            "ave": a.threshold_flag(ave_value, a.AVE_THRESHOLD),
            "unidimensionality": a.FLAG_PASS if eig1 > 1.0 and eig2 < 1.0 else a.FLAG_FAIL,
        }
        rows.append(a.ConstructReliability(
            name, mode, float(alpha), cr, rho_a, ave_value, eig1, eig2, indicators, flags))
    return a.ReliabilityReport(tuple(rows))
