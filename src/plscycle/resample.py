"""Bootstrap standard errors and percentile confidence intervals.

Each replicate draws rows with replacement and re-runs the full pipeline on
the resample's indicator correlation matrix: the PLS fit and, when the model
has a cyclic section, both steps of the feedback estimator. Replicate weight
vectors are sign-aligned against the original sample before anything is
recorded, preventing the arbitrary orientation of composite scores from
inflating the spread. Replicate r draws from a counter-based generator keyed
by (seed, r), so results do not depend on execution order.

The drawn rows are never copied. A chunk of replicates keeps its per-row
draw counts as one uint8 count matrix C (replicates x rows); for each block
of rows, one GEMM multiplies C by the rows and their pairwise products
x_i*x_j (i <= j), which sums every replicate's first and second moments at
once, and each replicate's covariance is then M2/n - m m'. A replicate with
a nearly constant column, or a row drawn more than 255 times, takes the
exact centred moments of ``_resampled_moments`` instead, which make every
zero-variance decision.
"""

from __future__ import annotations

import dataclasses
import math
import re
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .cyclic import CyclicFit, estimate_cyclic
from .dataset import Moments, PreparedData
from .errors import DataError, EstimationError
from .modelspec import ModelSpec
from .plscore import DEFAULT_MAX_ITER, DEFAULT_TOL, PlsFit, fit_pls

MIN_REPLICATES = 100
MAX_FAILURE_RATE = 0.05

# Memory bound of a chunk's uint8 count matrix, and of one row block's
# products and float counts (a block that stays in cache is the fastest).
_COUNT_BUFFER_BYTES = 16 << 20
_ROW_BLOCK_BYTES = 1 << 19

# A replicate goes to the exact path when a column's batched variance is at
# or below this share of max(its mean square, 1). The batched variance sums
# non-negative terms, so it is off by at most about 3*n*eps of that scale
# (under 7e-8 for n below 1e8). A replicate that stays batched thus has every
# variance above 0.999e-3, far from the exact path's std <= 1e-12 test, and
# M2/n - m m' loses at most three digits to cancellation.
_VARIANCE_CUT = 1e-3

_UINT64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class CoefficientStats:
    """Replicate vector and derived interval statistics for one coefficient."""

    estimate: float
    replicates: np.ndarray
    se: float
    ci: tuple[float, float]
    significant: bool


@dataclass(frozen=True)
class BootstrapResult:
    """Per-coefficient bootstrap summaries over B replicates.

    ``failure_reasons`` counts the failed replicates by the leading clause of
    their message, e.g. ``{"zero variance": 3}``.
    """

    b_requested: int
    b_effective: int
    failures: int
    level: float
    seed: int
    paths: dict[tuple[str, str], CoefficientStats]
    loadings: dict[tuple[str, str], CoefficientStats]
    cyclic_paths: dict[tuple[str, str], CoefficientStats]
    failure_reasons: dict[str, int]


def percentile_ci(replicates: np.ndarray, level: float) -> tuple[float, float]:
    """Nearest-rank percentile interval at the given confidence level.

    Lower bound at quantile (1-level)/2, upper at 1-(1-level)/2; the
    nearest-rank rule picks order statistic ceil(q*m), clamped to [1, m].
    """
    reps = np.sort(np.asarray(replicates, dtype=np.float64))
    if reps.size == 0:
        raise ValueError("replicates must be non-empty")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    m = reps.size

    def rank(q: float) -> int:
        # small epsilon keeps q*m from drifting across an integer boundary
        return max(1, min(m, math.ceil(q * m - 1e-9)))

    lower = (1.0 - level) / 2.0
    return float(reps[rank(lower) - 1]), float(reps[rank(1.0 - lower) - 1])


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    key = np.array([seed & _UINT64_MASK, replicate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _resampled_moments(data: PreparedData, counts: np.ndarray) -> Moments:
    """Correlation matrix of the rows drawn ``counts`` times each.

    Centring before squaring leaves a column that the draw made constant with
    zero variance up to rounding, as in the resampled rows themselves.
    """
    n = len(counts)
    centred = data.matrix - counts @ data.matrix / n
    centred *= np.sqrt(counts)[:, None]
    cov = centred.T @ centred / n
    std = np.sqrt(np.diag(cov))
    if np.any(std <= 1e-12):
        raise DataError("zero variance in a resampled column")
    return Moments(cov / np.outer(std, std), data.block_index, data.columns)


def _batched_correlations(data: PreparedData, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Correlation matrices for each row of ``counts``, and which of them hold.

    A replicate whose smallest column variance is not clearly above rounding
    is marked as not holding; its matrix is then meaningless.
    """
    x = data.matrix
    n, p = x.shape
    upper = np.triu_indices(p)
    width = p + len(upper[0])
    rows = max(1, _ROW_BLOCK_BYTES // (8 * (width + len(counts))))
    sums = np.zeros((len(counts), width))
    block = np.empty((min(rows, n), width))
    for lo in range(0, n, rows):
        xb = x[lo:lo + rows]
        zb = block[: len(xb)]
        zb[:, :p] = xb
        np.multiply(xb[:, upper[0]], xb[:, upper[1]], out=zb[:, p:])
        sums += counts[:, lo:lo + rows] @ zb
    sums /= n
    cov = np.empty((len(counts), p, p))
    cov[:, upper[0], upper[1]] = cov[:, upper[1], upper[0]] = sums[:, p:]
    scale = np.maximum(np.diagonal(cov, axis1=1, axis2=2), 1.0)
    cov -= sums[:, :p, None] * sums[:, None, :p]
    var = np.diagonal(cov, axis1=1, axis2=2)
    holds = np.all(var > _VARIANCE_CUT * scale, axis=1)
    std = np.sqrt(np.where(holds[:, None], var, 1.0))
    return cov / (std[:, :, None] * std[:, None, :]), holds


def _replicate_moments(data: PreparedData, seed: int, b: int) -> Iterator[Moments | np.ndarray]:
    """Each replicate's Moments in r order, or its counts where the exact path decides."""
    n = data.matrix.shape[0]
    buffer = np.empty((max(1, min(b, _COUNT_BUFFER_BYTES // n)), n), np.uint8)
    for start in range(0, b, len(buffer)):
        counts = buffer[: min(len(buffer), b - start)]
        wide = {}
        for i in range(len(counts)):
            drawn = np.bincount(_replicate_rng(seed, start + i).integers(0, n, size=n), minlength=n)
            counts[i] = drawn
            if drawn.max() > 255:  # wrapped in the buffer
                wide[i] = drawn
        corr, holds = _batched_correlations(data, counts)
        for i in range(len(counts)):
            if i in wide or not holds[i]:
                yield wide.get(i, counts[i].astype(np.intp))
            else:
                yield Moments(corr[i], data.block_index, data.columns)


def _aligned_fit(fit: PlsFit, reference: dict[str, np.ndarray]) -> PlsFit:
    """Flip replicate blocks whose weights point away from the original's."""
    flips = {
        name: -1.0 if float(fit.weights[name] @ reference[name]) < 0 else 1.0
        for name in fit.constructs
    }
    if all(f == 1.0 for f in flips.values()):
        return fit
    return dataclasses.replace(
        fit,
        weights={n: fit.weights[n] * flips[n] for n in fit.constructs},
        loadings={n: fit.loadings[n] * flips[n] for n in fit.constructs},
        paths={(s, t): v * flips[s] * flips[t] for (s, t), v in fit.paths.items()},
    )


def _loadings_by_column(fit: PlsFit, data: PreparedData) -> dict[tuple[str, str], float]:
    """Each loading keyed by (construct, indicator column)."""
    return {
        (name, col): float(fit.loadings[name][j])
        for name in fit.constructs
        for j, col in enumerate(data.columns[slice(*data.block_index[name])])
    }


def _collect(
    estimates: dict, replicate_values: dict, level: float
) -> dict[tuple[str, str], CoefficientStats]:
    out: dict[tuple[str, str], CoefficientStats] = {}
    for key, values in replicate_values.items():
        reps = np.asarray(values, dtype=np.float64)
        ci = percentile_ci(reps, level)
        out[key] = CoefficientStats(
            estimate=float(estimates[key]),
            replicates=reps,
            se=float(np.std(reps, ddof=1)),
            ci=ci,
            significant=not (ci[0] <= 0.0 <= ci[1]),
        )
    return out


def bootstrap(
    data: PreparedData,
    spec: ModelSpec,
    b: int,
    level: float = 0.95,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BootstrapResult:
    """Bootstrap the pipeline with B row-resamples of size n_effective.

    Point estimates always come from the original sample and are never
    altered here. Replicates that fail (singular systems, degenerate
    resampled columns, step-2 failures) are skipped and counted; a failure
    rate above 5% raises EstimationError with a tally of the failures by
    reason and the last failure's diagnostic.
    Deterministic given the seed.
    """
    if b < MIN_REPLICATES:
        raise ValueError(f"bootstrap needs at least {MIN_REPLICATES} replicates, got {b}")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")

    # refit the point estimates on moments: nothing here reads their scores
    moments = data.moments()
    fit0 = fit_pls(moments, spec, tol=tol, max_iter=max_iter)
    if not fit0.converged:
        raise EstimationError(
            f"weights did not converge within {max_iter} iterations"
        )
    cyc0: CyclicFit | None = None
    if spec.cyclic is not None:
        cyc0 = estimate_cyclic(moments, fit0, spec, tol=tol, max_iter=max_iter)

    path_reps: dict[tuple[str, str], list[float]] = {k: [] for k in fit0.paths}
    loading_estimates = _loadings_by_column(fit0, data)
    loading_reps: dict[tuple[str, str], list[float]] = {k: [] for k in loading_estimates}
    cyclic_reps: dict[tuple[str, str], list[float]] = (
        {k: [] for k in cyc0.cyclic_paths} if cyc0 is not None else {}
    )

    reasons: Counter[str] = Counter()
    last_failure = ""
    for rep_data in _replicate_moments(data, seed, b):
        try:
            if not isinstance(rep_data, Moments):
                rep_data = _resampled_moments(data, rep_data)
            rep_fit = fit_pls(rep_data, spec, tol=tol, max_iter=max_iter)
            if not rep_fit.converged:
                raise EstimationError("replicate weights did not converge")
            rep_fit = _aligned_fit(rep_fit, fit0.weights)
            rep_cyc = None
            if cyc0 is not None:
                rep_cyc = estimate_cyclic(rep_data, rep_fit, spec, tol=tol, max_iter=max_iter)
                step2 = _aligned_fit(rep_cyc.step2_fit, cyc0.step2_fit.weights)
        except (DataError, EstimationError, np.linalg.LinAlgError) as exc:
            last_failure = str(exc)
            reasons[re.split(r":| in ", last_failure, maxsplit=1)[0]] += 1  # leading clause
            continue
        for key in path_reps:
            path_reps[key].append(rep_fit.paths[key])
        for key, value in _loadings_by_column(rep_fit, data).items():
            loading_reps[key].append(value)
        if rep_cyc is not None:
            for key in cyclic_reps:
                cyclic_reps[key].append(step2.paths[key])

    failures = reasons.total()
    if failures > MAX_FAILURE_RATE * b:
        tally = ", ".join(f"{reason} {count}" for reason, count in reasons.items())
        raise EstimationError(
            f"bootstrap failure rate {failures}/{b} exceeds {MAX_FAILURE_RATE:.0%}; "
            f"failures: {tally}; last failure: {last_failure}"
        )

    return BootstrapResult(
        b_requested=b,
        b_effective=b - failures,
        failures=failures,
        level=level,
        seed=seed,
        paths=_collect(fit0.paths, path_reps, level),
        loadings=_collect(loading_estimates, loading_reps, level),
        cyclic_paths=(
            _collect(cyc0.cyclic_paths, cyclic_reps, level) if cyc0 is not None else {}
        ),
        failure_reasons=dict(reasons),
    )
