"""Bootstrap standard errors and percentile confidence intervals.

Each replicate draws rows with replacement and re-runs the full pipeline on
the resample's indicator correlation matrix: the PLS fit and, when given the
point step-2 fit, both steps of the feedback estimator, each as one stacked
fit of the single stack of all B matrices. A replicate's coefficients are
recorded sign-aligned against the given point fits, by one sign per block,
preventing the arbitrary orientation of composite scores from inflating the
spread. Replicate r draws from a counter-based generator keyed by (seed, r),
so results do not depend on execution order.

The drawn rows are never copied. A forked child, where that pays, computes
the back half of the B replicates as this process computes the front one;
both run one BLAS thread, and the caller's count is restored after.
Pieces of replicates bound the count matrix only: each keeps its per-row draw
counts as one count matrix C (replicates x rows) of 4-bit counts, two rows a
byte; for each block of rows, one GEMM multiplies C, unpacked to float64, by
the rows and their products x_i*x_j (i <= j), summing every replicate's first
and second moments, and each covariance is then M2/n - m m', written into the
replicate's place in the stack. A replicate with a nearly constant column, or
a row drawn more than 15 times, takes the exact centred moments of
``_resampled_moments``, which make every zero-variance decision.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os
import re
from collections import Counter
from dataclasses import dataclass
from functools import cache

import numpy as np

from .cyclic import CyclicFit, _fit_step2
from .dataset import PreparedData, _forked, _receive
from .errors import DataError, EstimationError
from .modelspec import ModelSpec
from .plscore import DEFAULT_MAX_ITER, DEFAULT_TOL, PlsFit, _fit_stack

MIN_REPLICATES = 100
MAX_FAILURE_RATE = 0.05

# A piece of (_COUNT_BUFFER_BYTES // n + 1) // 2 replicates packs its counts two
# rows a byte, in about a quarter of this. _ROW_BLOCK_BYTES bounds one row block's
# products and float counts (a block that stays in cache is the fastest).
_COUNT_BUFFER_BYTES = 16 << 20
_ROW_BLOCK_BYTES = 1 << 19

# A forked child computes half the replicate moments where they take this many
# multiply-adds; on a 2-vCPU Xeon the fork broke even at 0.8e8 to 1.6e8
_FORK_WORK = 2e8
# the variables from which a BLAS takes its thread count as it loads
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A replicate goes to the exact path when a column's batched variance is at
# or below this share of max(its mean square, 1). The batched variance sums
# non-negative terms, so it is off by at most about 3*n*eps of that scale
# (under 7e-8 for n below 1e8). A replicate that stays batched thus has every
# variance above 0.999e-3, far from the exact path's std <= 1e-12 test, and
# M2/n - m m' loses at most three digits to cancellation.
_VARIANCE_CUT = 1e-3

_UINT64_MASK = (1 << 64) - 1
_ZERO_VARIANCE = "zero variance in a resampled column"


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

    Each coefficient's ``replicates`` is one row of a single (coefficients x
    successful replicates) matrix: paths, then loadings block by block, then
    cyclic paths. A replicate's values are aligned by one sign per block: -1
    where the block's weights point away from the original fit's.
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


def _resampled_moments(data: PreparedData, counts: np.ndarray) -> np.ndarray:
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
        raise DataError(_ZERO_VARIANCE)
    return cov / np.outer(std, std)


def _unpacked(counts: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The float64 counts of rows [lo, hi) of each replicate of ``counts``,
    which holds row 2j in the low and row 2j+1 in the high 4 bits of byte j."""
    pairs = counts[:, lo // 2:(hi + 1) // 2]
    nibbles = np.empty((*pairs.shape, 2), np.uint8)
    np.bitwise_and(pairs, 15, out=nibbles[..., 0])
    np.right_shift(pairs, 4, out=nibbles[..., 1])
    rows = nibbles.reshape(len(counts), 2 * pairs.shape[1])[:, lo % 2:]
    return rows[:, : hi - lo].astype(np.float64)


def _batched_correlations(data: PreparedData, counts: np.ndarray, size: int,
                          corr: np.ndarray) -> np.ndarray:
    """Write the correlation matrix of each replicate of the packed ``counts``
    into ``corr``, and return which of them hold.

    A replicate whose smallest column variance is not clearly above rounding
    is marked as not holding; its matrix is then meaningless. The row blocks
    are those of a ``size``-replicate count matrix.
    """
    x = data.matrix
    n, p = x.shape
    upper = np.triu_indices(p)
    width = p + len(upper[0])
    rows = max(1, _ROW_BLOCK_BYTES // (8 * (width + size)))
    sums = np.zeros((len(counts), width))
    block = np.empty((min(rows, n), width))
    for lo in range(0, n, rows):
        xb = x[lo:lo + rows]
        zb = block[: len(xb)]
        zb[:, :p] = xb
        # the products are formed a column pair to a row, which the gathers copy whole;
        # the GEMM still reads them C-ordered, as OpenBLAS's small-matrix kernels
        # round a transposed operand differently
        xt = np.ascontiguousarray(xb.T)
        pairs = xt[upper[0]]
        pairs *= xt[upper[1]]
        zb[:, p:] = pairs.T
        sums += _unpacked(counts, lo, lo + len(xb)) @ zb
    sums /= n
    corr[:, upper[0], upper[1]] = corr[:, upper[1], upper[0]] = sums[:, p:]
    scale = np.maximum(np.diagonal(corr, axis1=1, axis2=2), 1.0)
    corr -= sums[:, :p, None] * sums[:, None, :p]
    var = np.diagonal(corr, axis1=1, axis2=2)
    holds = np.all(var > _VARIANCE_CUT * scale, axis=1)
    std = np.sqrt(np.where(holds[:, None], var, 1.0))
    corr /= std[:, :, None] * std[:, None, :]
    return holds


def _half_moments(data: PreparedData, seed: int, first: int, last: int, size: int,
                  corr: np.ndarray) -> None:
    """Write the correlation matrices of replicates [first, last) into their rows of
    ``corr``, in pieces of at most (size + 1) // 2 replicates with the row blocks of a
    ``size``-replicate count matrix; NaN where one has a zero variance."""
    n, piece = data.matrix.shape[0], (size + 1) // 2
    buffer = np.empty((piece, (n + 1) // 2), np.uint8)  # two rows a byte
    for start in range(first, last, piece):
        stop = min(start + piece, last)
        counts, part = buffer[: stop - start], corr[start:stop]
        wide = {}
        for i in range(len(counts)):
            drawn = np.bincount(_replicate_rng(seed, start + i).integers(0, n, size=n), minlength=n)
            if drawn.max() > 15:  # wraps in 4 bits
                wide[i] = drawn
            nibbles = drawn.astype(np.uint8)
            counts[i] = nibbles[0::2]
            counts[i, : n // 2] |= nibbles[1::2] << 4
            del drawn, nibbles  # before the next draw; wide keeps its own reference
        holds = _batched_correlations(data, counts, size, part)
        for i in range(len(counts)):
            if i in wide or not holds[i]:
                try:
                    part[i] = _resampled_moments(
                        data, wide[i] if i in wide else _unpacked(counts[i:i + 1], 0, n)[0])
                except DataError:
                    part[i] = np.nan


@cache
def _blas_thread_calls():
    """The get and set thread-count calls of the OpenBLAS in numpy's wheel, or None
    where numpy has none. Their library's path is private to the wheel."""
    libs = os.path.join(glob.escape(os.path.dirname(np.__file__)), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        with contextlib.suppress(OSError, AttributeError):
            lib = ctypes.CDLL(path)  # numpy's own copy, already loaded
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block at one BLAS thread and give the caller back its count after; yield
    whether BLAS runs one thread in it, which without numpy's OpenBLAS only the
    environment can say. Beside a forked child, BLAS threads spin against it (on two
    CPUs the paper-shape B = 500 took several times as long), and the GEMMs' bits
    depend on their count."""
    calls = _blas_thread_calls()
    if calls is None:
        yield any(os.environ.get(name) == "1" for name in _BLAS_THREAD_VARIABLES)
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def _replicate_moments(data: PreparedData, seed: int, b: int) -> tuple[np.ndarray, list]:
    """The (b, p, p) stack of replicate correlation matrices in r order, and their
    failures: None, or the message of a replicate whose exact moments have a zero
    variance. Replicates [b // 2, b) are a forked child's where that pays; each half
    takes the same pieces wherever it runs, so the bits never depend on the CPU count."""
    n, p = data.matrix.shape
    size, mid = max(1, min(b, _COUNT_BUFFER_BYTES // n)), b // 2
    corr = np.empty((b, p, p))
    back = corr[mid:]  # in a child, a view of its own copy
    pays = b * n * (p + p * (p + 1) // 2 + 128) >= _FORK_WORK  # a draw: ~128 of them
    with _one_blas_thread() as single, _forked(
        lambda: _half_moments(data, seed, mid, b, size, corr) or [back], pays and single
    ) as pipe:
        _half_moments(data, seed, 0, mid, size, corr)
        if pipe is None or not _receive(pipe, back):
            _half_moments(data, seed, mid, b, size, corr)
    return corr, [_ZERO_VARIANCE if failed else None for failed in np.isnan(corr[:, 0, 0])]


def _stats(estimate: float, reps: np.ndarray, level: float) -> CoefficientStats:
    ci = percentile_ci(reps, level)
    return CoefficientStats(
        estimate=float(estimate),
        replicates=reps,
        se=float(np.std(reps, ddof=1)),
        ci=ci,
        significant=not (ci[0] <= 0.0 <= ci[1]),
    )


def bootstrap(
    data: PreparedData,
    spec: ModelSpec,
    b: int,
    level: float = 0.95,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    fit: PlsFit,
    cyclic: CyclicFit | None = None,
) -> BootstrapResult:
    """Bootstrap the pipeline with B row-resamples of size n_effective.

    Estimates and sign alignment come from the converged point ``fit`` and,
    if given, ``cyclic``, its step 2, which the replicates then run too;
    neither is refitted. Replicates that fail (singular systems, degenerate
    resampled columns, step-2 failures) are skipped and counted; a failure
    rate above 5% raises EstimationError with a tally of the failures by
    reason and the last failure's diagnostic.
    Deterministic given the seed.
    """
    if b < MIN_REPLICATES:
        raise ValueError(f"bootstrap needs at least {MIN_REPLICATES} replicates, got {b}")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if not fit.converged:
        raise EstimationError(f"weights did not converge within {fit.iterations} iterations")

    # one row per coefficient: paths, loadings block by block, cyclic paths
    names = fit.constructs
    loading_keys = [(name, col) for name in names
                    for col in data.columns[slice(*data.block_index[name])]]
    cyclic0 = cyclic.cyclic_paths if cyclic is not None else {}
    keys = [*fit.paths, *loading_keys, *cyclic0]
    estimates = [*fit.paths.values(), *np.concatenate([*fit.loadings.values()]), *cyclic0.values()]

    # one alignment sign per block of the fit, then of step 2; member[j, i] is 1
    # when weight column j belongs to block i
    fits = [fit] if cyclic is None else [fit, cyclic.step2_fit]
    reference = [w for point in fits for w in point.weights.values()]
    member = np.eye(len(reference))[np.repeat(np.arange(len(reference)), list(map(len, reference)))]
    reference = np.concatenate(reference)
    sources = np.array([names.index(s) for s, _ in fit.paths], int)
    targets = np.array([names.index(t) for _, t in fit.paths], int)
    source = names.index(cyclic.step2_spec.blocks[0].name) if cyclic is not None else None
    corr, failures = _replicate_moments(data, seed, b)
    weights, loadings, paths, _, _, done = _fit_stack(corr, spec, data.block_index, tol, max_iter,
                                                      failures)
    failures = [f or (None if d else "replicate weights did not converge")
                for f, d in zip(failures, done)]
    if cyclic is not None:
        source_weights = weights[:, member[: len(loading_keys), source] == 1]
        (weights2, _, paths2, *_), _ = _fit_step2(corr, source_weights, data.block_index,
                                                  cyclic.step2_spec, tol, max_iter, failures)
        weights = np.hstack([weights, weights2])
    # -1.0 for each block whose weights point away from the reference's
    sign = np.where((weights * reference) @ member < 0, -1.0, 1.0)
    column = [paths[:, targets, sources] * sign[:, sources] * sign[:, targets]]
    column.append(loadings * (sign @ member.T)[:, : len(loading_keys)])
    if cyclic is not None:
        # step 2 ran on the unaligned fit: its single-item source makes it
        # exactly sign-equivariant there (negation is exact), so a flipped
        # source leaves the target weights bitwise the same and negates each
        # path; the aligned path is the raw one times the source's step-1
        # sign and the target's step-2 sign
        column.append(paths2[:, 1:, 0] * sign[:, [source]] * sign[:, len(names) + 1:])
    reps = np.hstack(column)[[failure is None for failure in failures]].T
    # a failure's reason is the leading clause of its message
    reasons = Counter(re.split(r":| in ", f, maxsplit=1)[0] for f in failures if f)
    if reasons.total() > MAX_FAILURE_RATE * b:
        tally = ", ".join(f"{reason} {count}" for reason, count in reasons.items())
        raise EstimationError(
            f"bootstrap failure rate {reasons.total()}/{b} exceeds {MAX_FAILURE_RATE:.0%}; "
            f"failures: {tally}; last failure: {next(f for f in reversed(failures) if f)}"
        )

    stats = [_stats(e, r, level) for e, r in zip(estimates, reps)]
    a, c = len(fit.paths), len(fit.paths) + len(loading_keys)
    return BootstrapResult(
        b_requested=b,
        b_effective=reps.shape[1],
        failures=reasons.total(),
        level=level,
        seed=seed,
        paths=dict(zip(keys[:a], stats[:a])),
        loadings=dict(zip(keys[a:c], stats[a:c])),
        cyclic_paths=dict(zip(keys[c:], stats[c:])),
        failure_reasons=dict(reasons),
    )
