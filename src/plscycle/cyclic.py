"""Two-step cyclic feedback estimation and the reinforcement test.

Step 1 fits the sequential model. Step 2 turns the feedback source into a
single-item block whose indicator is its step-1 score column and fits a
separate model containing only the source-to-target edges, re-estimating the
target blocks' outer weights. Each cyclic coefficient is paired with the
direct mirror sequential path for the reinforcement test, a Welch-style
comparison of the two coefficients built from bootstrap standard errors.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dataset import Moments, PreparedData, _forked, _receive
from .errors import EstimationError, ModelError
from .modelspec import BlockSpec, ModelSpec, PathSpec, validate_model
from .plscore import DEFAULT_MAX_ITER, DEFAULT_TOL, PlsFit, _as_fit, _fit_stack

DIRECTIONS = ("ce_gt_se", "se_gt_ce", "two_sided")
ALPHA = 0.05

SCORE_SUFFIX = "__score"


@dataclass(frozen=True)
class CyclicFit:
    """Step-2 feedback coefficients paired with their sequential mirrors."""

    step2_spec: ModelSpec
    step2_fit: PlsFit
    score_column: str
    cyclic_paths: dict[tuple[str, str], float]
    paired_sequential: dict[tuple[str, str], float | None]


@dataclass(frozen=True)
class TestResult:
    """Reinforcement test outcome for one sequential/cyclic coefficient pair."""

    t_statistic: float
    df: int
    p_value: float
    direction: str
    decision: str
    beta_se: float
    beta_ce: float
    sigma_se: float
    sigma_ce: float


def score_column_name(source: str) -> str:
    return f"{source}{SCORE_SUFFIX}"


def build_feedback_model(fit: PlsFit, spec: ModelSpec) -> ModelSpec:
    """Derive the step-2 model from a converged step-1 fit.

    The cyclic source becomes a single-item block measured by its step-1
    score column; every declared target keeps its original block, and the
    inner model holds exactly the source-to-target edges.
    """
    if spec.cyclic is None:
        raise ModelError("no cyclic specification in the model")
    source = spec.cyclic.source
    if source not in fit.constructs:
        raise EstimationError(f"cyclic source score for '{source}' missing from fit")
    blocks = [BlockSpec(name=source, indicators=(score_column_name(source),), mode="single-item")]
    for target in spec.cyclic.targets:
        blocks.append(spec.block(target))
    paths = tuple(PathSpec(source=source, target=t) for t in spec.cyclic.targets)
    return ModelSpec(blocks=tuple(blocks), paths=paths, cyclic=None, scheme=spec.scheme)


def estimate_cyclic(
    data: PreparedData | Moments,
    fit: PlsFit,
    spec: ModelSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CyclicFit:
    """Fit the step-2 feedback model and pair coefficients with step-1 mirrors.

    The step-1 source score borders the correlation matrix of the targets'
    prepared columns as a new row and column (an
    mca-single-item target is its collapsed score column), so the step-2 fit
    runs on moments alone, whatever the input. Pairing uses
    the direct sequential edge target -> source when present; otherwise the
    pair is left without a mirror and ``reinforcement_tests`` skips it. Never
    mutates the step-1 fit or the input data.
    """
    report = validate_model(spec)
    if not report.ok:
        raise ModelError("; ".join(report.violations))
    step2_spec = build_feedback_model(fit, spec)
    source = spec.cyclic.source
    column = score_column_name(source)
    if column in data.columns:
        raise EstimationError(f"column name '{column}' collides with a data column")
    failures: list[str | None] = [None]
    step2, block_index = _fit_step2(data.corr[None], fit.weights[source][None], data.block_index,
                                    step2_spec, tol, max_iter, failures)
    if failures[0] is not None:
        raise EstimationError(failures[0])
    step2_fit = _as_fit(step2_spec, block_index, step2)
    targets = spec.cyclic.targets
    return CyclicFit(
        step2_spec=step2_spec, step2_fit=step2_fit, score_column=column,
        cyclic_paths={(source, t): step2_fit.paths[(source, t)] for t in targets},
        paired_sequential={(source, t): fit.paths.get((t, source)) for t in targets},
    )


def _fit_step2(corr: np.ndarray, weights: np.ndarray, block_index: dict[str, tuple[int, int]],
               step2_spec: ModelSpec, tol: float, max_iter: int,
               failures: list[str | None]) -> tuple:
    """Step 2 on a stack of R, given each one's step-1 source weights (m, s).

    The step-2 stack is at its own width: the source score is its first row
    and column, then come the targets' columns in ``step2_spec`` order, so
    ``_fit_stack`` reads it in place. A replicate whose step 2 does not
    converge fails. Returns the ``_fit_stack`` result and the step-2 index.
    """
    source, *targets = step2_spec.block_names()
    lo, hi = block_index[source]
    # the score's covariance with every column is R[:, source] w_source, and
    # its own variance is w_source' R w_source
    cov = (corr[:, :, lo:hi] @ weights[..., None])[..., 0]
    columns, index = [lo], {source: (0, 1)}  # lo holds the score's place
    for t in targets:
        index[t] = (len(columns), len(columns) + block_index[t][1] - block_index[t][0])
        columns.extend(range(*block_index[t]))
    stack = np.ascontiguousarray(corr[:, np.array(columns)[:, None], columns])
    stack[:, 0, 1:] = stack[:, 1:, 0] = cov[:, columns[1:]]
    stack[:, 0, 0] = (cov[:, None, lo:hi] @ weights[..., None])[:, 0, 0]
    step2 = _fit_stack(stack, step2_spec, index, tol, max_iter, failures)
    failed = f"step-2 estimation did not converge in {max_iter} iterations"
    failures[:] = [f or (None if done else failed) for f, done in zip(failures, step2[5])]
    return step2, index


def t_cdf(df: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Student's t distribution function ``stdtr(df, x)``. Until ``scipy.special``
    is loaded, a forked child takes it from ``_stdtr``, so this process loads no scipy."""
    cdf = np.empty_like(x)
    with _forked(lambda: [_stdtr()(df, x)], "scipy.special" not in sys.modules) as pipe:
        if pipe is not None and _receive(pipe, cdf):
            return cdf
    from scipy.special import stdtr  # not scipy.stats, which takes a second more to import
    return stdtr(df, x)


def _stdtr():
    """``scipy.special.stdtr`` from its extension module alone, in about 20 ms against
    the package's quarter second. The module entries added for it are removed after."""
    spec = importlib.util.find_spec("scipy.special")  # imports scipy alone
    loaded = set(sys.modules)
    sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)  # its __init__ not run
    try:
        return importlib.import_module("scipy.special._ufuncs").stdtr
    finally:
        for name in set(sys.modules) - loaded:
            del sys.modules[name]


def reinforcement_tests(
    cyc: CyclicFit, boot, n: int, direction: str = "ce_gt_se"
) -> dict[tuple[str, str], TestResult | str]:
    """The reinforcement test of every cyclic pair, or the reason it is skipped.

    Each cyclic coefficient source -> target is compared with its mirror
    target -> source using the bootstrap standard errors of both (``boot`` is
    a ``BootstrapResult`` of the cyclic model). A pair without a direct
    mirror, or whose standard errors cannot be tested, maps to its skip
    reason. The tails come from one ``t_cdf`` call.
    """
    tests, testable = {}, {}
    for pair, beta_ce in cyc.cyclic_paths.items():
        source, target = pair
        beta_se = cyc.paired_sequential[pair]
        if beta_se is None:
            tests[pair] = f"no direct sequential path {target} -> {source}"
            continue
        sigmas = boot.paths[(target, source)].se, boot.cyclic_paths[pair].se
        if problem := _why_untestable(*sigmas):
            tests[pair] = f"test not computable: {problem}"
        else:
            tests[pair] = testable[pair] = (beta_se, beta_ce, *sigmas)  # holds its place
    pairs = np.array(list(testable.values()), dtype=np.float64).reshape(-1, 4).T
    tests.update(zip(testable, _welch(pairs, n, direction)))
    return tests


def reinforcement_test(
    beta_se: float,
    beta_ce: float,
    sigma_se: float,
    sigma_ce: float,
    n: int,
    direction: str = "ce_gt_se",
) -> TestResult:
    """Compare a sequential and a cyclic coefficient via bootstrap errors.

    t = |beta_se - beta_ce| / sqrt(((n-1)/n) (sigma_se^2 + sigma_ce^2)), with
    Welch-Satterthwaite style degrees of freedom truncated to an integer:
    df = floor(
        (((n-1)/n) (sigma_se^2 + sigma_ce^2))^2
        / (((n-1)/n^2) (sigma_se^4 + sigma_ce^4))
    ),
    which reduces to exactly 2(n-1) when the two errors are equal. The
    one-sided p uses the signed difference, so equal coefficients give
    p = 0.5; ``two_sided`` doubles the upper tail of |t|.
    """
    if problem := _why_untestable(sigma_se, sigma_ce):
        raise ValueError(problem)
    return _welch(np.array([beta_se, beta_ce, sigma_se, sigma_ce], float)[:, None], n, direction)[0]


def _why_untestable(*sigmas: float) -> str | None:
    if not all(map(math.isfinite, sigmas)):
        return "standard errors must be finite"
    return "standard errors must be positive" if min(sigmas) <= 0 else None


def _welch(pairs: np.ndarray, n: int, direction: str) -> list[TestResult]:
    """The test of each column of ``pairs``: beta_se, beta_ce, sigma_se and sigma_ce."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction '{direction}'")
    if n < 2:
        raise ValueError("n must be at least 2")
    beta_se, beta_ce, sigma_se, sigma_ce = pairs
    var_se, var_ce = sigma_se**2, sigma_ce**2
    pooled = (n - 1) / n * (var_se + var_ce)
    t = np.abs(beta_se - beta_ce) / np.sqrt(pooled)
    a, c = (pairs[2:] / pairs[2:].max(0)) ** 2  # scale-free, so no fourth power overflows
    ratio = ((n - 1) / n * (a + c)) ** 2 / (((n - 1) / n**2) * (a**2 + c**2))
    # guard the floor against float rounding at integer boundaries, so the
    # equal-sigma case lands exactly on 2(n-1)
    df = np.maximum(1.0, np.floor(ratio * (1.0 + 1e-12) + 1e-9))
    # stdtr(df, -s) is how scipy.stats.t.sf(s, df) takes the upper tail at the
    # signed difference s; negating a difference or a quotient is exact
    diff = beta_se - beta_ce if direction == "ce_gt_se" else beta_ce - beta_se
    x = -t if direction == "two_sided" else diff / np.sqrt(pooled)
    cdf = t_cdf(df, x) if x.size else x
    p = 2.0 * cdf if direction == "two_sided" else cdf
    return [
        TestResult(float(t_k), int(df_k), float(p_k), direction,
                   "reject" if p_k < ALPHA else "retain", *map(float, column))
        for t_k, df_k, p_k, column in zip(t, df, p, pairs.T)
    ]
