"""Two-step cyclic feedback estimation and the reinforcement test.

Step 1 fits the sequential model. Step 2 turns the feedback source into a
single-item block whose indicator is its step-1 score column and fits a
separate model containing only the source-to-target edges, re-estimating the
target blocks' outer weights. Each cyclic coefficient is paired with the
direct mirror sequential path for the reinforcement test, a Welch-style
comparison of the two coefficients built from bootstrap standard errors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Moments, PreparedData, _ask
from .errors import EstimationError, ModelError
from .modelspec import BlockSpec, ModelSpec, PathSpec, validate_model
from .plscore import DEFAULT_MAX_ITER, DEFAULT_TOL, PlsFit, fit_pls

DIRECTIONS = ("ce_gt_se", "se_gt_ce", "two_sided")
ALPHA = 0.05

SCORE_SUFFIX = "__score"

# a frozen spec's verdict never changes, and every bootstrap replicate re-checks the point fit's
_validated = functools.lru_cache(maxsize=64)(validate_model)


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

    The step-1 source score joins the indicator correlation matrix as a new
    row and column; target blocks reuse their prepared columns (an
    mca-single-item target is its collapsed score column), so the step-2 fit
    runs on moments alone, whatever the input. Pairing uses
    the direct sequential edge target -> source when present; otherwise the
    pair is left without a mirror and ``reinforcement_tests`` skips it. Never
    mutates the step-1 fit or the input data.
    """
    report = _validated(spec)
    if not report.ok:
        raise ModelError("; ".join(report.violations))
    step2_spec = build_feedback_model(fit, spec)
    source = spec.cyclic.source
    column = score_column_name(source)
    if column in data.columns:
        raise EstimationError(f"column name '{column}' collides with a data column")

    # extend R by the step-1 source score: its covariance with every column is
    # R[:, source] w_source, and its own variance is w_source' R w_source
    lo, hi = data.block_index[source]
    weights = fit.weights[source]
    cov = data.corr[:, lo:hi] @ weights
    corr = np.block([[data.corr, cov[:, None]], [cov, np.atleast_2d(cov[lo:hi] @ weights)]])
    targets = spec.cyclic.targets
    block_index = {source: (len(cov), len(cov) + 1), **{t: data.block_index[t] for t in targets}}
    step2_data = Moments(corr, block_index, data.columns + (column,))
    step2_fit = fit_pls(step2_data, step2_spec, tol=tol, max_iter=max_iter)
    if not step2_fit.converged:
        raise EstimationError(
            f"step-2 estimation did not converge in {max_iter} iterations"
        )
    cyclic_paths = {(source, t): step2_fit.paths[(source, t)] for t in targets}
    paired = {(source, t): fit.paths.get((t, source)) for t in targets}
    return CyclicFit(
        step2_spec=step2_spec,
        step2_fit=step2_fit,
        score_column=column,
        cyclic_paths=cyclic_paths,
        paired_sequential=paired,
    )


def t_cdf(df: np.ndarray, x: np.ndarray, helper=None) -> np.ndarray:
    """Student's t distribution function ``stdtr(df, x)``, from ``helper`` if it answers."""
    answer = np.empty_like(x)
    if helper is not None and _ask(helper, np.concatenate((df, x)), answer):
        return answer
    from scipy.special import stdtr  # not scipy.stats, which takes a second more to import
    return stdtr(df, x)


def t_cdf_helper(request) -> np.ndarray:
    """Forked helper's work: import scipy.special, then answer ``t_cdf(df, x, helper)``."""
    from scipy.special import stdtr
    return stdtr(*np.frombuffer(request()).reshape(2, -1))


def reinforcement_tests(
    cyc: CyclicFit, boot, n: int, direction: str = "ce_gt_se", helper=None
) -> dict[tuple[str, str], TestResult | str]:
    """The reinforcement test of every cyclic pair, or the reason it is skipped.

    Each cyclic coefficient source -> target is compared with its mirror
    target -> source using the bootstrap standard errors of both (``boot`` is
    a ``BootstrapResult`` of the cyclic model). A pair without a direct
    mirror, or whose test cannot be computed, maps to its skip reason. The
    tails come from one ``t_cdf`` call, which ``helper``, a pipe to a forked
    ``t_cdf_helper``, answers if given.
    """
    tests, welch = {}, {}
    for pair, beta_ce in cyc.cyclic_paths.items():
        source, target = pair
        beta_se = cyc.paired_sequential[pair]
        if beta_se is None:
            tests[pair] = f"no direct sequential path {target} -> {source}"
            continue
        sigma_se, sigma_ce = boot.paths[(target, source)].se, boot.cyclic_paths[pair].se
        try:
            tests[pair] = welch[pair] = _welch(beta_se, beta_ce, sigma_se, sigma_ce, n, direction)
        except ValueError as exc:
            tests[pair] = f"test not computable: {exc}"
    if welch:
        _, df, x = np.array(list(welch.values()), dtype=np.float64).T
        for (pair, (t, df_pair, _)), cdf_x in zip(welch.items(), t_cdf(df, x, helper)):
            tests[pair] = _decide(t, df_pair, cdf_x, direction)
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
    t, df, x = _welch(beta_se, beta_ce, sigma_se, sigma_ce, n, direction)
    return _decide(t, df, t_cdf(df, x), direction)


def _welch(beta_se, beta_ce, sigma_se, sigma_ce, n, direction) -> tuple[float, int, float]:
    """t, df and the x whose ``t_cdf(df, x)`` is the p-value, or its half if two-sided."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction '{direction}'")
    if sigma_se <= 0 or sigma_ce <= 0:
        raise ValueError("standard errors must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    c = (n - 1) / n
    var_se = sigma_se**2
    var_ce = sigma_ce**2
    pooled = c * (var_se + var_ce)
    t = abs(beta_se - beta_ce) / math.sqrt(pooled)
    ratio = pooled**2 / (((n - 1) / n**2) * (var_se**2 + var_ce**2))
    # guard the floor against float rounding at integer boundaries, so the
    # equal-sigma case lands exactly on 2(n-1)
    df = max(1, int(math.floor(ratio * (1.0 + 1e-12) + 1e-9)))
    # stdtr(df, -s) is how scipy.stats.t.sf(s, df) takes the upper tail at the
    # signed difference s; negating a difference or a quotient is exact
    diff = beta_se - beta_ce if direction == "ce_gt_se" else beta_ce - beta_se
    return t, df, -t if direction == "two_sided" else diff / math.sqrt(pooled)


def _decide(t: float, df: int, cdf_x, direction: str) -> TestResult:
    p = float(2.0 * cdf_x) if direction == "two_sided" else float(cdf_x)
    decision = "reject" if p < ALPHA else "retain"
    return TestResult(
        t_statistic=float(t), df=df, p_value=p, direction=direction, decision=decision
    )
