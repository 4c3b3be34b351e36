"""Two-step cyclic feedback estimation and the reinforcement test.

Step 1 fits the sequential model. Step 2 turns the feedback source into a
single-item block whose indicator is its step-1 score column and fits a
separate model containing only the source-to-target edges, re-estimating the
target blocks' outer weights. Each cyclic coefficient is paired with the
direct mirror sequential path for the reinforcement test, a Welch-style
comparison of the two coefficients built from bootstrap standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Moments, PreparedData
from .errors import EstimationError, ModelError
from .modelspec import BlockSpec, ModelSpec, PathSpec, validate_model
from .plscore import DEFAULT_MAX_ITER, DEFAULT_TOL, PlsFit, fit_pls

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


def _guard_cyclic(spec: ModelSpec) -> None:
    if spec.cyclic is None:
        raise ModelError("no cyclic specification in the model")
    report = validate_model(spec)
    if not report.ok:
        raise ModelError("; ".join(report.violations))


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
    mca-single-item target is its collapsed score column). On moments alone
    the step-2 fit builds no scores. Pairing uses the direct sequential edge
    target -> source when present; otherwise the pair is left without a
    mirror and the reinforcement test for it is skipped downstream. Never
    mutates the step-1 fit or the input data.
    """
    _guard_cyclic(spec)
    assert spec.cyclic is not None
    source = spec.cyclic.source
    step2_spec = build_feedback_model(fit, spec)
    column = score_column_name(source)
    if column in data.columns:
        raise EstimationError(f"column name '{column}' collides with a data column")

    # extend R by the step-1 source score: its covariance with every column is
    # R[:, source] w_source, and its own variance is w_source' R w_source
    moments = data if isinstance(data, Moments) else data.moments()
    lo, hi = moments.block_index[source]
    weights = fit.weights[source]
    cov = moments.corr[:, lo:hi] @ weights
    corr = np.block([[moments.corr, cov[:, None]], [cov, np.atleast_2d(cov[lo:hi] @ weights)]])
    targets = spec.cyclic.targets
    block_index = {source: (len(cov), len(cov) + 1), **{t: moments.block_index[t] for t in targets}}
    rows = None
    if moments.rows is not None:
        rows = {source: fit.score(source)[:, None], **{t: moments.rows[t] for t in targets}}
    step2_data = Moments(corr, block_index, moments.columns + (column,), rows)
    step2_fit = fit_pls(step2_data, step2_spec, tol=tol, max_iter=max_iter)
    if not step2_fit.converged:
        raise EstimationError(
            f"step-2 estimation did not converge in {max_iter} iterations"
        )
    cyclic_paths = {
        (source, t): step2_fit.paths[(source, t)] for t in spec.cyclic.targets
    }
    paired = {
        (source, t): fit.paths.get((t, source)) for t in spec.cyclic.targets
    }
    return CyclicFit(
        step2_spec=step2_spec,
        step2_fit=step2_fit,
        score_column=column,
        cyclic_paths=cyclic_paths,
        paired_sequential=paired,
    )


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
    # stdtr(df, -x) is how scipy.stats.t.sf(x, df) computes the upper tail;
    # importing scipy.special here, and not scipy.stats at module level, keeps
    # about a second of imports out of every process that runs no test
    from scipy.special import stdtr

    if direction == "two_sided":
        p = float(2.0 * stdtr(df, -t))
    elif direction == "ce_gt_se":
        signed = (beta_ce - beta_se) / math.sqrt(pooled)
        p = float(stdtr(df, -signed))
    else:
        signed = (beta_se - beta_ce) / math.sqrt(pooled)
        p = float(stdtr(df, -signed))
    decision = "reject" if p < ALPHA else "retain"
    return TestResult(
        t_statistic=float(t), df=df, p_value=p, direction=direction, decision=decision
    )
