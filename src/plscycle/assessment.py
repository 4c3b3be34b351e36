"""Reliability and validity battery for the measurement model.

Standardized-item Cronbach's alpha, composite reliability, average variance
extracted, the Dijkstra-Henseler rho_A, and a unidimensionality check on the
block correlation eigenvalues, plus threshold flags. Values within 0.01 below
a threshold are flagged borderline rather than fail. Single-item constructs
are exempt; the reflective battery is not applicable to formative blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PreparedData
from .modelspec import UNIT_MODES
from .plscore import PlsFit

ALPHA_THRESHOLD = 0.7
CR_THRESHOLD = 0.7
RHO_A_THRESHOLD = 0.7
AVE_THRESHOLD = 0.5
LOADING_THRESHOLD = 0.7
BORDERLINE_MARGIN = 0.01

FLAG_PASS = "pass"
FLAG_FAIL = "fail"
FLAG_BORDERLINE = "borderline"
FLAG_EXEMPT = "exempt"
FLAG_NA = "not-applicable"

_INDEX_NAMES = ("alpha", "composite_reliability", "dijkstra_rho_a", "ave", "unidimensionality")


@dataclass(frozen=True)
class IndicatorReliability:
    indicator: str
    loading: float
    ci: tuple[float, float] | None
    flag: str


@dataclass(frozen=True)
class ConstructReliability:
    construct: str
    mode: str
    alpha: float | None
    composite_reliability: float | None
    dijkstra_rho_a: float | None
    ave: float | None
    eig1: float | None
    eig2: float | None
    indicators: tuple[IndicatorReliability, ...]
    flags: dict[str, str]


@dataclass(frozen=True)
class ReliabilityReport:
    constructs: tuple[ConstructReliability, ...]


def cronbach_alpha(block: np.ndarray) -> float:
    """Standardized-item alpha: (p/(p-1)) * (1 - p / sum of correlations)."""
    block = np.asarray(block, dtype=np.float64)
    p = block.shape[1]
    if p < 2:
        raise ValueError("cronbach_alpha needs at least 2 items")
    corr = np.corrcoef(block, rowvar=False)
    return float(p / (p - 1) * (1.0 - p / corr.sum()))


def composite_reliability(loadings: np.ndarray) -> float:
    """CR = (sum lambda)^2 / ((sum lambda)^2 + sum(1 - lambda^2))."""
    lam = np.asarray(loadings, dtype=np.float64)
    if lam.size == 0:
        raise ValueError("composite_reliability needs at least one loading")
    total = lam.sum() ** 2
    return float(total / (total + np.sum(1.0 - lam**2)))


def ave(loadings: np.ndarray) -> float:
    """Average variance extracted: mean squared loading."""
    lam = np.asarray(loadings, dtype=np.float64)
    if lam.size == 0:
        raise ValueError("ave needs at least one loading")
    return float(np.mean(lam**2))


def dijkstra_rho_a(weights: np.ndarray, corr: np.ndarray) -> float:
    """rho_A from unit-variance outer weights and the block correlation matrix.

    rho_A = (w'w)^2 * w'(S - diag S)w / w'(ww' - diag(ww'))w. The weights must
    satisfy w' S w = 1 (unit score variance) within 1e-6.
    """
    w = np.asarray(weights, dtype=np.float64)
    s = np.asarray(corr, dtype=np.float64)
    if w.size < 2:
        raise ValueError("dijkstra_rho_a needs at least 2 items")
    variance = float(w @ s @ w)
    if abs(variance - 1.0) > 1e-6:
        raise ValueError("weights must give unit score variance (w' S w = 1)")
    ww = np.outer(w, w)
    denominator = float(w @ (ww - np.diag(np.diag(ww))) @ w)
    if abs(denominator) < 1e-15:
        raise ValueError("zero off-diagonal weight structure")
    numerator = float(w @ (s - np.diag(np.diag(s))) @ w)
    return float((w @ w) ** 2 * numerator / denominator)


def unidimensionality(block: np.ndarray) -> tuple[float, float, bool]:
    """Two largest eigenvalues of the block correlation matrix.

    Passes when exactly the first exceeds 1 (eig1 > 1 and eig2 < 1).
    """
    block = np.asarray(block, dtype=np.float64)
    if block.shape[1] < 2:
        raise ValueError("unidimensionality needs at least 2 items")
    eig = np.linalg.eigvalsh(np.corrcoef(block, rowvar=False))
    eig1, eig2 = float(eig[-1]), float(eig[-2])
    return eig1, eig2, eig1 > 1.0 and eig2 < 1.0


def threshold_flag(value: float, threshold: float) -> str:
    """pass above the threshold, borderline within 0.01 below it, else fail."""
    if value > threshold:
        return FLAG_PASS
    if value >= threshold - BORDERLINE_MARGIN:
        return FLAG_BORDERLINE
    return FLAG_FAIL


def _indicator_ci(boot, construct: str, indicator: str) -> tuple[float, float] | None:
    if boot is None:
        return None
    stats = boot.loadings.get((construct, indicator))
    return None if stats is None else stats.ci


def assess(fit: PlsFit, data: PreparedData, boot=None) -> ReliabilityReport:
    """Aggregate all indices and threshold flags per construct.

    Single-item and mca-single-item constructs are exempt from every check,
    as are reflective blocks that hold a single indicator. Formative blocks
    report the reflective battery as not-applicable. Loading confidence
    intervals are attached when a bootstrap result is supplied.
    """
    rows: list[ConstructReliability] = []
    for name in fit.constructs:
        mode = fit.modes[name]
        block = data.block_matrix(name)
        lam = fit.loadings[name]
        lo, hi = data.block_index[name]
        indicator_names = data.columns[lo:hi]
        p = block.shape[1]

        exempt = mode in UNIT_MODES or p < 2
        if exempt or mode == "formative":
            flag = FLAG_EXEMPT if exempt else FLAG_NA
            indicators = tuple(
                IndicatorReliability(
                    indicator=col,
                    loading=float(lam[j]),
                    ci=_indicator_ci(boot, name, col),
                    flag=flag,
                )
                for j, col in enumerate(indicator_names)
            )
            rows.append(
                ConstructReliability(
                    construct=name, mode=mode, alpha=None,
                    composite_reliability=None, dijkstra_rho_a=None, ave=None,
                    eig1=None, eig2=None, indicators=indicators,
                    flags={key: flag for key in _INDEX_NAMES},
                )
            )
            continue

        alpha = cronbach_alpha(block)
        cr = composite_reliability(lam)
        ave_value = ave(lam)
        corr = np.corrcoef(block, rowvar=False)
        rho_a = dijkstra_rho_a(fit.weights[name], corr)
        eig1, eig2, unidim = unidimensionality(block)
        indicators = tuple(
            IndicatorReliability(
                indicator=col,
                loading=float(lam[j]),
                ci=_indicator_ci(boot, name, col),
                flag=threshold_flag(float(lam[j]), LOADING_THRESHOLD),
            )
            for j, col in enumerate(indicator_names)
        )
        flags = {
            "alpha": threshold_flag(alpha, ALPHA_THRESHOLD),
            "composite_reliability": threshold_flag(cr, CR_THRESHOLD),
            "dijkstra_rho_a": threshold_flag(rho_a, RHO_A_THRESHOLD),
            "ave": threshold_flag(ave_value, AVE_THRESHOLD),
            "unidimensionality": FLAG_PASS if unidim else FLAG_FAIL,
        }
        rows.append(
            ConstructReliability(
                construct=name, mode=mode, alpha=alpha,
                composite_reliability=cr, dijkstra_rho_a=rho_a, ave=ave_value,
                eig1=eig1, eig2=eig2, indicators=indicators, flags=flags,
            )
        )
    return ReliabilityReport(constructs=tuple(rows))
