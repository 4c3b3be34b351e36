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

from .dataset import Moments, PreparedData
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

_THRESHOLDS = {
    "alpha": ALPHA_THRESHOLD,
    "composite_reliability": CR_THRESHOLD,
    "dijkstra_rho_a": RHO_A_THRESHOLD,
    "ave": AVE_THRESHOLD,
}


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


def cronbach_alpha(corr: np.ndarray) -> float:
    """Standardized-item alpha from R_bb: (p/(p-1)) * (1 - p / sum of R_bb)."""
    corr = np.asarray(corr, dtype=np.float64)
    p = corr.shape[0]
    if p < 2:
        raise ValueError("cronbach_alpha needs at least 2 items")
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


def unidimensionality(corr: np.ndarray) -> tuple[float, float, bool]:
    """Two largest eigenvalues of the block correlation matrix R_bb.

    Passes when exactly the first exceeds 1 (eig1 > 1 and eig2 < 1).
    """
    corr = np.asarray(corr, dtype=np.float64)
    if corr.shape[0] < 2:
        raise ValueError("unidimensionality needs at least 2 items")
    eig = np.linalg.eigvalsh(corr)
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


def assess(fit: PlsFit, data: PreparedData | Moments, boot=None) -> ReliabilityReport:
    """Aggregate all indices and threshold flags per construct.

    Every index comes from the fit and the block of the indicator correlation
    matrix R, so moments without rows suffice. Single-item and mca-single-item
    constructs are exempt from every check, as are reflective blocks that hold
    a single indicator. Formative blocks report the reflective battery as
    not-applicable. Loading confidence intervals are attached when a bootstrap
    result is supplied.
    """
    rows: list[ConstructReliability] = []
    for name in fit.constructs:
        mode = fit.modes[name]
        lam = fit.loadings[name]
        lo, hi = data.block_index[name]
        exempt = mode in UNIT_MODES or hi - lo < 2
        if exempt or mode == "formative":
            flag = FLAG_EXEMPT if exempt else FLAG_NA
            values = dict.fromkeys((*_THRESHOLDS, "eig1", "eig2"))
            flags = dict.fromkeys((*_THRESHOLDS, "unidimensionality"), flag)
            loading_flags = [flag] * len(lam)
        else:
            corr = data.corr[lo:hi, lo:hi]
            values = {
                "alpha": cronbach_alpha(corr),
                "composite_reliability": composite_reliability(lam),
                "dijkstra_rho_a": dijkstra_rho_a(fit.weights[name], corr),
                "ave": ave(lam),
            }
            flags = {key: threshold_flag(values[key], t) for key, t in _THRESHOLDS.items()}
            values["eig1"], values["eig2"], unidim = unidimensionality(corr)
            flags["unidimensionality"] = FLAG_PASS if unidim else FLAG_FAIL
            loading_flags = [threshold_flag(float(v), LOADING_THRESHOLD) for v in lam]
        indicators = tuple(
            IndicatorReliability(col, float(v), _indicator_ci(boot, name, col), mark)
            for col, v, mark in zip(data.columns[lo:hi], lam, loading_flags)
        )
        rows.append(ConstructReliability(name, mode, indicators=indicators, flags=flags, **values))
    return ReliabilityReport(constructs=tuple(rows))
