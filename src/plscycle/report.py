"""Run-report assembly.

One run produces one JSON-serializable dict. Sections appear only when the
corresponding feature ran: no bootstrap means no "bootstrap" key and no
se/ci/significant fields, no cyclic section means no "cyclic" key. The text
renderer consumes the same dict so both outputs always agree; text rounds to
3 decimals, JSON keeps full precision.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Iterable, Mapping

from .assessment import ReliabilityReport
from .cyclic import CyclicFit, TestResult
from .dataset import PreparedData
from .modelspec import ModelSpec, model_document
from .plscore import PlsFit
from .resample import BootstrapResult, CoefficientStats

TOOL_NAME = "plscycle"


def _coef_entry(estimate: float, stats: CoefficientStats | None) -> dict:
    entry: dict = {"estimate": float(estimate)}
    if stats is not None:
        entry["se"] = float(stats.se)
        entry["ci"] = [float(stats.ci[0]), float(stats.ci[1])]
        entry["significant"] = bool(stats.significant)
    return entry


def _fit_section(
    fit: PlsFit,
    block_columns: Mapping[str, tuple[str, ...]],
    path_stats: Mapping[tuple[str, str], CoefficientStats],
    loading_stats: Mapping[tuple[str, str], CoefficientStats],
) -> dict:
    weights = {
        name: {
            col: float(w)
            for col, w in zip(block_columns[name], fit.weights[name])
        }
        for name in fit.constructs
    }
    loadings = {
        name: {
            col: _coef_entry(lam, loading_stats.get((name, col)))
            for col, lam in zip(block_columns[name], fit.loadings[name])
        }
        for name in fit.constructs
    }
    paths = [
        {"source": s, "target": t, **_coef_entry(value, path_stats.get((s, t)))}
        for (s, t), value in fit.paths.items()
    ]
    return {
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        # intercepts of the standardized measurement and structural equations
        "location_parameters": 0.0,
        "weights": weights,
        "loadings": loadings,
        "paths": paths,
        "r_squared": {k: float(v) for k, v in fit.r_squared.items()},
    }


def _plain(value: object) -> object:
    """``value`` as JSON takes it: None-valued keys dropped, tuples as lists."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _pair_entry(target: str, beta_ce: float, sigma_ce: float, outcome: TestResult | str) -> dict:
    entry = {"target": target, "beta_ce": float(beta_ce), "sigma_ce": float(sigma_ce)}
    if isinstance(outcome, str):
        return {**entry, "skipped_reason": outcome}
    return {
        **entry, "beta_se": outcome.beta_se, "abs_diff": abs(outcome.beta_se - outcome.beta_ce),
        "sigma_se": outcome.sigma_se, "t": outcome.t_statistic, "df": outcome.df,
        "p": outcome.p_value, "direction": outcome.direction, "decision": outcome.decision,
    }


def build_run_report(
    spec: ModelSpec,
    data: PreparedData,
    fit: PlsFit,
    *,
    version: str,
    seed: int,
    settings: Mapping[str, object],
    assessment: ReliabilityReport | None = None,
    boot: BootstrapResult | None = None,
    cyclic: CyclicFit | None = None,
    tests: Mapping[tuple[str, str], TestResult | str] | None = None,
) -> dict:
    """Assemble the run-report dict; keys for features that did not run are absent.

    A ``cyclic`` section needs ``boot`` and the ``reinforcement_tests`` mapping.
    """
    block_columns = {
        name: data.columns[lo:hi] for name, (lo, hi) in data.block_index.items()
    }
    report: dict = {
        "tool": {"name": TOOL_NAME, "version": version},
        "seed": int(seed),
        "model": model_document(spec),
        "settings": dict(settings),
        "data": {
            "n_rows": int(data.n_input),
            "n_effective": int(data.n_effective),
            "missing_policy": data.missing_policy,
            "missing_cells": {k: int(v) for k, v in data.missing_cells.items()},
        },
        "fit": _fit_section(
            fit, block_columns, boot.paths if boot else {}, boot.loadings if boot else {}
        ),
    }
    if data.mca_inertia_share:
        report["mca"] = {
            "inertia_shares": {
                k: float(v) for k, v in data.mca_inertia_share.items()
            }
        }
    if assessment is not None:
        report["assessment"] = _plain(asdict(assessment))
    if boot is not None:
        report["bootstrap"] = {
            "requested": int(boot.b_requested),
            "effective": int(boot.b_effective),
            "failures": int(boot.failures),
            "level": float(boot.level),
            "seed": int(boot.seed),
        }
    if cyclic is not None:
        source, *targets = cyclic.step2_spec.block_names()
        step2_columns = {source: (cyclic.score_column,), **{t: block_columns[t] for t in targets}}
        report["cyclic"] = {
            "source": source,
            "score_column": cyclic.score_column,
            "targets": targets,
            "step2": _fit_section(cyclic.step2_fit, step2_columns, boot.cyclic_paths, {}),
            "pairs": [
                _pair_entry(t, beta_ce, boot.cyclic_paths[(source, t)].se, tests[(source, t)])
                for (_, t), beta_ce in cyclic.cyclic_paths.items()
            ],
        }
    return report


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _table(header: list[str], rows: Iterable[Iterable[object]]) -> list[str]:
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[j]) for r in cells)) for j, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    return lines + ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]


def _in_order(mapping: Mapping, order: list[str]) -> list[tuple]:
    """``mapping``'s items in ``order``, which JSON does not keep; an MCA score column first."""
    return sorted(mapping.items(), key=lambda kv: order.index(kv[0]) if kv[0] in order else -1)


def render_text(report: dict) -> str:
    """Aligned-text view of a run report, 3-decimal rounding throughout.

    The view is a list of sections, each a list of lines, with one blank line
    between sections.
    """
    tool, data, fit = report["tool"], report["data"], report["fit"]
    status = "converged" if fit["converged"] else "did not converge"
    model = {b["name"]: b["indicators"] for b in report["model"]["blocks"]}
    sections = [
        [
            f"{tool['name']} {tool['version']}  (seed {report['seed']})",
            f"rows read: {data['n_rows']}, rows used: {data['n_effective']}, "
            f"missing policy: {data['missing_policy']}",
        ],
        [f"fit: {status} after {fit['iterations']} iterations"],
        _table(
            ["Construct", "Indicator", "Weight", "Loading"],
            (
                [name, col, weight, fit["loadings"][name][col]["estimate"]]
                for name, declared in model.items()
                for col, weight in _in_order(fit["weights"][name], declared)
            ),
        ),
    ]
    if fit["paths"]:
        has_ci = any("ci" in p for p in fit["paths"])
        sections.append(
            _table(
                ["Path", "Estimate"] + (["SE", "CI low", "CI high", "Sig"] if has_ci else []),
                (
                    [f"{p['source']} -> {p['target']}", p["estimate"]]
                    + ([p["se"], *p["ci"], p["significant"]] if has_ci else [])
                    for p in fit["paths"]
                ),
            )
        )
        sections.append(_table(["Construct", "R-squared"], _in_order(fit["r_squared"], [*model])))
    if "mca" in report:
        shares = _in_order(report["mca"]["inertia_shares"], [*model])
        sections.append(_table(["Construct", "First-dimension inertia share"], shares))
    if "assessment" in report:
        reliability = ("alpha", "composite_reliability", "dijkstra_rho_a", "ave")
        sections.append(
            _table(
                ["Construct", "Mode", "Alpha", "CR", "rho_A", "AVE", "Dimensionality"],
                (
                    [c["construct"], c["mode"], *(c.get(k, "-") for k in reliability)]
                    + [c["flags"]["unidimensionality"]]
                    for c in report["assessment"]["constructs"]
                ),
            )
        )
    if "bootstrap" in report:
        b = report["bootstrap"]
        replicates = f"{b['effective']}/{b['requested']} replicates ({b['failures']} failed)"
        sections.append([f"bootstrap: {replicates}, level {b['level']:g}"])
    if "cyclic" in report:
        cyc = report["cyclic"]
        labelled = [(f"{p['target']} <=> {cyc['source']}", p) for p in cyc["pairs"]]
        tested = [
            [label, p["beta_se"], p["beta_ce"], p["abs_diff"], p["t"], p["p"]]
            for label, p in labelled
            if "skipped_reason" not in p
        ]
        header = ["Effects", "SE", "CE", "Abs (diff.)", "t-statistic", "p-value"]
        notes = [
            f"{label}: skipped ({p['skipped_reason']})"
            if "skipped_reason" in p
            else f"{label}: {p['decision']} (direction {p['direction']}, df {p['df']})"
            for label, p in labelled
        ]
        sections.append(
            [f"cyclic source: {cyc['source']} (step-1 score column {cyc['score_column']})"]
            + (_table(header, tested) if tested else [])
            + notes
        )
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"
