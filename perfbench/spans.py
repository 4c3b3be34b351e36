"""Span recorder for the traced run, and the per-layer metrics derived from it.

The worker process installs ``Tracer`` hooks before it calls into plscycle.
Each hook replaces a public name in the module that imports it (for example
``plscycle.cli.fit_pls``), so a span covers exactly one call that the caller
made. Spans are kept in memory as ``[name, start, end, parent, info]`` and
written out when the worker ends. The harness process joins the spans of a
round's processes with ``merge`` and turns them into per-layer metrics with
``layer_metrics``.

A hook whose target no longer exists is skipped: the layer then reports no
calls and its parent's self time absorbs the cost.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

# caller module -> {imported name: span name}; span names are <layer>.<function>
HOOKS: dict[str, dict[str, str]] = {
    "plscycle.cli": {
        "main": "cli.main",
        "cmd_fit": "cli.cmd_fit",
        "cmd_cyclic": "cli.cmd_cyclic",
        "cmd_simulate": "cli.cmd_simulate",
        "cmd_validate": "cli.cmd_validate",
        "parse_model": "modelspec.parse_model",
        "validate_model": "modelspec.validate_model",
        "load_table": "dataset.load_table",
        "prepare_blocks": "dataset.prepare_blocks",
        "fit_pls": "plscore.fit_pls",
        "estimate_cyclic": "cyclic.estimate_cyclic",
        "bootstrap": "resample.bootstrap",
        "assess": "assessment.assess",
        "build_run_report": "report.build_run_report",
        "render_text": "report.render_text",
        "parse_population": "simgen.parse_population",
        "gen_acyclic": "simgen.gen_acyclic",
        "gen_cyclic_equilibrium": "simgen.gen_cyclic_equilibrium",
        "population_truth": "simgen.population_truth",
    },
    "plscycle.resample": {
        "fit_pls": "plscore.fit_pls",
        "estimate_cyclic": "cyclic.estimate_cyclic",
    },
    "plscycle.cyclic": {"fit_pls": "plscore.fit_pls"},
}

# numpy kernels counted (not timed) in the traced run
KERNELS = {
    "numpy.linalg": ("cond", "solve"),
    "numpy": ("corrcoef",),
}
KERNEL_NAMES = tuple(name for names in KERNELS.values() for name in names)


def _info_fit(args, kwargs, result) -> dict:
    return {"iterations": getattr(result, "iterations", None)}


def _info_bootstrap(args, kwargs, result) -> dict:
    b = kwargs.get("b", args[2] if len(args) > 2 else None)
    return {"b": b, "b_effective": getattr(result, "b_effective", None)}


def _info_load(args, kwargs, result) -> dict:
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


INFO = {
    "plscore.fit_pls": _info_fit,
    "resample.bootstrap": _info_bootstrap,
    "dataset.load_table": _info_load,
}


class Tracer:
    """In-memory span stack with per-span kernel-call deltas."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kernel_calls = dict.fromkeys(KERNEL_NAMES, 0)

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        spans, stack, calls = self.spans, self.stack, self.kernel_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.monotonic(), None, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            before = tuple(calls.values())
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
            extra = info(args, kwargs, result) if info else {}
            extra["kernels"] = [a - b for a, b in zip(calls.values(), before)]
            span[4] = extra
            return result

        return traced

    def count(self, key: str, fn):
        calls = self.kernel_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> list[str]:
        """Wrap every hook target that exists; return the names installed."""
        installed = []
        for module_name, names in HOOKS.items():
            module = importlib.import_module(module_name)
            for attr, span_name in names.items():
                target = getattr(module, attr, None)
                if callable(target):
                    setattr(module, attr, self.wrap(span_name, target))
                    installed.append(f"{module_name}.{attr}")
        for module_name, names in KERNELS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                setattr(module, attr, self.count(attr, getattr(module, attr)))
        return installed


# --------------------------------------------------------------------------
# derivation (harness side)

# per-layer metric -> unit; the order is the order they are printed in
LAYER_METRICS = {
    "process.import_s": "s",
    "dataset.load_table_s": "s",
    "dataset.load_table_mb_per_s": "MB/s",
    "dataset.prepare_blocks_s": "s",
    "modelspec.parse_validate_s": "s",
    "plscore.fit_pls_s": "s",
    "plscore.fit_pls_calls": "count",
    "plscore.fit_pls_ms_p50": "ms",
    "plscore.iterations_mean": "count",
    "plscore.iterations_max": "count",
    "cyclic.step2_fit_s": "s",
    "cyclic.estimate_cyclic_self_s": "s",
    "resample.bootstrap_s": "s",
    "resample.self_s": "s",
    "resample.ms_per_replicate": "ms",
    "resample.fit_calls_per_replicate": "count",
    "resample.replicate_ok_ratio": "ratio",
    "numpy.cond_per_replicate": "count",
    "numpy.solve_per_replicate": "count",
    "numpy.corrcoef_per_replicate": "count",
    "assessment.assess_s": "s",
    "report.build_run_report_s": "s",
    "report.render_text_s": "s",
    "cli.self_s": "s",
    "simgen.generate_s": "s",
    "cli.simulate_self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}


def merge(processes: list[tuple[list[list], float, float]]) -> tuple[list[list], float, float]:
    """Join ``(spans, import_s, run_s)`` of several processes into one.

    Parent links are shifted to index the joined list; times are summed.
    """
    spans: list[list] = []
    import_s = run_s = 0.0
    for own, imported, ran in processes:
        offset = len(spans)
        spans += [[name, start, end, None if parent is None else parent + offset, info]
                  for name, start, end, parent, info in own]
        import_s += imported
        run_s += ran
    return spans, import_s, run_s


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _ancestors(spans: list[list], index: int):
    parent = spans[index][3]
    while parent is not None:
        yield spans[parent][0]
        parent = spans[parent][3]


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Self time summed per layer (the span-name prefix before the dot)."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def layer_metrics(spans: list[list], import_s: float, run_s: float) -> dict[str, float | None]:
    """Per-layer metrics of one traced round; None marks an absent layer.

    ``run_s`` is the round's wall time, its processes' spawn to exit, and
    ``import_s`` the part before plscycle finished importing. Times are sums
    over all calls in the round. ``trace.overhead_ratio`` compares rounds, so
    the harness sets it.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def total(*names: str, self_only: bool = False) -> float | None:
        idx = [i for n in names for i in by_name.get(n, [])]
        if not idx:
            return None
        if self_only:
            return sum(own[i] for i in idx)
        return sum(spans[i][2] - spans[i][1] for i in idx)

    m: dict[str, float | None] = dict.fromkeys(LAYER_METRICS)
    m["process.import_s"] = import_s
    m["dataset.load_table_s"] = total("dataset.load_table")
    if m["dataset.load_table_s"]:
        size = sum(spans[i][4]["bytes"] for i in by_name["dataset.load_table"])
        m["dataset.load_table_mb_per_s"] = size / 1e6 / m["dataset.load_table_s"]
    m["dataset.prepare_blocks_s"] = total("dataset.prepare_blocks")
    m["modelspec.parse_validate_s"] = total("modelspec.parse_model", "modelspec.validate_model")

    fits = by_name.get("plscore.fit_pls", [])
    m["plscore.fit_pls_calls"] = len(fits)  # a count: 0 when a caller stops calling it
    if fits:
        m["plscore.fit_pls_s"] = total("plscore.fit_pls", self_only=True)
        m["plscore.fit_pls_ms_p50"] = 1e3 * statistics.median(
            spans[i][2] - spans[i][1] for i in fits
        )
        iters = [spans[i][4]["iterations"] for i in fits]
        if all(isinstance(v, int) for v in iters):
            m["plscore.iterations_mean"] = statistics.fmean(iters)
            m["plscore.iterations_max"] = max(iters)

    cyc = set(by_name.get("cyclic.estimate_cyclic", []))
    if cyc:
        m["cyclic.estimate_cyclic_self_s"] = total("cyclic.estimate_cyclic", self_only=True)
        m["cyclic.step2_fit_s"] = sum(
            spans[i][2] - spans[i][1] for i in fits if spans[i][3] in cyc
        )

    boots = by_name.get("resample.bootstrap", [])
    replicates = sum(spans[i][4]["b"] or 0 for i in boots)
    if boots and replicates:
        m["resample.bootstrap_s"] = total("resample.bootstrap")
        m["resample.self_s"] = total("resample.bootstrap", self_only=True)
        m["resample.ms_per_replicate"] = 1e3 * m["resample.bootstrap_s"] / replicates
        inside = sum(1 for i in fits if "resample.bootstrap" in _ancestors(spans, i))
        m["resample.fit_calls_per_replicate"] = inside / replicates
        effective = [spans[i][4]["b_effective"] for i in boots]
        if all(isinstance(v, int) for v in effective):
            m["resample.replicate_ok_ratio"] = sum(effective) / replicates
        for k, kernel in enumerate(KERNEL_NAMES):
            calls = sum(spans[i][4]["kernels"][k] for i in boots)
            m[f"numpy.{kernel}_per_replicate"] = calls / replicates

    m["assessment.assess_s"] = total("assessment.assess")
    m["report.build_run_report_s"] = total("report.build_run_report")
    m["report.render_text_s"] = total("report.render_text")
    # the simulate command's own time is cli.simulate_self_s, not part of this
    cli_names = [n for n in by_name if n.startswith("cli.") and n != "cli.cmd_simulate"]
    m["cli.self_s"] = total(*cli_names, self_only=True) if cli_names else None
    m["simgen.generate_s"] = total("simgen.gen_acyclic", "simgen.gen_cyclic_equilibrium")
    m["cli.simulate_self_s"] = total("cli.cmd_simulate", self_only=True)

    m["trace.run_s"] = run_s
    m["trace.unattributed_s"] = run_s - import_s - sum(own)
    return m
