"""plscycle benchmark: seeded workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload paper_cyclic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Each operation is one ``plscycle`` CLI invocation (``plscycle.cli.main`` on
an argv) in a fresh interpreter, started and timed from here. A round is two
operations, ``plscycle simulate`` on the workload's population document and
then ``plscycle cyclic`` on its data. Rounds repeat, closed loop and one
operation at a time, until ``--seconds`` have passed; the last one may end
after that. Set-up probes (``cyclic`` processes that stop once set-up is
done) run before and after the rounds, half on each side, so that drift over
the run is sampled at both ends. Every output is checked (see checks.py) and
an operation whose output fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one warm-up
probe, then alternates plain and traced rounds and reports the per-layer
metrics of spans.py. Human readable lines come first; the last line of
standard output is the JSON result. Everything written goes under
.perfbench_work/ in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import compare, cyclic_report
from spans import LAYER_METRICS, layer_metrics, layer_self_times, merge
from workloads import DEFAULT_SEED, make_inputs, sha256

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

WORKLOADS = ("paper_cyclic", "survey_wide")
# the operations of one round, in order, and the cli name whose first return
# ends each one's set-up
STEPS = {"simulate": "parse_population", "cyclic": "prepare_blocks"}
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "replicate_ok_share": "ratio",
    "op_ok_share": "ratio",
}
# set-up-only processes per untraced run, half before the rounds and half
# after; with the cyclic operations' own set-up times they give setup_s its median
SETUP_PROBES = 6
OP_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0
# traced self times plus import time must cover this share of the traced run_s
SUM_TOLERANCE = 0.05
# one BLAS thread: two threads doubled CPU time at these sizes with no gain in
# wall time, and left the run exposed to other load on the machine
BLAS_THREADS = 1


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "plscycle").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Op:
    """One process: its job, wall time, peak memory and worker output."""

    def __init__(self, index: int, job: dict, work: Path):
        self.index = index
        self.job = job
        self.job_file = work / f"op{index:02d}.job.json"
        self.job["out"] = str(work / f"op{index:02d}.out.json")
        self.stdout = work / f"op{index:02d}.stdout"
        self.stderr = work / f"op{index:02d}.stderr"
        self.out: dict = {}
        self.problems: list[str] = []

    def run(self, env: dict) -> "Op":
        self.job_file.write_text(json.dumps(self.job), encoding="utf-8")
        argv = [sys.executable, str(HERE / "worker.py"), str(self.job_file)]
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            self.spawn_at = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status = os.waitpid(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.exit_at = time.monotonic()
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.run_s = self.exit_at - self.spawn_at
        self.rss_mb = None
        if self.rc == 0:
            try:
                with open(self.job["out"], encoding="utf-8") as handle:
                    self.out = json.load(handle)
                self.rss_mb = self.out["peak_rss_kib"] * 1024 / 1e6
            except (OSError, ValueError, KeyError) as exc:
                self.rc = -1
                self.problems.append(f"unreadable worker output: {exc}")
        else:
            tail = self.stderr.read_text(encoding="utf-8", errors="replace")[-400:]
            self.problems.append(f"exit code {self.rc}: {tail.strip()}")
        return self

    @property
    def setup_s(self) -> float | None:
        at = self.out.get("setup_at")
        return None if at is None else at - self.spawn_at

    @property
    def import_s(self) -> float:
        return self.out["import_done_at"] - self.spawn_at


def _reference(size: str, name: str):
    path = REFERENCE / size / name
    if not path.exists():
        return None
    if name.endswith(".json"):
        return json.loads(path.read_text(encoding="utf-8"))
    return path.read_bytes()


class Checker:
    """Checks each operation's outputs; records problems on the operation."""

    def __init__(self, inputs, size_name: str, default_seed: bool):
        self.inputs = inputs
        self.size = size_name
        self.default_seed = default_seed
        self.first: dict[str, bytes] = {}
        self.replicates_requested = 0
        self.replicates_effective = 0
        self.attempted = 0
        self.failed = 0

    def _same_as_first(self, op: Op, key: str, payload: bytes) -> None:
        first = self.first.setdefault(key, payload)
        if payload != first:
            op.problems.append(f"{key} differs from the first operation's (same seed)")

    def cli_cyclic(self, op: Op, report_path: Path) -> None:
        raw = report_path.read_bytes()
        text = op.stdout.read_bytes()
        report = json.loads(raw)
        op.problems += cyclic_report(report)
        self._same_as_first(op, "report.json", raw)
        self._same_as_first(op, "report.txt", text)
        self.replicates_requested += report["bootstrap"]["requested"]
        self.replicates_effective += report["bootstrap"]["effective"]
        if self.default_seed:
            ref = _reference(self.size, f"{self.inputs.workload}.report.json")
            ref_text = _reference(self.size, f"{self.inputs.workload}.report.txt")
            if ref is None or ref_text is None:
                op.problems.append("no reference report recorded")
            else:
                found = compare(report, ref)
                if found:
                    op.problems.append(f"report differs from the reference at {found}")
                if text != ref_text:
                    op.problems.append("text report differs from the reference")

    def cli_simulate(self, op: Op, csv_path: Path) -> None:
        truth_path = csv_path.with_suffix(".truth.json")
        got = {"csv": sha256(csv_path), "truth": sha256(truth_path)}
        csv_path.unlink()
        truth_path.unlink()
        for key, digest in got.items():
            if digest != self.inputs.expected[key]:
                op.problems.append(f"simulate {key} differs from the library's output")
        if self.default_seed:
            recorded = _digests(self.size).get(self.inputs.workload, {}).get("simulate.csv")
            if recorded is None:
                op.problems.append("no recorded digest for the simulated CSV")
            elif got["csv"] != recorded:
                op.problems.append("simulated CSV differs from the recorded digest")

    def check(self, op: Op, output: Path) -> None:
        """Run the checks of ``op``'s command on its output and count it."""
        if op.rc == 0:
            if op.job["step"] == "simulate":
                self.cli_simulate(op, output)
            else:
                self.cli_cyclic(op, output)
        self.attempted += 1
        self.failed += 1 if op.problems else 0

    def across_runs(self, input_digests: dict) -> str | None:
        """Compare this run's outputs with an earlier run on the same inputs."""
        if not self.first:
            return None
        key = json.dumps([input_digests, self.inputs.argv, vars(self.inputs.size)])
        key_digest = hashlib.sha256((key + _source_digest()).encode()).hexdigest()[:16]
        seen = WORK / "seen" / f"{self.inputs.workload}-{key_digest}.json"
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in self.first.items()}
        if seen.exists():
            earlier = json.loads(seen.read_text(encoding="utf-8"))
            if earlier != digests:
                return "outputs differ from an earlier run with the same seed"
            return None
        seen.parent.mkdir(parents=True, exist_ok=True)
        seen.write_text(json.dumps(digests), encoding="utf-8")
        return None


def _digests(size: str) -> dict:
    path = REFERENCE / "digests.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(size, {})


def _round_s(ops: list[Op]) -> float:
    """Wall time of one round: its operations' processes, spawn to exit."""
    return sum(o.run_s for o in ops)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def bench(workload: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    """Run one workload; return the result line plus the details behind it."""
    started = time.monotonic()
    work = WORK / f"{workload}-{size_name}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = make_inputs(workload, seed, size_name, work)
    input_digests = inputs.digests()
    default_seed = seed == DEFAULT_SEED
    notes: list[str] = []
    input_problems: list[str] = []
    if default_seed:
        recorded = _digests(size_name).get(workload)
        if recorded is None:
            input_problems.append("no recorded input digests")
        else:
            for role, digest in input_digests.items():
                if recorded.get(role) != digest:
                    raise SystemExit(
                        f"perfbench: generated input {role} of {workload} does not match "
                        f"its recorded SHA-256 (got {digest}); the generator changed"
                    )
    inputs_s = time.monotonic() - started

    env = _child_env()
    checker = Checker(inputs, size_name, default_seed)
    size = inputs.size
    rounds: list[list[Op]] = []
    probes: list[Op] = []
    indices = itertools.count()

    def spawn(step: str, traced: bool, probe: bool) -> tuple[Op, Path]:
        index = next(indices)
        if step == "simulate":
            argv, output = inputs.simulate_argv, work / f"op{index:02d}.csv"
        else:
            argv, output = inputs.argv, work / f"op{index:02d}.report.json"
        spec = {
            "step": step, "trace": traced, "probe": probe,
            "argv": argv + ["--out", str(output)],
            "setup_hook": STEPS[step],
        }
        return Op(index, spec, work).run(env), output

    def run_probes(count: int) -> None:
        for _ in range(count):
            probe, _ = spawn("cyclic", False, probe=True)
            if probe.rc == 0 and probe.setup_s is None:
                probe.problems.append("set-up probe never reached the end of set-up")
            probes.append(probe)

    # the leading probes also warm the page and bytecode caches, so that the
    # first round, plain or traced, does not start cold
    run_probes(1 if trace else SETUP_PROBES // 2)
    trailing = 0 if trace else SETUP_PROBES - SETUP_PROBES // 2
    reserve = _median([p.run_s for p in probes]) * trailing
    deadline = time.monotonic() + seconds
    pattern = (False, True) if trace else (False,)
    while True:
        for traced in pattern:
            ops = []
            for step in STEPS:
                op, output = spawn(step, traced, probe=False)
                checker.check(op, output)
                ops.append(op)
            rounds.append(ops)
        # start no round after the deadline, nor one that would leave too
        # little of the run budget for the trailing probes
        now = time.monotonic()
        finish = now + _median([_round_s(r) for r in rounds]) * len(pattern)
        if now >= deadline or finish + reserve > started + RUN_BUDGET_S:
            break
    run_probes(trailing)

    every = [o for r in rounds for o in r] + probes
    across = checker.across_runs(input_digests)
    problems = input_problems + sorted({p for o in every for p in o.problems})
    if across:
        problems.append(across)
    correct = checker.failed == 0 and not problems

    done = [r for r in rounds if all(o.rc == 0 for o in r)]
    plain = [r for r in done if not r[0].job["trace"]]
    traced_rounds = [r for r in done if r[0].job["trace"]]
    metrics: dict[str, dict] = {}
    samples: dict[str, int] = {}
    base: dict[str, str] = {}
    layers: dict[str, float] = {}
    absent: list[str] = []
    if trace:
        merged = [merge([(o.out["spans"], o.import_s, o.run_s) for o in r]) for r in traced_rounds]
        per_op = [layer_metrics(*m) for m in merged]
        per_layer = [
            {"process": import_s, **layer_self_times(spans)} for spans, import_s, _ in merged
        ]
        for name in sorted({k for row in per_layer for k in row}):
            layers[name] = _median([row.get(name, 0.0) for row in per_layer])
        traced_s = _median([_round_s(r) for r in traced_rounds])
        plain_s = _median([_round_s(r) for r in plain])
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_ratio":
                value = traced_s / plain_s if traced_s and plain_s else None
            else:
                value = _median([m[name] for m in per_op])
            # the result line holds a number for every metric; a layer with no
            # calls reads 0 there and is named in the result's "absent" list
            metrics[name] = {"value": value if value is not None else 0, "unit": unit}
            if value is None:
                absent.append(name)
            samples[name] = len(per_op)
        if traced_s and plain_s:
            base["trace.overhead_ratio"] = (
                f"traced {traced_s:.3f} s over plain {plain_s:.3f} s, medians of "
                f"{len(traced_rounds)} and {len(plain)} rounds"
            )
        unattributed = metrics["trace.unattributed_s"]["value"]
        traced_run = metrics["trace.run_s"]["value"]
        if traced_run and abs(unattributed) > SUM_TOLERANCE * traced_run:
            notes.append(
                f"traced self times leave {unattributed:.3f} s of {traced_run:.3f} s "
                f"unattributed, beyond the {SUM_TOLERANCE:.0%} tolerance"
            )
    else:
        setups = [o.setup_s for o in every if o.job["step"] == "cyclic" and o.setup_s is not None]
        requested = checker.replicates_requested
        values = {
            "run_s": (_median([_round_s(r) for r in plain]), len(plain)),
            "setup_s": (_median(setups), len(setups)),
            "peak_rss_mb": (_median([max(o.rss_mb for o in r) for r in plain]), len(plain)),
            "replicate_ok_share": (
                checker.replicates_effective / requested if requested else 1.0, requested
            ),
            "op_ok_share": (
                1.0 - checker.failed / checker.attempted if checker.attempted else 0.0,
                checker.attempted,
            ),
        }
        for name, (value, count) in values.items():
            metrics[name] = {"value": value if value is not None else 0.0, "unit": END_TO_END[name]}
            samples[name] = count
        base["replicate_ok_share"] = (
            f"{checker.replicates_effective} of {requested} replicates requested"
            if requested else "no bootstrap replicates in this workload"
        )
        base["op_ok_share"] = f"{checker.attempted - checker.failed} of {checker.attempted} operations"

    line = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return {
        "line": line,
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "trace": trace,
        "params": {"n": inputs.n, "p": inputs.p, "k": inputs.k, "B": size.b, "seed": seed},
        "environment": environment(),
        "input_digests": input_digests,
        "output_digests": inputs.expected,
        "inputs_s": inputs_s,
        "samples": samples,
        "absent": absent,
        "layer_self_s": layers,
        "base": base,
        "problems": problems,
        "notes": notes,
        "ops": [
            {"index": o.index, "step": o.job["step"], "traced": o.job["trace"],
             "probe": o.job["probe"], "run_s": o.run_s, "setup_s": o.setup_s,
             "rss_mb": o.rss_mb, "rc": o.rc}
            for o in every
        ],
        "work": str(work.relative_to(ROOT)),
    }


def render(result: dict) -> list[str]:
    """Human-readable lines that precede the JSON result line."""
    env = result["environment"]
    p = result["params"]
    lines = [
        f"plscycle benchmark: {result['workload']} ({result['size']}), seed {result['seed']}, "
        f"trace {int(result['trace'])}",
        f"  machine: nproc {env['nproc']}, {env['cpu']}; Python {env['python']}, numpy "
        f"{env['numpy']}, scipy {env['scipy']}, BLAS {env['blas']} x{env['blas_threads']} thread(s)",
        f"  workload: n {p['n']}, p {p['p']}, k {p['k']}, B {p['B']}; inputs made in "
        f"{result['inputs_s']:.2f} s",
    ]
    for name, metric in result["line"]["metrics"].items():
        if name in result["absent"]:
            lines.append(f"  {name:36s} absent (no calls on this workload)")
            continue
        if name in result["base"]:
            detail = result["base"][name]
        else:
            detail = f"median of {result['samples'][name]}"
        lines.append(f"  {name:36s} {metric['value']:.6g} {metric['unit']}  ({detail})")
    if result["layer_self_s"]:
        parts = ", ".join(f"{k} {v:.3f}" for k, v in result["layer_self_s"].items())
        lines.append(
            f"  self time by layer (s): {parts}; sum "
            f"{sum(result['layer_self_s'].values()):.3f} of trace.run_s "
            f"{result['line']['metrics']['trace.run_s']['value']:.3f}"
        )
    line = result["line"]
    lines.append(
        f"  operations: {line['attempted']} attempted, {line['failed']} failed; "
        f"output checks {'passed' if line['correct'] else 'FAILED'}"
    )
    lines += [f"  problem: {msg}" for msg in result["problems"]]
    lines += [f"  note: {msg}" for msg in result["notes"]]
    return lines


def selftest() -> int:
    """Run every workload at toy size, plain and traced, and check the wiring."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if declared[False] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end does not match the harness")
    if declared[True] != LAYER_METRICS:
        problems.append("BENCHMARK.json per_layer does not match spans.LAYER_METRICS")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match the harness")
    for workload in WORKLOADS:
        for trace in (False, True):
            result = bench(workload, DEFAULT_SEED, 0.0, trace, "toy")
            line = result["line"]
            status = "ok" if line["correct"] and not line["failed"] else "FAILED"
            print(f"selftest {workload} trace {int(trace)}: {status}")
            if status != "ok":
                problems += [f"{workload}: {p}" for p in result["problems"] + result["notes"]]
                problems.append(f"{workload} trace {int(trace)} failed its checks")
            if set(line["metrics"]) != set(declared[trace]):
                problems.append(f"{workload} trace {int(trace)}: metric names differ")
            bad = [n for n, m in line["metrics"].items()
                   if set(m) != {"value", "unit"} or isinstance(m["value"], bool)
                   or not isinstance(m["value"], (int, float)) or not m["value"] > 0]
            if bad:
                problems.append(f"{workload} trace {int(trace)}: metrics not a positive "
                                f"number in its unit: {bad}")
            if result["absent"]:
                problems.append(f"{workload}: layers with no calls: {result['absent']}")
    for msg in problems:
        print(f"selftest problem: {msg}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at toy size and check the harness")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the operation it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "plscycle" / "__init__.py").is_file():
        print(f"perfbench: no plscycle sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")
    result = bench(args.workload, seed, max(args.seconds, 0.0), bool(args.trace), "full")
    (WORK / f"{args.workload}-full" / f"result-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    print("\n".join(render(result)))
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
