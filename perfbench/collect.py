"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/collect.py --workloads paper_cyclic --seeds 1-5 --trace 1

For every workload and metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
range as a share of the median, next to the metric's bound in
BENCHMARK.json. A spread at or above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    summary: dict = {"run_seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        lines = []
        for seed in _seeds(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).parent / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, check=False,
            )
            wall = time.monotonic() - started
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= line["correct"] and line["failed"] == 0
            lines.append(line)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct {line['correct']}, "
                  f"failed {line['failed']}/{line['attempted']}", flush=True)
        # the machine and workload facts of the last run, as run.py recorded them
        last = json.loads(
            (ROOT / ".perfbench_work" / f"{workload}-full" / f"result-trace{args.trace}.json")
            .read_text(encoding="utf-8")
        )
        metrics = {}
        for name in bounds:
            values = [ln["metrics"][name]["value"] for ln in lines]
            metrics[name] = summarise(values)
            bound = bounds[name]
            flag = ""
            if bound is not None and metrics[name]["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"  {name:36s} median {metrics[name]['median']:.6g}  "
                  f"IQR/median {metrics[name]['spread']:.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
            print("    " + " ".join(f"{v:.6g}" for v in values))
        summary["workloads"][workload] = {
            "seeds": args.seeds, "environment": last["environment"],
            "params": last["params"], "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
