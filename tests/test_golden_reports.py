"""The toy seed-0 benchmark workloads reproduce the recorded reference outputs.

Each workload's inputs are written by ``perfbench/workloads.make_inputs``,
then ``simulate`` and ``cyclic`` run in process through ``cli.main``. The
simulated CSV must hash to the recorded digest, the JSON report must match
the reference within ``perfbench/checks.DRIFT``, and the text report must be
byte-identical. The traced benchmark's reading of the package is checked on
the same inputs. ``perfbench/`` is only read.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from plscycle import cli
from plscycle.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("checks")


@pytest.mark.parametrize("workload", ["paper_cyclic", "survey_wide"])
def test_toy_workload_reproduces_the_reference_outputs(tmp_path, capsys, perfbench, workload):
    workloads, checks = perfbench
    inputs = workloads.make_inputs(workload, 0, "toy", tmp_path / "inputs")
    digests = json.loads((REFERENCE / "digests.json").read_text(encoding="utf-8"))

    simulated = tmp_path / "simulate.csv"
    assert main([*inputs.simulate_argv, "--out", str(simulated)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(simulated.read_bytes()).hexdigest() == (
        digests["toy"][workload]["simulate.csv"]
    )

    report_path = tmp_path / "report.json"
    assert main([*inputs.argv, "--out", str(report_path)]) == 0
    text = capsys.readouterr().out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    reference = json.loads((REFERENCE / "toy" / f"{workload}.report.json").read_text(encoding="utf-8"))
    assert checks.compare(report, reference) is None
    assert text.encode("utf-8") == (REFERENCE / "toy" / f"{workload}.report.txt").read_bytes()


def test_the_benchmark_reads_the_bootstrap_and_set_up_names_of_the_cli(
    tmp_path, capsys, monkeypatch, perfbench
):
    # perfbench/spans.py reads b from bootstrap's third positional argument,
    # and perfbench/worker.py marks the end of set-up at a cli name
    workloads, _ = perfbench
    spans, run = importlib.import_module("spans"), importlib.import_module("run")
    inputs = workloads.make_inputs("paper_cyclic", 0, "toy", tmp_path / "inputs")
    calls, real = [], cli.bootstrap

    def recorded(*args, **kwargs):
        calls.append((args, kwargs, real(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(cli, "bootstrap", recorded)
    assert main([*inputs.argv, "--out", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    (args, kwargs, result), = calls
    assert spans._info_bootstrap(args, kwargs, result) == {"b": 100, "b_effective": result.b_effective}
    assert 95 <= result.b_effective <= 100
    for hook in run.STEPS.values():
        assert callable(getattr(cli, hook))
