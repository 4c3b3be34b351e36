"""The toy seed-0 benchmark workloads reproduce the recorded reference outputs.

Each workload's inputs are written by ``perfbench/workloads.make_inputs``,
then ``simulate`` and ``cyclic`` run in process through ``cli.main``. The
simulated CSV must hash to the recorded digest, the JSON report must match
the reference within ``perfbench/checks.DRIFT``, and the text report must be
byte-identical. ``perfbench/reference/`` is only read.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

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
