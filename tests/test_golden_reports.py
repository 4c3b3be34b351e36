"""The toy seed-0 benchmark workloads reproduce the recorded reference outputs.

Each workload's inputs are written by ``perfbench/workloads.make_inputs``,
then ``simulate`` and ``cyclic`` run in process through ``cli.main``. The
simulated CSV must hash to the recorded digest, the JSON report must match
the reference within ``perfbench/checks.DRIFT``, and the text report must be
byte-identical. The traced benchmark's reading of the package is checked on
the same inputs. ``perfbench/`` is only read.

A report read back from its JSON file, whose keys ``cli`` writes sorted,
renders to the same text: every reference JSON, toy and full size, renders
to its ``.txt``, also with each table's keys reversed.

The text renderer is also pinned on 64 variants of each toy reference
report, one for each combination of the report features it branches on; their
SHA-256 digests are recorded in ``render_text_digests.json``.
"""

import copy
import hashlib
import importlib
import json
from pathlib import Path

import pytest

from plscycle import cli
from plscycle.cli import main
from plscycle.report import render_text

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference"
RENDER_DIGESTS = Path(__file__).with_name("render_text_digests.json")


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


def _reversed_keys(mapping: dict) -> dict:
    return {k: mapping[k] for k in reversed(list(mapping))}


@pytest.mark.parametrize("size", ["toy", "full"])
@pytest.mark.parametrize("workload", ["paper_cyclic", "survey_wide"])
def test_render_text_of_a_reference_report_is_its_text(size, workload):
    report = json.loads((REFERENCE / size / f"{workload}.report.json").read_text(encoding="utf-8"))
    text = (REFERENCE / size / f"{workload}.report.txt").read_text(encoding="utf-8")
    assert render_text(report) == text
    fit = report["fit"]
    fit["weights"] = _reversed_keys({k: _reversed_keys(v) for k, v in fit["weights"].items()})
    fit["r_squared"] = _reversed_keys(fit["r_squared"])
    if "mca" in report:
        report["mca"]["inertia_shares"] = _reversed_keys(report["mca"]["inertia_shares"])
    assert render_text(report) == text


def _report_shapes(report: dict):
    """The 64 variants of ``report``, one for each set of the six changes below."""
    for bits in range(64):
        shape = copy.deepcopy(report)
        for bit, key in ((1, "assessment"), (2, "bootstrap"), (4, "cyclic")):
            if bits & bit:
                shape.pop(key, None)
        fit, cyc = shape["fit"], shape.get("cyclic", {"pairs": []})
        if bits & 8:  # paths without bootstrap statistics
            for path in fit["paths"]:
                for key in ("se", "ci", "significant"):
                    del path[key]
        if bits & 16:  # no structural paths
            fit["paths"] = []
        if bits & 32:  # a fit that did not converge, and no MCA section
            fit["converged"] = False
            shape.pop("mca", None)
        for i, pair in enumerate(cyc["pairs"]):
            # without paths no pair can be tested; bit 32 skips every other pair
            if bits & 16 or (bits & 32 and i % 2 == 0):
                cyc["pairs"][i] = {
                    "target": pair["target"],
                    "beta_ce": pair["beta_ce"],
                    "sigma_ce": pair["sigma_ce"],
                    "skipped_reason": f"no direct sequential path {pair['target']} -> {cyc['source']}",
                }
        yield shape


@pytest.mark.parametrize("workload", ["paper_cyclic", "survey_wide"])
def test_render_text_of_every_report_shape_matches_its_recorded_digest(workload):
    reference = json.loads((REFERENCE / "toy" / f"{workload}.report.json").read_text(encoding="utf-8"))
    recorded = json.loads(RENDER_DIGESTS.read_text(encoding="utf-8"))[workload]
    digests = [
        hashlib.sha256(render_text(shape).encode("utf-8")).hexdigest()
        for shape in _report_shapes(reference)
    ]
    assert len(digests) == len(recorded) == 64
    assert [i for i, (got, want) in enumerate(zip(digests, recorded)) if got != want] == []
