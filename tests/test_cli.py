import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plscycle
from plscycle import __version__, cli, dataset
from plscycle.cli import main
from plscycle.cyclic import DIRECTIONS, reinforcement_tests
from plscycle.dataset import RawTable, load_table
from plscycle.errors import EstimationError

from conftest import UNEVEN_MODEL, UNEVEN_R, exact_correlation_sample, in_child_only

TRIANGLE_MODEL = {
    "blocks": [
        {"name": "X1", "mode": "single-item", "indicators": ["x1"]},
        {"name": "X2", "mode": "single-item", "indicators": ["x2"]},
        {"name": "X3", "mode": "single-item", "indicators": ["x3"]},
    ],
    "paths": [
        {"source": "X1", "target": "X2"},
        {"source": "X1", "target": "X3"},
        {"source": "X2", "target": "X3"},
    ],
}

TRIANGLE_R = np.array([[1.0, 0.5, 0.4], [0.5, 1.0, 0.6], [0.4, 0.6, 1.0]])


def cyclic_model():
    doc = json.loads(json.dumps(TRIANGLE_MODEL))
    doc["cyclic"] = {"source": "X3"}
    return doc


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_csv(tmp_path, header, matrix, name="data.csv"):
    path = tmp_path / name
    lines = [",".join(header)]
    for row in np.asarray(matrix, dtype=np.float64):
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def triangle_files(tmp_path, doc, n=200, seed=1):
    model = write_model(tmp_path, doc)
    data = write_csv(
        tmp_path, ["x1", "x2", "x3"], exact_correlation_sample(TRIANGLE_R, n, seed=seed)
    )
    return model, data


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_fit_report_without_bootstrap(tmp_path, capsys):
    model, data = triangle_files(tmp_path, TRIANGLE_MODEL)
    report = run_json(
        capsys, ["fit", "--model", model, "--data", data, "--bootstrap", "0"]
    )
    assert report["tool"] == {"name": "plscycle", "version": __version__}
    assert report["seed"] == 0
    assert report["fit"]["converged"] is True
    assert set(report["fit"]["r_squared"]) == {"X2", "X3"}
    assert "bootstrap" not in report
    for path in report["fit"]["paths"]:
        assert set(path) == {"source", "target", "estimate"}
    # exact sample correlations make the partial coefficients closed-form
    by_edge = {(p["source"], p["target"]): p["estimate"] for p in report["fit"]["paths"]}
    assert by_edge[("X2", "X3")] == pytest.approx(0.40 / 0.75, abs=1e-10)
    assert by_edge[("X1", "X3")] == pytest.approx(0.10 / 0.75, abs=1e-10)


def test_fit_bootstrap_adds_interval_fields(tmp_path, capsys):
    model, data = triangle_files(tmp_path, TRIANGLE_MODEL)
    report = run_json(
        capsys,
        ["fit", "--model", model, "--data", data, "--bootstrap", "100", "--seed", "4"],
    )
    assert report["bootstrap"]["requested"] == 100
    assert report["bootstrap"]["effective"] + report["bootstrap"]["failures"] == 100
    for path in report["fit"]["paths"]:
        assert {"se", "ci", "significant"} <= set(path)
        assert path["ci"][0] <= path["ci"][1]


def test_fit_bootstraps_only_the_sequential_model(tmp_path, capsys):
    # X3's indicator is named like X3's step-2 score column, so step 2 fails
    doc = cyclic_model()
    doc["blocks"][2]["indicators"] = ["X3__score"]
    model = write_model(tmp_path, doc)
    sequential = json.loads(json.dumps(doc))
    del sequential["cyclic"]
    plain = write_model(tmp_path, sequential, name="plain.json")
    data = write_csv(
        tmp_path, ["x1", "x2", "X3__score"], exact_correlation_sample(TRIANGLE_R, 200, seed=1)
    )
    flags = ["--data", data, "--bootstrap", "100", "--seed", "4"]
    report = run_json(capsys, ["fit", "--model", model, *flags])
    expected = run_json(capsys, ["fit", "--model", plain, *flags])
    assert report["model"]["cyclic"] == {"source": "X3", "targets": ["X1", "X2"]}
    assert report["bootstrap"] == expected["bootstrap"]
    assert report["bootstrap"]["failures"] == 0
    assert report["fit"] == expected["fit"]
    assert main(["cyclic", "--model", model, *flags]) == 3
    assert "collides with a data column" in capsys.readouterr().err


def test_weights_that_do_not_converge_exit_3(tmp_path, capsys):
    model = write_model(tmp_path, UNEVEN_MODEL)
    columns = ["a1", "a2", "m", "y1", "y2"]
    data = write_csv(tmp_path, columns, exact_correlation_sample(UNEVEN_R, 400, seed=7))
    flags = ["--model", model, "--data", data, "--bootstrap", "0", "--max-iter", "1"]
    assert main(["fit", *flags]) == 3
    assert "weights did not converge within 1 iterations" in capsys.readouterr().err


def test_settings_echo_cli_choices(tmp_path, capsys):
    model, data = triangle_files(tmp_path, TRIANGLE_MODEL)
    report = run_json(
        capsys,
        [
            "fit", "--model", model, "--data", data,
            "--bootstrap", "0", "--scheme", "centroid", "--missing", "mean",
        ],
    )
    assert report["settings"]["scheme"] == "centroid"
    assert report["settings"]["missing"] == "mean"
    assert report["model"]["scheme"] == "centroid"


def test_missing_indicator_column_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(TRIANGLE_MODEL))
    doc["blocks"][0]["indicators"] = ["zz"]
    model, data = triangle_files(tmp_path, doc)
    code = main(["fit", "--model", model, "--data", data])
    assert code == 2
    assert "indicator column 'zz' missing from data" in capsys.readouterr().err


def test_cyclic_report_end_to_end(tmp_path, capsys):
    model, data = triangle_files(tmp_path, cyclic_model())
    report = run_json(
        capsys,
        ["cyclic", "--model", model, "--data", data, "--bootstrap", "100", "--seed", "3"],
    )
    cyc = report["cyclic"]
    assert cyc["source"] == "X3"
    assert cyc["score_column"] == "X3__score"
    assert cyc["targets"] == ["X1", "X2"]
    assert cyc["step2"]["converged"] is True
    assert len(cyc["pairs"]) == 2
    for pair in cyc["pairs"]:
        assert {"beta_se", "beta_ce", "abs_diff", "sigma_se", "sigma_ce"} <= set(pair)
        assert pair["t"] >= 0.0
        assert pair["df"] >= 1
        assert 0.0 <= pair["p"] <= 1.0
        assert pair["direction"] == "ce_gt_se"
        assert pair["decision"] in ("reject", "retain")
    by_target = {p["target"]: p for p in cyc["pairs"]}
    assert by_target["X2"]["beta_ce"] == pytest.approx(0.6, abs=1e-10)
    assert by_target["X2"]["beta_se"] == pytest.approx(0.40 / 0.75, abs=1e-10)
    assert report["settings"]["direction"] == "ce_gt_se"


def test_cyclic_subcommand_needs_cyclic_model(tmp_path, capsys):
    model, data = triangle_files(tmp_path, TRIANGLE_MODEL)
    code = main(["cyclic", "--model", model, "--data", data])
    assert code == 2
    assert "no cyclic specification in the model document" in capsys.readouterr().err


def test_cyclic_subcommand_needs_enough_replicates(tmp_path, capsys):
    model, data = triangle_files(tmp_path, cyclic_model())
    code = main(["cyclic", "--model", model, "--data", data, "--bootstrap", "50"])
    assert code == 2
    assert "--bootstrap must be >= 100" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("fit", ["--bootstrap", "-7"], "--bootstrap must be >= 0, got -7"),
        ("fit", ["--bootstrap", "0", "--level", "7"], "--level must be in (0, 1), got 7.0"),
        ("fit", ["--level", "0"], "--level must be in (0, 1), got 0.0"),
        ("fit", ["--level", "nan"], "--level must be in (0, 1), got nan"),
        ("cyclic", ["--level", "1"], "--level must be in (0, 1), got 1.0"),
        ("fit", ["--tol", "nan"], "--tol must be > 0, got nan"),
        ("fit", ["--tol", "0"], "--tol must be > 0, got 0.0"),
        ("cyclic", ["--tol=-1e-6"], "--tol must be > 0, got -1e-06"),
        ("fit", ["--max-iter", "0"], "--max-iter must be >= 1, got 0"),
        ("cyclic", ["--max-iter=-3"], "--max-iter must be >= 1, got -3"),
        ("fit", ["--bootstrap", "50"], "--bootstrap must be 0 or >= 100, got 50"),
    ],
)
def test_invalid_resampling_settings_exit_2_before_reading_data(
    tmp_path, capsys, command, flags, message
):
    model = write_model(tmp_path, cyclic_model())
    missing = str(tmp_path / "never-read.csv")
    code = main([command, "--model", model, "--data", missing, *flags])
    assert code == 2
    assert message in capsys.readouterr().err


def test_direction_flag_moves_the_tail(tmp_path, capsys):
    model, data = triangle_files(tmp_path, cyclic_model())
    base = ["cyclic", "--model", model, "--data", data, "--bootstrap", "100", "--seed", "9"]
    p = {}
    for direction in ("ce_gt_se", "se_gt_ce", "two_sided"):
        report = run_json(capsys, base + ["--direction", direction])
        pair = [x for x in report["cyclic"]["pairs"] if x["target"] == "X2"][0]
        p[direction] = pair["p"]
    assert p["ce_gt_se"] + p["se_gt_ce"] == pytest.approx(1.0)
    assert p["two_sided"] == pytest.approx(2.0 * min(p["ce_gt_se"], p["se_gt_ce"]))


def test_pair_without_direct_edge_is_reported_skipped(tmp_path, capsys):
    doc = {
        "blocks": [
            {"name": "X1", "mode": "single-item", "indicators": ["x1"]},
            {"name": "X2", "mode": "single-item", "indicators": ["x2"]},
            {"name": "X3", "mode": "single-item", "indicators": ["x3"]},
        ],
        "paths": [
            {"source": "X1", "target": "X2"},
            {"source": "X2", "target": "X3"},
        ],
        "cyclic": {"source": "X3", "targets": ["X1"]},
    }
    model, data = triangle_files(tmp_path, doc)
    report = run_json(
        capsys,
        ["cyclic", "--model", model, "--data", data, "--bootstrap", "100"],
    )
    (pair,) = report["cyclic"]["pairs"]
    assert pair["target"] == "X1"
    assert pair["skipped_reason"] == "no direct sequential path X1 -> X3"
    assert "beta_ce" in pair and "sigma_ce" in pair
    assert "t" not in pair and "beta_se" not in pair


def test_out_file_holds_json_and_stdout_holds_text(tmp_path, capsys):
    model, data = triangle_files(tmp_path, TRIANGLE_MODEL)
    out = tmp_path / "report.json"
    code = main(
        [
            "fit", "--model", model, "--data", data,
            "--bootstrap", "0", "--out", str(out), "--format", "both",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n")
    report = json.loads(text)
    assert report["fit"]["converged"] is True
    assert captured.out.startswith(f"plscycle {__version__}  (seed 0)")
    assert "Construct" in captured.out
    assert not captured.out.lstrip().startswith("{")


def test_format_both_streams_json_then_text(tmp_path, capsys):
    model, data = triangle_files(tmp_path, TRIANGLE_MODEL)
    code = main(
        ["fit", "--model", model, "--data", data, "--bootstrap", "0", "--format", "both"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("{")
    json_part, _, text_part = captured.out.partition(f"plscycle {__version__}")
    assert json.loads(json_part)
    assert text_part


POPULATION = {
    "kind": "acyclic",
    "n": 60,
    "seed": 12,
    "constructs": [
        {"name": "A", "loadings": [0.8, 0.8, 0.8]},
        {"name": "B", "single_item": True},
    ],
    "paths": [{"source": "A", "target": "B", "coefficient": 0.5}],
}


def test_simulate_is_deterministic(tmp_path, capsys):
    pop = write_model(tmp_path, POPULATION, name="pop.json")
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert main(["simulate", "--population", pop, "--out", str(out)]) == 0
        status = capsys.readouterr().out
        assert f"wrote 60 rows to {out}" in status
        truth = out.with_suffix(".truth.json")
        outputs.append((out.read_bytes(), truth.read_bytes()))
    assert outputs[0] == outputs[1]
    truth = json.loads(outputs[0][1])
    assert truth["kind"] == "acyclic"
    assert truth["n"] == 60


def test_simulate_writes_what_csv_writer_writes(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((16_389, 3))
    values[:, 1] *= 1e-5  # scientific-notation reprs
    values[:6, 2] = [-0.0, 0.0, 5e-324, 1e16, -1.5e300, 1 / 3]
    table = RawTable(header=("a", "b,c", 'q"d'), values=values)
    monkeypatch.setattr(cli, "gen_acyclic", lambda pop: table)
    out = tmp_path / "sim.csv"
    pop = write_model(tmp_path, POPULATION, name="pop.json")
    assert main(["simulate", "--population", pop, "--out", str(out)]) == 0
    capsys.readouterr()
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows(values.tolist())
    assert out.read_bytes() == expected.getvalue().encode("utf-8")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == 'a,"b,c","q""d"'
    assert lines[1].endswith(",-0.0") and "e-" in lines[1]


@pytest.mark.filterwarnings("error")
def test_forked_simulate_writes_what_csv_writer_writes(tmp_path, capsys, monkeypatch, forks):
    test_simulate_writes_what_csv_writer_writes(tmp_path, capsys, monkeypatch)
    assert len(forks) == 1


def fail_in_child(values):
    raise RuntimeError("the child fails")


class SendsHalf:
    """A child's result file that promises every byte and sends half, like a killed child."""

    def __init__(self, fd):
        self.out, self.writes = open(fd, "wb"), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.out.close()

    def write(self, data):
        self.writes += 1
        return self.out.write(data if self.writes == 1 else memoryview(data)[: len(data) // 2])


def open_sends_half(file, mode="r", *args, **kwargs):
    return SendsHalf(file) if mode == "wb" else open(file, mode, *args, **kwargs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("failure", ["child raises", "child answers short"])
def test_a_failed_child_leaves_the_simulate_bytes_unchanged(
    tmp_path, capsys, monkeypatch, forks, failure
):
    pop = write_model(tmp_path, {**POPULATION, "n": 5000}, name="pop.json")
    serial = tmp_path / "serial.csv"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["simulate", "--population", pop, "--out", str(serial)]) == 0
    assert forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    formatted, real_body = [], dataset._csv_body

    def recorded(values):  # in the parent, where it is all that formats
        formatted.append(values.copy())
        return real_body(values)

    monkeypatch.setattr(dataset, "_csv_body", recorded)
    if failure == "child raises":
        in_child_only(monkeypatch, dataset, "_csv_body", fail_in_child)
    else:
        monkeypatch.setattr(dataset, "open", open, raising=False)
        in_child_only(monkeypatch, dataset, "open", open_sends_half)
    out = tmp_path / "forked.csv"
    assert main(["simulate", "--population", pop, "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(forks) == 1
    assert out.read_bytes() == serial.read_bytes()
    # the parent formatted the front half, then, the child having failed, the back half
    assert [len(half) for half in formatted] == [2500, 2500]
    assert np.concatenate(formatted).tobytes() == load_table(str(serial)).values.tobytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


# cyclic source X5 with targets X1-X4: X1 and X4 have a direct mirror, X2 has
# none, and X3's mirror gets a zero standard error, so its test is not computable
HELPER_MODEL = {
    "blocks": [
        {"name": f"X{i}", "mode": "single-item", "indicators": [f"x{i}"]} for i in range(1, 6)
    ],
    "paths": [
        {"source": s, "target": t}
        for s, t in [("X1", "X2"), ("X2", "X3"), ("X3", "X5"), ("X1", "X5"), ("X4", "X5")]
    ],
    "cyclic": {"source": "X5"},
}


def helper_files(tmp_path, n=300):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((n, 5))
    x[:, 1] += 0.5 * x[:, 0]
    x[:, 2] += 0.6 * x[:, 1]
    x[:, 4] += 0.3 * x[:, 0] + 0.4 * x[:, 2] + 0.3 * x[:, 3]
    data = write_csv(tmp_path, [f"x{i}" for i in range(1, 6)], x)
    return write_model(tmp_path, HELPER_MODEL), data


def flatten_mirror_and_record(monkeypatch) -> dict:
    """Zero the bootstrap error of X3 -> X5; record what the report is built from."""
    seen: dict = {}
    boot_real, report_real = cli.bootstrap, cli.build_run_report

    def flattened(*args, **kwargs):
        boot = boot_real(*args, **kwargs)
        flat = dataclasses.replace(boot.paths[("X3", "X5")], se=0.0)
        return dataclasses.replace(boot, paths={**boot.paths, ("X3", "X5"): flat})

    def recorded(spec, data, fit, **kwargs):
        seen.update(kwargs, data=data)
        return report_real(spec, data, fit, **kwargs)

    monkeypatch.setattr(cli, "bootstrap", flattened)
    monkeypatch.setattr(cli, "build_run_report", recorded)
    return seen


def in_process_tests(seen, direction):
    return reinforcement_tests(seen["cyclic"], seen["boot"], seen["data"].n_effective, direction)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_helper_p_values_are_the_in_process_bits(tmp_path, capsys, monkeypatch, forks, direction):
    seen = flatten_mirror_and_record(monkeypatch)
    model, data = helper_files(tmp_path)
    argv = ["cyclic", "--model", model, "--data", data, "--bootstrap", "100", "--seed", "5"]
    with pytest.MonkeyPatch.context() as unloaded:
        unloaded.delitem(sys.modules, "scipy.special", raising=False)
        assert main(argv + ["--direction", direction]) == 0
        assert "scipy.special" not in sys.modules  # every tail came from the helper
    capsys.readouterr()
    assert len(forks) == 2  # the parse and the helper
    tests = seen["tests"]
    assert list(tests.items()) == list(in_process_tests(seen, direction).items())
    assert list(tests) == [("X5", "X1"), ("X5", "X2"), ("X5", "X3"), ("X5", "X4")]
    assert tests[("X5", "X2")] == "no direct sequential path X2 -> X5"
    assert tests[("X5", "X3")] == "test not computable: standard errors must be positive"
    assert isinstance(tests[("X5", "X1")], plscycle.cyclic.TestResult)
    assert isinstance(tests[("X5", "X4")], plscycle.cyclic.TestResult)


class Interrupt(BaseException):
    """Not an Exception, so ``main`` lets it through."""


def interrupt(*args, **kwargs):
    raise Interrupt


def abort_bootstrap(*args, **kwargs):
    raise EstimationError("bootstrap aborted: too many failed replicates")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ending", ["success", "exit 3", "BaseException"])
def test_no_helper_outlives_the_run(tmp_path, capsys, monkeypatch, forks, ending):
    monkeypatch.delitem(sys.modules, "scipy.special", raising=False)
    model, data = triangle_files(tmp_path, cyclic_model())
    argv = ["cyclic", "--model", model, "--data", data, "--bootstrap", "100"]
    if ending == "BaseException":
        monkeypatch.setattr(cli, "fit_pls", interrupt)  # the first call after the fork
        with pytest.raises(Interrupt):
            main(argv)
    else:
        if ending == "exit 3":
            monkeypatch.setattr(cli, "bootstrap", abort_bootstrap)
        assert main(argv) == (0 if ending == "success" else 3)
    assert "scipy.special" not in sys.modules
    capsys.readouterr()
    assert len(forks) == 2  # the parse and the helper
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def answer_short(request):
    request()
    return np.zeros(1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("child", [fail_in_child, answer_short], ids=["raises", "answers short"])
def test_a_failed_helper_leaves_the_in_process_p_values(
    tmp_path, capsys, monkeypatch, forks, child
):
    seen = flatten_mirror_and_record(monkeypatch)
    in_child_only(monkeypatch, cli, "t_cdf_helper", child)
    monkeypatch.delitem(sys.modules, "scipy.special", raising=False)
    model, data = helper_files(tmp_path)
    assert main(["cyclic", "--model", model, "--data", data, "--bootstrap", "100"]) == 0
    capsys.readouterr()
    assert len(forks) == 2
    assert "scipy.special" in sys.modules  # imported here, as the helper gave no answer
    assert list(seen["tests"].items()) == list(in_process_tests(seen, "ce_gt_se").items())


def fork_fails():
    raise OSError("no more processes")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("why", ["one CPU", "no os.fork", "fork fails", "scipy.special imported"])
def test_no_helper_where_it_cannot_pay(tmp_path, capsys, monkeypatch, forks, why):
    seen = flatten_mirror_and_record(monkeypatch)
    model, data = helper_files(tmp_path)
    if why == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif why == "no os.fork":
        monkeypatch.delattr(os, "fork")
    elif why == "fork fails":
        monkeypatch.setattr(os, "fork", fork_fails)
    else:
        import scipy.special  # noqa: F401
    assert main(["cyclic", "--model", model, "--data", data, "--bootstrap", "100"]) == 0
    capsys.readouterr()
    assert len(forks) == (1 if why == "scipy.special imported" else 0)  # the parse alone
    assert list(seen["tests"].items()) == list(in_process_tests(seen, "ce_gt_se").items())


CHAIN_POPULATION = {
    "kind": "acyclic",
    "n": 200,
    "seed": 4,
    "constructs": [
        {"name": "A", "loadings": [0.8, 0.8, 0.8]},
        {"name": "M", "single_item": True},
        {"name": "B", "single_item": True},
    ],
    "paths": [
        {"source": "A", "target": "M", "coefficient": 0.5},
        {"source": "M", "target": "B", "coefficient": 0.5},
        {"source": "A", "target": "B", "coefficient": 0.3},
    ],
}

CHAIN_MODEL = {
    "blocks": [
        {"name": "A", "indicators": ["A_1", "A_2", "A_3"]},
        {"name": "M", "mode": "single-item", "indicators": ["M_1"]},
        {"name": "B", "mode": "single-item", "indicators": ["B_1"]},
    ],
    "paths": [
        {"source": "A", "target": "M"},
        {"source": "M", "target": "B"},
        {"source": "A", "target": "B"},
    ],
    "cyclic": {"source": "B"},
}


def test_startup_and_simulate_load_no_scipy(tmp_path):
    pop = write_model(tmp_path, CHAIN_POPULATION, name="pop.json")
    model = write_model(tmp_path, CHAIN_MODEL)
    script = (
        "import json, os, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import plscycle.cli\n"
        "seen = {'import': scipy_modules()}\n"
        "assert plscycle.cli.main(['simulate', '--population', sys.argv[1],"
        " '--out', sys.argv[2]]) == 0\n"
        "seen['simulate'] = scipy_modules()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs, whatever this host has\n"
        "assert plscycle.cli.main(['cyclic', '--model', sys.argv[3], '--data', sys.argv[2],"
        " '--bootstrap', '100', '--out', sys.argv[4]]) == 0\n"
        "seen['cyclic'] = scipy_modules()\n"
        "plscycle.cyclic.reinforcement_test(0.2, 0.3, 0.01, 0.01, 100)\n"
        "seen['test'] = scipy_modules()\n"
        "print(json.dumps(seen))\n"
    )
    src = str(Path(plscycle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, "-c", script, pop, str(tmp_path / "sim.csv"), model, str(report)],
        capture_output=True, text=True, env=env, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["import"] == [] and seen["simulate"] == []
    # a forked helper took the cyclic run's tail probabilities
    assert seen["cyclic"] == []
    pairs = json.loads(report.read_text())["cyclic"]["pairs"]
    assert len(pairs) == 2 and all("p" in pair for pair in pairs)
    # the tail probability is the first thing to need scipy, and not scipy.stats
    assert "scipy.special" in seen["test"] and "scipy.stats" not in seen["test"]


def test_simulate_seed_flag_overrides_document(tmp_path, capsys):
    pop = write_model(tmp_path, POPULATION, name="pop.json")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--population", pop, "--out", str(a), "--seed", "99"]) == 0
    assert main(["simulate", "--population", pop, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()
    assert json.loads(a.with_suffix(".truth.json").read_text())["seed"] == 99


def test_simulate_rejects_a_negative_seed_before_generating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "gen_acyclic", lambda pop: pytest.fail("generated"))
    pop = write_model(tmp_path, POPULATION, name="pop.json")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--population", pop, "--out", str(out), "--seed", "-1"]) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    pop = write_model(tmp_path, {**POPULATION, "seed": -3}, name="negative.json")
    assert main(["simulate", "--population", pop, "--out", str(out)]) == 2
    assert "population 'seed' must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_explosive_feedback(tmp_path, capsys):
    doc = {
        "kind": "cyclic",
        "n": 50,
        "constructs": [
            {"name": "A", "single_item": True},
            {"name": "B", "single_item": True},
            {"name": "C", "single_item": True},
        ],
        "paths": [
            {"source": "A", "target": "B", "coefficient": 1.2},
            {"source": "B", "target": "C", "coefficient": 1.0},
            {"source": "C", "target": "A", "coefficient": 0.9},
        ],
    }
    pop = write_model(tmp_path, doc, name="pop.json")
    code = main(["simulate", "--population", pop, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "no equilibrium: spectral radius" in capsys.readouterr().err


def test_simulate_rejects_a_malformed_population_with_exit_2(tmp_path, capsys):
    doc = {"n": 50, "constructs": [{"name": "A", "loadings": [0.8]}], "paths": 5}
    pop = write_model(tmp_path, doc, name="pop.json")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--population", pop, "--out", str(out)]) == 2
    assert "'paths' must be a list" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_files_exit_4(tmp_path, capsys):
    model, data = triangle_files(tmp_path, TRIANGLE_MODEL)
    assert main(["fit", "--model", model, "--data", str(tmp_path / "nope.csv")]) == 4
    assert "nope.csv" in capsys.readouterr().err
    assert main(["fit", "--model", str(tmp_path / "nope.json"), "--data", data]) == 4


@pytest.mark.parametrize("command", ["fit", "validate"])
@pytest.mark.parametrize(
    "text", [b"x\xf1,x2,x3\n1,2,3\n4,5,6\n", b"x1,x2,x3\n1,2,3\n4,5,\xe96\n"],
    ids=["header", "body"],
)
def test_latin_1_csv_exits_4(tmp_path, capsys, command, text):
    model, _ = triangle_files(tmp_path, TRIANGLE_MODEL)
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(text)
    assert main([command, "--model", model, "--data", str(bad)]) == 4
    assert "'" + str(bad) + "' is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_latin_1_document_exits_4(tmp_path, capsys, command):
    doc, name = (TRIANGLE_MODEL, "X1") if command == "validate" else (POPULATION, "A")
    text = json.dumps(doc, ensure_ascii=False).replace(f'"{name}"', '"Año"')
    bad = tmp_path / "latin1.json"
    bad.write_bytes(text.encode("latin-1"))
    out = tmp_path / "x.csv"
    flag = "--model" if command == "validate" else "--population"
    extra = [] if command == "validate" else ["--out", str(out)]
    assert main([command, flag, str(bad), *extra]) == 4
    err = capsys.readouterr().err
    assert err == f"plscycle: error: '{bad}' is not UTF-8 text (invalid continuation byte)\n"
    assert not out.exists()


def test_ragged_csv_exits_4(tmp_path, capsys):
    model, _ = triangle_files(tmp_path, TRIANGLE_MODEL)
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,x3\n1,2,3\n4,5\n", encoding="utf-8")
    code = main(["fit", "--model", model, "--data", str(bad)])
    assert code == 4
    assert "ragged row at line 3" in capsys.readouterr().err


def test_invalid_model_json_exits_2(tmp_path, capsys):
    _, data = triangle_files(tmp_path, TRIANGLE_MODEL)
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["fit", "--model", str(bad), "--data", data])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_validate_accepts_estimable_model(tmp_path, capsys):
    model, data = triangle_files(tmp_path, cyclic_model())
    assert main(["validate", "--model", model, "--data", data]) == 0
    assert capsys.readouterr().out == "model is estimable\n"


def test_validate_lists_violations(tmp_path, capsys):
    doc = {
        "blocks": [
            {"name": "A", "mode": "single-item", "indicators": ["a"]},
            {"name": "B", "mode": "single-item", "indicators": ["b"]},
        ],
        "paths": [{"source": "A", "target": "B"}],
        "cyclic": {"source": "B", "targets": ["A"]},
    }
    model = write_model(tmp_path, doc)
    assert main(["validate", "--model", model]) == 2
    out = capsys.readouterr().out
    assert out.startswith("violation: ")
    assert "intermediate construct" in out


def test_missing_cells_are_counted_with_mean_policy(tmp_path, capsys):
    model = write_model(tmp_path, TRIANGLE_MODEL)
    sample = exact_correlation_sample(TRIANGLE_R, 40, seed=6)
    rows = [",".join(repr(float(v)) for v in row) for row in sample]
    rows[3] = "NA" + rows[3][rows[3].index(","):]
    rows[7] = "NA" + rows[7][rows[7].index(","):]
    data = tmp_path / "gaps.csv"
    data.write_text("x1,x2,x3\n" + "\n".join(rows) + "\n", encoding="utf-8")
    report = run_json(
        capsys,
        [
            "fit", "--model", model, "--data", str(data),
            "--bootstrap", "0", "--missing", "mean",
        ],
    )
    assert report["data"]["n_rows"] == 40
    assert report["data"]["n_effective"] == 40
    assert report["data"]["missing_policy"] == "mean"
    assert report["data"]["missing_cells"]["X1"] == 2
    listwise = run_json(
        capsys, ["fit", "--model", model, "--data", str(data), "--bootstrap", "0"]
    )
    assert listwise["data"]["n_effective"] == 38


def test_a_missing_mca_cell_under_mean_imputation_exits_2(tmp_path, capsys):
    doc = {
        "blocks": [
            {"name": "Q", "mode": "mca-single-item", "indicators": ["q1", "q2"]},
            {"name": "Y", "mode": "single-item", "indicators": ["y1"]},
        ],
        "paths": [{"source": "Q", "target": "Y"}],
    }
    model = write_model(tmp_path, doc)
    rng = np.random.default_rng(8)
    items = (rng.random((200, 2)) < 0.5).astype(int)
    rows = [f"{a},{b},{y!r}" for (a, b), y in zip(items.tolist(), rng.normal(size=200).tolist())]
    rows[5] = "NA" + rows[5][1:]
    data = tmp_path / "usage.csv"
    data.write_text("q1,q2,y1\n" + "\n".join(rows) + "\n", encoding="utf-8")
    argv = ["fit", "--model", model, "--data", str(data), "--bootstrap", "0"]
    assert main([*argv, "--missing", "mean"]) == 2
    err = capsys.readouterr().err
    assert "mca block 'Q' has missing cells" in err
    assert "mean imputation" in err and "listwise" in err
    assert run_json(capsys, argv)["data"]["n_effective"] == 199


def test_module_runs_as_a_script(tmp_path):
    src = str(Path(plscycle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = [sys.executable, "-m", "plscycle.cli"]
    done = subprocess.run([*script, "--version"], capture_output=True, text=True, env=env)
    assert done.returncode == 0 and done.stdout == f"plscycle {__version__}\n"
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    done = subprocess.run(
        [*script, "validate", "--model", str(bad)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 2
    assert done.stderr.startswith("plscycle: error: ")


def test_version_flag_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out == f"plscycle {__version__}\n"


def test_readme_library_names_import_from_the_package():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    library = readme.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"^from plscycle import \((.*?)^\)", library, re.M | re.S).group(1)
    names = set(re.findall(r"\w+", re.sub(r"#.*", "", block))) | {"Moments", "write_table"}
    exec(f"from plscycle import {', '.join(sorted(names))}", {})
