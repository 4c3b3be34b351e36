"""The benchmark workloads and their seeded input generators.

Every input is a function of the workload seed and the size (full or toy):
the same seed always writes byte-identical files. Data come from plscycle's
own ``gen_acyclic``, the generator the CLI's ``simulate`` command uses.

One round of a workload runs two CLI commands: ``plscycle simulate`` on the
workload's population document (the write path), then ``plscycle cyclic``
on the workload's data (the read and estimation path).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Size:
    n: int
    b: int  # bootstrap replicates; 0 when none run


SIZES = {
    "full": {
        "paper_cyclic": Size(n=151_660, b=100),
        "survey_wide": Size(n=20_000, b=100),
    },
    "toy": {
        "paper_cyclic": Size(n=2_000, b=100),
        "survey_wide": Size(n=2_000, b=100),
    },
}

PAPER_CONSTRUCTS = [("PA", [0.8] * 3), ("DS", [0.75] * 4), ("IU", [0.7] * 4)]
PAPER_PATHS = [("PA", "DS", 0.5), ("PA", "IU", 0.2), ("DS", "IU", 0.6)]

# (name, population loadings or None for a single item, model mode)
SURVEY_CONSTRUCTS = [
    ("C1", [0.8] * 5, "reflective"),
    ("C2", [0.75] * 5, "reflective"),
    ("C3", [0.7] * 4, "formative"),
    ("C4", [0.7] * 6, "reflective"),
    ("C5", [0.75] * 5, "mca-single-item"),
    ("C6", [0.8] * 5, "reflective"),
    ("C7", None, "single-item"),
    ("C8", [0.75] * 6, "reflective"),
]
SURVEY_PATHS = [
    ("C1", "C2", 0.5), ("C1", "C3", 0.4), ("C2", "C4", 0.4), ("C3", "C4", 0.3),
    ("C4", "C5", 0.5), ("C2", "C5", 0.2), ("C5", "C6", 0.4), ("C4", "C6", 0.3),
    ("C6", "C7", 0.5), ("C6", "C8", 0.4), ("C7", "C8", 0.3),
]
SURVEY_BINARY = ("C5",)
SURVEY_BLANKED = ("C1", "C4")
BLANK_SHARE = 0.01


@dataclass
class Inputs:
    """Generated files of one workload and how to run one operation on them."""

    workload: str
    seed: int
    size: Size
    n: int
    p: int  # indicator columns in the data the program reads
    k: int  # constructs
    files: dict[str, Path] = field(default_factory=dict)
    argv: list[str] = field(default_factory=list)  # `cyclic` argv, without --out
    simulate_argv: list[str] = field(default_factory=list)  # `simulate` argv, without --out
    # sha256 of what `simulate` must write: "csv" and its "truth" sidecar
    expected: dict[str, str] = field(default_factory=dict)

    def digests(self) -> dict[str, str]:
        return {role: sha256(path) for role, path in sorted(self.files.items())}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _population(constructs, paths, n: int, seed: int) -> dict:
    return {
        "kind": "acyclic",
        "n": n,
        "seed": seed,
        "constructs": [
            {"name": name, "single_item": True} if loadings is None
            else {"name": name, "loadings": loadings}
            for name, loadings, *_ in constructs
        ],
        "paths": [{"source": s, "target": t, "coefficient": c} for s, t, c in paths],
    }


def _model(constructs, paths, source: str) -> dict:
    blocks = []
    for name, loadings, *rest in constructs:
        count = 1 if loadings is None else len(loadings)
        blocks.append({
            "name": name,
            "mode": rest[0] if rest else "reflective",
            "indicators": [f"{name}_{j + 1}" for j in range(count)],
        })
    return {
        "blocks": blocks,
        "paths": [{"source": s, "target": t} for s, t, _ in paths],
        "cyclic": {"source": source},
        "scheme": "path",
    }


def _write_json(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return path


def write_csv(handle, header, rows) -> None:
    """Write in the CSV dialect ``plscycle simulate`` writes."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


class _Hasher:
    """A text sink that keeps only the SHA-256 of what is written to it."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()

    def write(self, text: str) -> None:
        self.digest.update(text.encode("utf-8"))


def _csv_file(path: Path, header, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_csv(handle, header, rows)
    return path


def _generate(population: dict):
    from plscycle.simgen import gen_acyclic, parse_population

    pop, _ = parse_population(population)
    return pop, gen_acyclic(pop)


def _simulated(inputs: Inputs, population: dict, pop, table, work: Path) -> None:
    """Write the population document; record what `plscycle simulate` must write."""
    from plscycle.simgen import population_truth

    pop_file = _write_json(work / "population.json", population)
    csv_sink = _Hasher()
    write_csv(csv_sink, table.header, table.values.tolist())
    truth = population_truth(pop, "acyclic")
    truth_text = json.dumps(truth, indent=2, sort_keys=True) + "\n"
    inputs.files["population.json"] = pop_file
    inputs.expected = {
        "csv": csv_sink.digest.hexdigest(),
        "truth": hashlib.sha256(truth_text.encode("utf-8")).hexdigest(),
    }
    inputs.simulate_argv = ["simulate", "--population", str(pop_file)]


def _paper(seed: int, size: Size, work: Path) -> Inputs:
    population = _population(PAPER_CONSTRUCTS, PAPER_PATHS, size.n, seed)
    pop, table = _generate(population)
    # the data file is byte for byte what `plscycle simulate` writes
    data = _csv_file(work / "data.csv", table.header, table.values.tolist())
    model = _write_json(work / "model.json", _model(PAPER_CONSTRUCTS, PAPER_PATHS, "IU"))
    inputs = Inputs(
        workload="paper_cyclic", seed=seed, size=size, n=size.n,
        p=table.values.shape[1], k=len(PAPER_CONSTRUCTS),
        files={"data.csv": data, "model.json": model},
    )
    _simulated(inputs, population, pop, table, work)
    inputs.argv = [
        "cyclic", "--model", str(model), "--data", str(data),
        "--bootstrap", str(size.b), "--seed", str(seed), "--format", "both",
    ]
    return inputs


def _survey(seed: int, size: Size, work: Path) -> Inputs:
    population = _population(SURVEY_CONSTRUCTS, SURVEY_PATHS, size.n, seed)
    pop, table = _generate(population)
    header = list(table.header)
    rows = table.values.tolist()
    binary = [j for j, col in enumerate(header) if col.split("_")[0] in SURVEY_BINARY]
    for row in rows:
        for j in binary:
            row[j] = 1 if row[j] > 0 else 0
    # blank 1% of the cells of the blanked blocks, alternating "" and "NA"
    blanked = [j for j, col in enumerate(header) if col.split("_")[0] in SURVEY_BLANKED]
    cells = size.n * len(blanked)
    rng = np.random.default_rng([seed, 1])
    chosen = np.sort(rng.choice(cells, size=round(BLANK_SHARE * cells), replace=False))
    for t, flat in enumerate(chosen.tolist()):
        r, c = divmod(flat, len(blanked))
        rows[r][blanked[c]] = "" if t % 2 == 0 else "NA"
    data = _csv_file(work / "data.csv", header, rows)
    model = _write_json(work / "model.json", _model(SURVEY_CONSTRUCTS, SURVEY_PATHS, "C8"))
    inputs = Inputs(
        workload="survey_wide", seed=seed, size=size, n=size.n, p=len(header),
        k=len(SURVEY_CONSTRUCTS), files={"data.csv": data, "model.json": model},
    )
    _simulated(inputs, population, pop, table, work)
    inputs.argv = [
        "cyclic", "--model", str(model), "--data", str(data), "--missing", "mean",
        "--bootstrap", str(size.b), "--seed", str(seed), "--format", "both",
    ]
    return inputs


def make_inputs(workload: str, seed: int, size_name: str, work: Path) -> Inputs:
    """Write the workload's inputs under ``work`` and describe one operation."""
    size = SIZES[size_name][workload]
    work.mkdir(parents=True, exist_ok=True)
    if workload == "paper_cyclic":
        return _paper(seed, size, work)
    if workload == "survey_wide":
        return _survey(seed, size, work)
    raise ValueError(f"unknown workload '{workload}'")
