"""Command-line interface.

Subcommands mirror the pipeline phases: ``fit`` estimates a sequential
model, ``cyclic`` adds the two-step feedback estimation and reinforcement
tests, ``simulate`` generates synthetic data with known parameters, and
``validate`` checks a model document without estimating anything.

Exit codes: 0 success, 2 validation or argument failure, 3 estimation
failure, 4 file I/O failure. All randomness flows from --seed, so repeated
runs with identical flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .assessment import assess
from .cyclic import DIRECTIONS, estimate_cyclic, reinforcement_tests, t_cdf_helper
from .dataset import MISSING_POLICIES, _forked, load_table, prepare_blocks, write_table
from .errors import DataError, DataFileError, EstimationError, ModelError
from .modelspec import SCHEMES, ModelSpec, parse_model, validate_model
from .plscore import DEFAULT_MAX_ITER, DEFAULT_TOL, fit_pls
from .report import build_run_report, render_text
from .resample import MIN_REPLICATES, bootstrap
from .simgen import (
    gen_acyclic,
    gen_cyclic_equilibrium,
    parse_population,
    population_truth,
)

_FORMATS = ("json", "text", "both")


def _add_run_flags(parser: argparse.ArgumentParser, cyclic: bool) -> None:
    parser.add_argument("--model", required=True, help="model document (JSON)")
    parser.add_argument("--data", required=True, help="delimited data file (CSV)")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument(
        "--bootstrap", type=int, default=500, metavar="B",
        help="bootstrap replicates; 0 disables resampling (default 500)",
    )
    parser.add_argument(
        "--level", type=float, default=0.95,
        help="confidence level for percentile intervals (default 0.95)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument(
        "--scheme", choices=SCHEMES,
        help="inner weighting scheme, overrides the model document",
    )
    parser.add_argument(
        "--tol", type=float, default=DEFAULT_TOL,
        help="outer-weight convergence tolerance",
    )
    parser.add_argument(
        "--max-iter", type=int, default=DEFAULT_MAX_ITER, dest="max_iter",
        help="iteration cap for the alternating estimation",
    )
    parser.add_argument(
        "--missing", choices=MISSING_POLICIES, default="listwise",
        help="missing-data policy (default listwise)",
    )
    if cyclic:
        parser.add_argument(
            "--direction", choices=DIRECTIONS, default="ce_gt_se",
            help="alternative hypothesis for the reinforcement test",
        )
    parser.add_argument(
        "--format", choices=_FORMATS, default="json", dest="fmt",
        help="report rendering on stdout (default json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plscycle",
        description="Composite path models with cyclic feedback estimation.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate a sequential model")
    _add_run_flags(p_fit, cyclic=False)
    p_fit.set_defaults(func=cmd_run)

    p_cyc = sub.add_parser(
        "cyclic", help="two-step feedback estimation plus reinforcement tests"
    )
    _add_run_flags(p_cyc, cyclic=True)
    p_cyc.set_defaults(func=cmd_run)

    p_sim = sub.add_parser("simulate", help="generate synthetic data")
    p_sim.add_argument("--population", required=True, help="population document (JSON)")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument(
        "--seed", type=int, default=None,
        help="override the seed in the population document",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="check a model document")
    p_val.add_argument("--model", required=True, help="model document (JSON)")
    p_val.add_argument(
        "--data", help="optional data file whose columns the model must match"
    )
    p_val.set_defaults(func=cmd_validate)
    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFileError(f"'{path}' is not UTF-8 text ({exc.reason})") from None


def _load_spec(args: argparse.Namespace) -> ModelSpec:
    spec = parse_model(_read_text(args.model))
    if getattr(args, "scheme", None):
        spec = dataclasses.replace(spec, scheme=args.scheme)
    return spec


def _emit(report: dict, out: str | None, fmt: str) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is not None:
        Path(out).write_text(payload, encoding="utf-8")
    elif fmt in ("json", "both"):
        sys.stdout.write(payload)
    if fmt in ("text", "both"):
        sys.stdout.write(render_text(report))


def _prepare(args: argparse.Namespace, spec: ModelSpec):
    raw = load_table(args.data)
    check = validate_model(spec, columns=raw.header)
    if not check.ok:
        raise ModelError("; ".join(check.violations))
    return prepare_blocks(raw, spec, missing_policy=args.missing)


def _settings(args: argparse.Namespace, spec: ModelSpec) -> dict:
    settings = {
        "scheme": spec.scheme,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "missing": args.missing,
        "bootstrap": args.bootstrap,
        "level": args.level,
    }
    if hasattr(args, "direction"):
        settings["direction"] = args.direction
    return settings


def cmd_run(args: argparse.Namespace) -> int:
    """``fit`` and ``cyclic``: estimate, bootstrap, assess and report.

    ``fit`` bootstraps the sequential model alone, so a cyclic section it
    does not estimate cannot fail its replicates.
    """
    spec = _load_spec(args)
    cyclic = args.command == "cyclic"
    minimum = MIN_REPLICATES if cyclic else 0
    if cyclic and spec.cyclic is None:
        raise ModelError("no cyclic specification in the model document")
    if args.bootstrap < minimum:
        why = "reinforcement tests need bootstrap standard errors; " if cyclic else ""
        raise ValueError(f"{why}--bootstrap must be >= {minimum}, got {args.bootstrap}")
    if 0 < args.bootstrap < MIN_REPLICATES:
        raise ValueError(f"--bootstrap must be 0 or >= {MIN_REPLICATES}, got {args.bootstrap}")
    if not 0.0 < args.level < 1.0:
        raise ValueError(f"--level must be in (0, 1), got {args.level}")
    if not args.tol > 0:
        raise ValueError(f"--tol must be > 0, got {args.tol}")
    if args.max_iter < 1:
        raise ValueError(f"--max-iter must be >= 1, got {args.max_iter}")
    data = _prepare(args, spec)
    # a helper imports scipy.special (a quarter second) on another CPU as this one fits
    with _forked(t_cdf_helper, cyclic and "scipy.special" not in sys.modules) as helper:
        fit = fit_pls(data, spec, tol=args.tol, max_iter=args.max_iter)
        if not fit.converged:
            raise EstimationError(f"weights did not converge within {args.max_iter} iterations")
        cyc = boot = tests = None
        if cyclic:
            cyc = estimate_cyclic(data, fit, spec, tol=args.tol, max_iter=args.max_iter)
        if args.bootstrap > 0:
            boot = bootstrap(
                data, spec, args.bootstrap, level=args.level, seed=args.seed,
                tol=args.tol, max_iter=args.max_iter, fit=fit, cyclic=cyc,
            )
        if cyclic:
            tests = reinforcement_tests(cyc, boot, data.n_effective, args.direction, helper)
    report = build_run_report(
        spec, data, fit,
        version=__version__, seed=args.seed, settings=_settings(args, spec),
        assessment=assess(fit, data, boot), boot=boot, cyclic=cyc, tests=tests,
    )
    _emit(report, args.out, args.fmt)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    pop, kind = parse_population(_read_text(args.population))
    if args.seed is not None:
        pop = dataclasses.replace(pop, seed=args.seed)
    table = gen_acyclic(pop) if kind == "acyclic" else gen_cyclic_equilibrium(pop)
    write_table(args.out, table)
    truth = population_truth(pop, kind)
    sidecar = Path(args.out).with_suffix(".truth.json")
    sidecar.write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    sys.stdout.write(
        f"wrote {table.values.shape[0]} rows to {args.out} "
        f"(ground truth: {sidecar})\n"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    spec = parse_model(_read_text(args.model))
    columns = load_table(args.data).header if args.data else None
    check = validate_model(spec, columns=columns)
    if check.ok:
        sys.stdout.write("model is estimable\n")
        return 0
    for violation in check.violations:
        sys.stdout.write(f"violation: {violation}\n")
    return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, DataError, ValueError) as exc:
        print(f"plscycle: error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"plscycle: error: {exc}", file=sys.stderr)
        return 3
    except (DataFileError, OSError) as exc:
        print(f"plscycle: error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
