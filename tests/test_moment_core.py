"""The moment-space estimator against the data-space reference.

``data_space_oracle`` runs the PLS fixed point on the standardized rows and
re-standardizes every bootstrap resample, as the estimator did before it
moved onto the indicator correlation matrix. Fits, replicate vectors and
replicate failures must agree with it. The batched replicate moments must in
turn agree with the exact per-replicate ``_resampled_moments``, also when the
memory budgets split the replicates into chunks and the rows into blocks.
The reliability battery, which reads only R, must agree with the one that
reads the block rows.
"""

import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import data_space_oracle as oracle
from plscycle import (
    DataError,
    cyclic,
    EstimationError,
    assess,
    bootstrap,
    build_feedback_model,
    estimate_cyclic,
    fit_pls,
    gen_acyclic,
    parse_model,
    parse_population,
    plscore,
    prepare_blocks,
    resample,
)
from plscycle.dataset import Moments
from plscycle.modelspec import MODES, SCHEMES, UNIT_MODES
from plscycle.plscore import DEFAULT_MAX_ITER, DEFAULT_TOL

from conftest import (
    TABLE_SHAPE, in_child_only, make_prepared, point_fits, traced_peak_bytes, traced_peak_tables,
)

TOL = 1e-10


def max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def set_budgets(monkeypatch, data, chunk, rows):
    """Budgets for ``chunk`` replicates per count buffer and ``rows`` rows per block."""
    n, p = data.matrix.shape
    monkeypatch.setattr(resample, "_COUNT_BUFFER_BYTES", chunk * n)
    monkeypatch.setattr(resample, "_ROW_BLOCK_BYTES", 8 * (p + p * (p + 1) // 2 + chunk) * rows)


def small_budgets(monkeypatch):
    """Budgets of 7 replicates per chunk and 16 rows per block, applied per data set."""
    return lambda data: set_budgets(monkeypatch, data, chunk=7, rows=16)


def default_budgets(data):
    pass


@st.composite
def model_and_data(draw):
    k = draw(st.integers(2, 5))
    modes = draw(st.lists(st.sampled_from(["reflective", "formative", "single-item"]),
                          min_size=k, max_size=k))
    sizes = [1 if mode == "single-item" else draw(st.integers(1 if mode == "reflective" else 2, 4))
             for mode in modes]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    spec = parse_model({
        "blocks": [
            {"name": f"C{i}", "mode": mode, "indicators": [f"c{i}_{j}" for j in range(size)]}
            for i, (mode, size) in enumerate(zip(modes, sizes))
        ],
        "paths": [{"source": f"C{i}", "target": f"C{j}"}
                  for (i, j), keep in zip(pairs, edges) if keep],
        "scheme": draw(st.sampled_from(SCHEMES)),
    })
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 200
    mixing = np.tril(rng.uniform(-0.6, 0.6, (k, k)), -1) + np.eye(k)
    latent = rng.standard_normal((n, k)) @ mixing.T
    columns = [rng.uniform(0.4, 0.9) * latent[:, i] + 0.6 * rng.standard_normal(n)
               for i, size in enumerate(sizes) for _ in range(size)]
    return spec, make_prepared(np.column_stack(columns), spec)


@settings(deadline=None, derandomize=True, max_examples=80)
@given(model_and_data())
def test_fit_matches_data_space_reference(case):
    spec, data = case
    try:
        expected = oracle.fit(data.matrix, data.block_index, spec)
    except EstimationError as exc:
        with pytest.raises(EstimationError, match=re.escape(str(exc))):
            fit_pls(data, spec)
        return
    fit = fit_pls(data, spec)
    assert fit.converged == expected["converged"]
    scores = np.column_stack([data.score(name, fit.weights[name]) for name in fit.constructs])
    assert max_diff(scores, expected["scores"]) <= TOL
    for name in fit.constructs:
        assert max_diff(fit.weights[name], expected["weights"][name]) <= TOL
        assert max_diff(fit.loadings[name], expected["loadings"][name]) <= TOL
    assert fit.paths.keys() == expected["paths"].keys()
    for key, value in expected["paths"].items():
        assert abs(fit.paths[key] - value) <= TOL
    for name, value in expected["r_squared"].items():
        assert abs(fit.r_squared[name] - value) <= TOL


@settings(deadline=None, derandomize=True, max_examples=80)
@given(model_and_data())
def test_assessment_on_r_matches_data_space_reference(case):
    spec, data = case
    try:
        fit = fit_pls(data, spec)
    except EstimationError:
        return
    report, expected = assess(fit, data), oracle.assess(fit, data)
    assert len(report.constructs) == len(expected.constructs)
    for got, want in zip(report.constructs, expected.constructs):
        assert (got.construct, got.mode, got.flags) == (want.construct, want.mode, want.flags)
        assert got.indicators == want.indicators
        for field in ("alpha", "composite_reliability", "dijkstra_rho_a", "ave", "eig1", "eig2"):
            value, reference = getattr(got, field), getattr(want, field)
            assert (value is None) == (reference is None)
            if value is not None:
                assert abs(value - reference) <= 1e-12
    assert assess(fit, Moments(data.corr, data.block_index, data.columns)) == report


CYCLIC_MODEL = {
    "blocks": [
        {"name": "PA", "indicators": ["pa1", "pa2", "pa3"]},
        {"name": "DS", "indicators": ["ds1", "ds2", "ds3", "ds4"]},
        {"name": "IU", "indicators": ["iu1", "iu2", "iu3", "iu4"]},
    ],
    "paths": [
        {"source": "PA", "target": "DS"},
        {"source": "PA", "target": "IU"},
        {"source": "DS", "target": "IU"},
    ],
    "cyclic": {"source": "IU"},
}


# a source block weak enough that replicate fits flip its orientation
WEAK_LOADINGS = (0.4, 0.1, -0.2)
WEAK_MODEL = {
    **CYCLIC_MODEL,
    "blocks": [*CYCLIC_MODEL["blocks"][:2], {"name": "IU", "indicators": ["iu1", "iu2", "iu3"]}],
}


def cyclic_data(spec, n=300, seed=4, iu_loadings=(0.7,) * 4):
    rng = np.random.default_rng(seed)
    pa = rng.standard_normal(n)
    ds = 0.5 * pa + 0.85 * rng.standard_normal(n)
    iu = 0.2 * pa + 0.6 * ds + 0.7 * rng.standard_normal(n)
    columns = [lam * latent + np.sqrt(1 - lam**2) * rng.standard_normal(n)
               for latent, loadings in ((pa, (0.8,) * 3), (ds, (0.75,) * 4), (iu, iu_loadings))
               for lam in loadings]
    return make_prepared(np.column_stack(columns), spec)


def assert_replicates_match_reference(boot, data, spec, seed):
    reps = [rep for rep in oracle.replicates(data, spec, b=100, seed=seed) if isinstance(rep, tuple)]
    assert boot.b_effective == len(reps) == 100
    for key, stats in boot.paths.items():
        assert max_diff(stats.replicates, [paths[key] for paths, _, _ in reps]) <= TOL
    for (name, col), stats in boot.loadings.items():
        j = data.columns.index(col) - data.block_index[name][0]
        assert max_diff(stats.replicates, [lam[name][j] for _, lam, _ in reps]) <= TOL
    assert set(boot.cyclic_paths) == {("IU", "PA"), ("IU", "DS")}
    for key, stats in boot.cyclic_paths.items():
        assert max_diff(stats.replicates, [cyc[key] for _, _, cyc in reps]) <= TOL


def check_bootstrap_matches_reference(budgets):
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec)
    budgets(data)
    boot = bootstrap(data, spec, b=100, seed=9, **point_fits(data, spec))
    assert_replicates_match_reference(boot, data, spec, seed=9)


def test_bootstrap_replicates_match_data_space_reference():
    check_bootstrap_matches_reference(default_budgets)


def test_bootstrap_replicates_in_small_chunks_match_data_space_reference(monkeypatch):
    check_bootstrap_matches_reference(small_budgets(monkeypatch))


def recorded_stacks(monkeypatch, module):
    """The (corr, result) of every ``_fit_stack`` call made through ``module``."""
    calls = []
    real = module._fit_stack

    def wrapper(corr, *args):
        calls.append((corr, real(corr, *args)))
        return calls[-1][1]
    monkeypatch.setattr(module, "_fit_stack", wrapper)
    return calls


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bootstrap_matches_data_space_reference_where_the_source_flips(scheme, monkeypatch):
    stacks = recorded_stacks(monkeypatch, resample)
    spec = parse_model({**WEAK_MODEL, "scheme": scheme})
    data = cyclic_data(spec, n=60, iu_loadings=WEAK_LOADINGS)
    fits = point_fits(data, spec)
    boot = bootstrap(data, spec, b=100, seed=3, **fits)
    point = fits["fit"].weights["IU"]
    (_, (weights, *_)), = stacks
    assert np.any(weights[:, -len(point):] @ point < 0)  # IU is the last block
    assert_replicates_match_reference(boot, data, spec, seed=3)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_flipped_step_one_source_negates_exactly_the_cyclic_paths(scheme):
    # bootstrap runs step 2 on unaligned replicate fits and relies on this
    for model, loadings in ((CYCLIC_MODEL, (0.7,) * 4), (WEAK_MODEL, WEAK_LOADINGS)):
        spec = parse_model({**model, "scheme": scheme})
        data = cyclic_data(spec, iu_loadings=loadings)
        fit = fit_pls(data, spec)
        flipped = dataclasses.replace(fit, weights={**fit.weights, "IU": -fit.weights["IU"]})
        cyc, cyc_flipped = estimate_cyclic(data, fit, spec), estimate_cyclic(data, flipped, spec)
        negated = {key: -value for key, value in cyc.step2_fit.paths.items()}
        assert_same_fit(cyc_flipped.step2_fit, dataclasses.replace(cyc.step2_fit, paths=negated))
        assert cyc_flipped.cyclic_paths == {key: -value for key, value in cyc.cyclic_paths.items()}


def assert_same_fit(a, b):
    """Every field of two fits bitwise equal."""
    assert (a.constructs, a.modes, a.iterations, a.converged) == (
        b.constructs, b.modes, b.iterations, b.converged)
    for name in a.constructs:
        assert a.weights[name].tobytes() == b.weights[name].tobytes()
        assert a.loadings[name].tobytes() == b.loadings[name].tobytes()
    assert a.paths == b.paths and a.r_squared == b.r_squared


def test_fit_is_the_same_on_prepared_data_and_on_moments():
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec)
    bare = Moments(data.corr, data.block_index, data.columns)
    fit, fit_bare = fit_pls(data, spec), fit_pls(bare, spec)
    assert_same_fit(fit, fit_bare)
    cyc, cyc_bare = estimate_cyclic(data, fit, spec), estimate_cyclic(bare, fit_bare, spec)
    assert_same_fit(cyc.step2_fit, cyc_bare.step2_fit)
    assert cyc_bare.step2_spec == cyc.step2_spec
    assert cyc_bare.cyclic_paths == cyc.cyclic_paths
    assert cyc_bare.paired_sequential == cyc.paired_sequential


def test_bootstrap_makes_no_point_fit_and_replicates_on_moments(monkeypatch):
    point = recorded_stacks(monkeypatch, plscore)  # every fit_pls
    step1, step2 = recorded_stacks(monkeypatch, resample), recorded_stacks(monkeypatch, cyclic)
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec)
    fits = point_fits(data, spec)
    # step 2 runs at its own width: the step-1 score and the targets' 3 + 4 columns
    assert [corr.shape for corr, _ in point + step2] == [(1, 11, 11), (1, 8, 8)]
    point.clear()
    step2.clear()
    bootstrap(data, spec, b=100, seed=2, **fits)
    assert point == []
    # the replicates reach the core as one stack of R: 11 columns, then the
    # step-1 score and the targets' columns
    assert [corr.shape for corr, _ in step1] == [(100, 11, 11)]
    assert [corr.shape for corr, _ in step2] == [(100, 8, 8)]


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-2])
def test_estimates_are_the_given_fits_bit_for_bit(tol):
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec)
    fits = point_fits(data, spec, tol=tol)
    fit, cyc = fits["fit"], fits["cyclic"]
    if tol != DEFAULT_TOL:  # a refit at the bootstrap's own tol would differ
        assert fit.paths != fit_pls(data, spec).paths
    boot = bootstrap(data, spec, b=100, seed=2, **fits)
    assert {k: s.estimate for k, s in boot.paths.items()} == fit.paths
    assert {k: s.estimate for k, s in boot.cyclic_paths.items()} == cyc.cyclic_paths
    for (name, col), stats in boot.loadings.items():
        j = data.columns.index(col) - data.block_index[name][0]
        assert stats.estimate == fit.loadings[name][j]


def test_a_given_fit_that_did_not_converge_is_rejected():
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec)
    fit = fit_pls(data, spec, max_iter=2)
    assert not fit.converged
    with pytest.raises(EstimationError, match="^weights did not converge within 2 iterations$"):
        bootstrap(data, spec, b=100, fit=fit)


class GramCounter(np.ndarray):
    """A matrix that counts the products of itself (or its views) with itself."""

    grams = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and all(isinstance(x, GramCounter) for x in inputs):
            GramCounter.grams += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, GramCounter) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_one_prepared_data_set_forms_its_gram_matrix_once(monkeypatch):
    spec = parse_model(CYCLIC_MODEL)
    plain = cyclic_data(spec)
    data = dataclasses.replace(plain, matrix=plain.matrix.view(GramCounter))
    monkeypatch.setattr(GramCounter, "grams", 0)
    fit = fit_pls(data, spec)
    cyc = estimate_cyclic(data, fit, spec)
    boot = bootstrap(data, spec, b=100, seed=2, fit=fit, cyclic=cyc)
    report = assess(fit, data, boot)
    assert GramCounter.grams == 1
    assert fit.paths == fit_pls(plain, spec).paths
    assert cyc.cyclic_paths == estimate_cyclic(plain, fit, spec).cyclic_paths
    assert report == assess(fit, plain, boot)


def exact_moments(data, seed, r):
    """The replicate's correlation matrix from the exact path, or its DataError."""
    n = data.matrix.shape[0]
    counts = np.bincount(resample._replicate_rng(seed, r).integers(0, n, size=n), minlength=n)
    try:
        return resample._resampled_moments(data, counts)
    except DataError as exc:
        return exc


def batched_moments(data, seed, b):
    """Each replicate's correlation matrix as ``bootstrap`` obtains it, or its DataError."""
    corr, failures = resample._replicate_moments(data, seed, b)
    return [DataError(failure) if failure else r for r, failure in zip(corr, failures)]


def recorded_halves(monkeypatch):
    """The (replicates, chunk length) of every ``_batched_correlations`` call in this process."""
    calls = []
    real = resample._batched_correlations
    monkeypatch.setattr(resample, "_batched_correlations", lambda data, counts, chunk, corr:
                        calls.append((len(counts), chunk)) or real(data, counts, chunk, corr))
    return calls


def exact_path_counts(monkeypatch):
    """The counts of every replicate that goes to ``_resampled_moments``."""
    calls = []
    real = resample._resampled_moments
    monkeypatch.setattr(
        resample, "_resampled_moments", lambda data, counts: calls.append(counts) or real(data, counts)
    )
    return calls


def assert_same_moments(data, seed, b, tol=1e-13):
    for r, got in enumerate(batched_moments(data, seed, b)):
        expected = exact_moments(data, seed, r)
        if isinstance(expected, DataError):
            assert isinstance(got, DataError) and str(got) == str(expected)
        else:
            assert max_diff(got, expected) <= tol


@pytest.mark.parametrize(
    "n, chunk, rows",
    [
        (300, 7, 16),  # 15 chunks, the last of 2; 19 row blocks, the last of 12
        (320, 25, 16),  # 4 full chunks; rows a multiple of the block
        (301, 100, 1),  # one chunk; one row per block
        (150, 3, 400),  # 34 chunks, the last of 1; one block larger than n
    ],
)
def test_chunked_moments_match_exact_moments(monkeypatch, n, chunk, rows):
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec, n=n)
    set_budgets(monkeypatch, data, chunk, rows)
    exact, halves = exact_path_counts(monkeypatch), recorded_halves(monkeypatch)
    corr, failures = resample._replicate_moments(data, seed=3, b=100)
    lengths = [min(chunk, 100 - start) for start in range(0, 100, chunk)]
    # the front halves of every chunk, then the back ones, all into one stack
    assert halves == [(size // 2, size) for size in lengths] + [
        (size - size // 2, size) for size in lengths]
    assert corr.shape == (100, 11, 11) and corr.flags.c_contiguous
    assert exact == [] and failures == [None] * 100
    assert_same_moments(data, seed=3, b=100)


def one_byte_correlations(data, counts, chunk):
    """``_batched_correlations`` as it was on uint8 counts, one byte a row."""
    x = data.matrix
    n, p = x.shape
    upper = np.triu_indices(p)
    width = p + len(upper[0])
    rows = max(1, resample._ROW_BLOCK_BYTES // (8 * (width + chunk)))
    sums = np.zeros((len(counts), width))
    block = np.empty((min(rows, n), width))
    for lo in range(0, n, rows):
        xb = x[lo:lo + rows]
        zb = block[: len(xb)]
        zb[:, :p] = xb
        np.multiply(xb[:, upper[0]], xb[:, upper[1]], out=zb[:, p:])
        sums += counts[:, lo:lo + rows] @ zb
    sums /= n
    cov = np.empty((len(counts), p, p))
    cov[:, upper[0], upper[1]] = cov[:, upper[1], upper[0]] = sums[:, p:]
    scale = np.maximum(np.diagonal(cov, axis1=1, axis2=2), 1.0)
    cov -= sums[:, :p, None] * sums[:, None, :p]
    var = np.diagonal(cov, axis1=1, axis2=2)
    holds = np.all(var > resample._VARIANCE_CUT * scale, axis=1)
    std = np.sqrt(np.where(holds[:, None], var, 1.0))
    return cov / (std[:, :, None] * std[:, None, :]), holds


def one_byte_moments(data, seed, b):
    """Every replicate's correlation matrix from one-byte counts, in the chunk
    halves of ``_replicate_moments``; NaN where the exact path fails."""
    n = data.matrix.shape[0]
    size = max(1, min(b, resample._COUNT_BUFFER_BYTES // n))
    out = []
    for start in range(0, b, size):
        stop = min(start + size, b)
        mid = start + (stop - start) // 2
        for first, last in ((start, mid), (mid, stop)):
            drawn = np.array([
                np.bincount(resample._replicate_rng(seed, r).integers(0, n, size=n), minlength=n)
                for r in range(first, last)]).reshape(last - first, n)
            corr, holds = one_byte_correlations(data, drawn.astype(np.uint8), stop - start)
            for i in np.flatnonzero(~holds | (drawn.max(axis=1) > 255)):
                try:
                    corr[i] = resample._resampled_moments(data, drawn[i])
                except DataError:
                    corr[i] = np.nan
            out.append(corr)
    return np.concatenate(out)


@pytest.mark.parametrize(
    "n, chunk, rows",
    [
        (301, 7, 15),  # odd n; odd row blocks, every other one starting mid-byte
        (300, 10, 1),  # one row per block
        (1001, 130, 78),  # one chunk longer than B, whose 100 set 91-row blocks; odd n
    ],
)
def test_packed_counts_give_the_one_byte_moments_bit_for_bit(monkeypatch, n, chunk, rows):
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec, n=n)
    set_budgets(monkeypatch, data, chunk, rows)
    got, _ = resample._replicate_moments(data, seed=5, b=100)
    assert np.array_equal(got, one_byte_moments(data, seed=5, b=100), equal_nan=True)


def test_a_bootstrap_half_peaks_below_two_thirds_of_a_table():
    # beside the prepared matrix: the half's 4-bit counts (50 x n/2 bytes,
    # 0.28 tables) and one replicate's int64 draw and counts
    data = cyclic_data(parse_model(CYCLIC_MODEL), n=TABLE_SHAPE[0])
    corr = np.full((100, 11, 11), np.nan)
    peak = traced_peak_tables(lambda: resample._half_moments(data, 0, [(0, 50, 100)], False, corr))
    assert not np.isnan(corr[:50]).any() and np.isnan(corr[50:]).all()
    assert peak < 0.65


def padded_step2(corr, weights, block_index, step2_spec, tol, max_iter, failures):
    """``cyclic._fit_step2`` as it was: every R padded by the score's row and
    column, which ``_fit_stack`` then gathers to the step-2 columns."""
    source, *targets = step2_spec.block_names()
    lo, hi = block_index[source]
    p = corr.shape[1]
    cov = (corr[:, :, lo:hi] @ weights[..., None])[..., 0]
    extended = np.pad(corr, ((0, 0), (0, 1), (0, 1)))
    extended[:, p, :p] = extended[:, :p, p] = cov
    extended[:, p, p] = (cov[:, None, lo:hi] @ weights[..., None])[:, 0, 0]
    index = {source: (p, p + 1), **{t: block_index[t] for t in targets}}
    step2 = plscore._fit_stack(extended, step2_spec, index, tol, max_iter, failures)
    failed = f"step-2 estimation did not converge in {max_iter} iterations"
    failures[:] = [f or (None if done else failed) for f, done in zip(failures, step2[5])]
    return step2, index


# every mode among the step-2 targets, listed out of declaration order
MIXED_TARGETS = {
    "blocks": [
        {"name": "F", "mode": "formative", "indicators": ["f1", "f2", "f3"]},
        {"name": "M", "mode": "mca-single-item", "indicators": ["m1", "m2", "m3"]},
        {"name": "R", "indicators": ["r1", "r2"]},
        {"name": "S", "mode": "single-item", "indicators": ["s"]},
        {"name": "Y", "indicators": ["y1", "y2", "y3"]},
    ],
    "paths": [{"source": "F", "target": "M"}, {"source": "M", "target": "R"},
              {"source": "R", "target": "Y"}, {"source": "S", "target": "Y"}],
    "cyclic": {"source": "Y", "targets": ["S", "M", "F", "R"]},
}


@st.composite
def stacked_cases(draw):
    """A model document with a cyclic section, the replicates of an m-stack
    that have already failed, a seed for the stack, and max_iter."""
    k = draw(st.integers(2, 6))
    modes = draw(st.lists(st.sampled_from(MODES), min_size=k, max_size=k))
    sizes = [1 if mode == "single-item" else draw(st.integers(1 if mode == "reflective" else 2, 4))
             for mode in modes]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    source = draw(st.integers(0, k - 1))
    others = [i for i in range(k) if i != source]
    targets = draw(st.lists(st.sampled_from(others), min_size=1, max_size=len(others), unique=True))
    m = draw(st.integers(1, 6))
    doc = {
        "blocks": [
            {"name": f"C{i}", "mode": mode, "indicators": [f"c{i}_{j}" for j in range(size)]}
            for i, (mode, size) in enumerate(zip(modes, sizes))
        ],
        "paths": [{"source": f"C{i}", "target": f"C{j}"}
                  for (i, j), keep in zip(pairs, edges) if keep],
        "cyclic": {"source": f"C{source}", "targets": [f"C{t}" for t in targets]},
        "scheme": draw(st.sampled_from(SCHEMES)),
    }
    failed = draw(st.lists(st.integers(0, m - 1), max_size=2, unique=True))
    return doc, m, tuple(failed), draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([1, 300]))


def replicate_stack(spec, m, seed, extra=0):
    """A prepared layout of ``spec`` (an mca block is its one score column) and
    an (m, p + extra, p + extra) stack of sample correlation matrices of
    columns that load on correlated constructs, the ``extra`` ones last."""
    rng = np.random.default_rng(seed)
    index, sizes = {}, []
    for block in spec.blocks:
        sizes.append(1 if block.mode in UNIT_MODES else len(block.indicators))
        index[block.name] = (sum(sizes) - sizes[-1], sum(sizes))
    k, n = len(sizes), 60
    owner = np.repeat(np.arange(k), sizes)
    stack = []
    for _ in range(m):
        latent = rng.standard_normal((n, k)) @ (np.eye(k) + rng.uniform(-0.5, 0.5, (k, k)))
        x = latent[:, owner] * rng.uniform(0.4, 0.9, len(owner)) + 0.6 * rng.standard_normal(
            (n, len(owner)))
        stack.append(np.corrcoef(np.hstack([x, rng.standard_normal((n, extra))]), rowvar=False))
    return index, np.array(stack)


def failing(m, failed, corr):
    """The ``failures`` of an m-stack whose ``failed`` replicates failed before
    the fit, their R set to NaN as a degenerate resample can leave it."""
    corr[list(failed)] = np.nan
    return ["degenerate resampled column 'x'" if j in failed else None for j in range(m)]


def assert_same_stack_fits(a, b):
    """Two (``_fit_stack`` result, failures) pairs, equal bit for bit."""
    (result_a, failures_a), (result_b, failures_b) = a, b
    assert failures_a == failures_b
    for part_a, part_b in zip(result_a, result_b, strict=True):
        assert np.array_equal(part_a, part_b, equal_nan=True)


@settings(deadline=None, derandomize=True, max_examples=80)
@given(stacked_cases())
@example((MIXED_TARGETS, 5, (2,), 0, DEFAULT_MAX_ITER))
@example((MIXED_TARGETS, 4, (), 1, 1))
def test_step2_at_its_own_width_is_the_padded_stack_bit_for_bit(case):
    doc, m, failed, seed, max_iter = case
    spec = parse_model(doc)
    step2_spec = build_feedback_model(SimpleNamespace(constructs=spec.block_names()), spec)
    index, corr = replicate_stack(spec, m, seed)
    failures = failing(m, failed, corr)
    lo, hi = index[spec.cyclic.source]
    raw = np.random.default_rng(seed).uniform(0.2, 1.0, (m, hi - lo))
    weights = raw / np.sqrt(np.einsum("ms,mst,mt->m", raw, corr[:, lo:hi, lo:hi], raw))[:, None]
    fits = []
    for step2 in (cyclic._fit_step2, padded_step2):
        after = list(failures)
        result, _ = step2(corr, weights, index, step2_spec, DEFAULT_TOL, max_iter, after)
        fits.append((result, after))
    assert_same_stack_fits(*fits)


@settings(deadline=None, derandomize=True, max_examples=80)
@given(stacked_cases(), st.data())
def test_a_stack_with_columns_outside_the_model_fits_as_its_own_r(case, data):
    # the gather path of _fit_stack, as a Moments with more columns than the
    # model takes it, against the in-place path on the model's own R
    doc, m, failed, seed, max_iter = case
    spec = parse_model(doc)
    index, wide = replicate_stack(spec, m, seed, extra=2)
    p = wide.shape[1] - 2
    own = np.ascontiguousarray(wide[:, :p, :p])
    # one outside column between two blocks (or first), the other last
    at = data.draw(st.sampled_from(sorted({lo for lo, _ in index.values()})), label="at")
    order = [*range(at), p, *range(at, p), p + 1]
    wide = wide[:, order][:, :, order]
    shifted = {name: (lo + (lo >= at), hi + (lo >= at)) for name, (lo, hi) in index.items()}
    fits = []
    for corr, block_index in ((wide, shifted), (own, index)):
        failures = failing(m, failed, corr)
        fits.append((plscore._fit_stack(corr, spec, block_index, DEFAULT_TOL, max_iter, failures),
                     failures))
    assert_same_stack_fits(*fits)


def test_a_strided_r_fits_as_its_c_ordered_copy():
    # R is read in place only in C order, and a gathered R is made C-ordered:
    # on a strided R, the matrix-vector products of a one-block model round
    # differently
    spec = parse_model({"blocks": [{"name": "A", "indicators": ["a1", "a2", "a3", "a4"]}]})
    index, wide = replicate_stack(spec, 30, seed=0, extra=1)
    corr = np.ascontiguousarray(wide[:, :4, :4])
    strided = np.ascontiguousarray(corr.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert not strided.flags.c_contiguous and np.array_equal(strided, corr)
    fits = [(plscore._fit_stack(r, spec, index, DEFAULT_TOL, DEFAULT_MAX_ITER, [None] * 30), None)
            for r in (corr, strided, wide)]
    assert_same_stack_fits(fits[0], fits[1])
    assert_same_stack_fits(fits[0], fits[2])


# a wide survey: 33 prepared columns in blocks of every mode, and a 7-target step 2
WIDE_BLOCKS = [("C1", 5, "reflective"), ("C2", 5, "reflective"), ("C3", 4, "formative"),
               ("C4", 6, "reflective"), ("C5", 5, "mca-single-item"), ("C6", 5, "reflective"),
               ("C7", 1, "single-item"), ("C8", 6, "reflective")]
WIDE_PATHS = [("C1", "C2", 0.5), ("C1", "C3", 0.4), ("C2", "C4", 0.4), ("C3", "C4", 0.3),
              ("C4", "C5", 0.5), ("C2", "C5", 0.2), ("C5", "C6", 0.4), ("C4", "C6", 0.3),
              ("C6", "C7", 0.5), ("C6", "C8", 0.4), ("C7", "C8", 0.3)]


def wide_data():
    """The wide survey's spec and its 2,000 prepared rows."""
    pop, _ = parse_population({
        "kind": "acyclic", "n": 2_000, "seed": 1,
        "constructs": [{"name": name, "single_item": True} if size == 1
                       else {"name": name, "loadings": [0.75] * size}
                       for name, size, _ in WIDE_BLOCKS],
        "paths": [{"source": s, "target": t, "coefficient": c} for s, t, c in WIDE_PATHS],
    })
    table = gen_acyclic(pop)
    binary = [j for j, col in enumerate(table.header) if col.startswith("C5")]
    table.values[:, binary] = table.values[:, binary] > 0
    spec = parse_model({
        "blocks": [{"name": name, "mode": mode,
                    "indicators": [f"{name}_{j + 1}" for j in range(size)]}
                   for name, size, mode in WIDE_BLOCKS],
        "paths": [{"source": s, "target": t} for s, t, _ in WIDE_PATHS],
        "cyclic": {"source": "C8"},
    })
    return spec, prepare_blocks(table, spec)


def test_stacked_fits_peak_near_their_stack():
    # the fits read R in place (step 2 at its own 28 columns), so what they
    # hold beside their 100 x 33 x 33 stack is their per-iteration temporaries
    spec, data = wide_data()
    corr, failures = resample._replicate_moments(data, seed=0, b=100)
    assert corr.shape == (100, 33, 33) and failures == [None] * 100
    fits = []
    peak1 = traced_peak_bytes(lambda: fits.append(plscore._fit_stack(
        corr, spec, data.block_index, DEFAULT_TOL, DEFAULT_MAX_ITER, list(failures))))
    weights = np.ascontiguousarray(fits[0][0][:, slice(*data.block_index["C8"])])
    step2_spec = build_feedback_model(SimpleNamespace(constructs=spec.block_names()), spec)
    peak2 = traced_peak_bytes(lambda: cyclic._fit_step2(
        corr, weights, data.block_index, step2_spec, DEFAULT_TOL, DEFAULT_MAX_ITER, list(failures)))
    # about 1.25 and 1.85 stacks (step 2's includes the stack it builds);
    # re-gathering the live rows as replicates converged made step 1's 2.0,
    # and gathering R and padding step 2's stack made 3.7 each
    assert peak1 / corr.nbytes < 1.5
    assert peak2 / corr.nbytes < 2.75


def test_bootstrap_holds_one_stack_when_it_fits(monkeypatch):
    # the moments are written into their places in the one stack, so none of
    # their halves outlives the moment step; a stack built by joining chunks
    # and halves held 2.6 stacks at the fit and peaked at 4.6
    spec, data = wide_data()
    fits = point_fits(data, spec)
    held, real = [], resample._fit_stack

    def fit_stack(corr, *args):
        held.append((tracemalloc.get_traced_memory()[0], corr.nbytes))
        return real(corr, *args)

    monkeypatch.setattr(resample, "_fit_stack", fit_stack)
    peak = traced_peak_bytes(lambda: bootstrap(data, spec, b=100, seed=0, **fits))
    (at_fit, stack), = held
    assert stack == 100 * 33 * 33 * 8
    assert at_fit / stack < 1.5
    assert peak / stack < 3.5


REAL_RNG = resample._replicate_rng


class StubbedDraw:
    """Replicate draws with one row taken 300 times in replicate 5, every draw
    on one row in replicate 6, and one row taken exactly 15 times in replicate
    7 and 16 times in replicate 8 (the most a 4-bit count holds, and one
    more); the rest as ``_replicate_rng`` draws them."""

    def __init__(self, seed, r):
        self.rng, self.r = REAL_RNG(seed, r), r

    def integers(self, low, high, size):
        idx = self.rng.integers(low, high, size=size)
        if self.r == 5:
            idx[:300] = 0
        elif self.r == 6:
            idx[:] = 1
        elif self.r in (7, 8):
            idx[idx == 0] = 1
            idx[: self.r + 8] = 0
        return idx


@pytest.fixture
def stubbed_draws(monkeypatch):
    monkeypatch.setattr(resample, "_replicate_rng", StubbedDraw)
    monkeypatch.setattr(oracle, "_replicate_rng", StubbedDraw)


def test_rows_drawn_past_4_bits_take_the_exact_path(stubbed_draws, monkeypatch):
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec, n=1000)
    set_budgets(monkeypatch, data, chunk=4, rows=64)
    exact = exact_path_counts(monkeypatch)
    _, failures = resample._replicate_moments(data, seed=2, b=12)
    drawn = {r: np.bincount(StubbedDraw(2, r).integers(0, 1000, size=1000), minlength=1000)
             for r in (5, 6, 7, 8)}
    assert drawn[5].max() >= 300 and [drawn[r].max() for r in (6, 7, 8)] == [1000, 15, 16]
    # the front halves [4, 6) and [8, 10) run first; the replicate whose
    # busiest row is drawn 15 times stays batched
    assert [counts.tolist() for counts in exact] == [drawn[r].tolist() for r in (5, 8, 6)]
    assert failures == [None] * 6 + ["zero variance in a resampled column"] + [None] * 5
    assert_same_moments(data, seed=2, b=12)
    assert isinstance(batched_moments(data, seed=2, b=12)[6], DataError)


def test_stubbed_heavy_and_degenerate_replicates_match_data_space_reference(stubbed_draws):
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec, n=1000)
    boot = bootstrap(data, spec, b=100, seed=2, **point_fits(data, spec))
    reps = oracle.replicates(data, spec, b=100, seed=2)
    assert reps[6] == "zero variance in a resampled column"
    assert boot.failures == 1 and boot.failure_reasons == {"zero variance": 1}
    reps = [rep for rep in reps if isinstance(rep, tuple)]
    for key, stats in boot.paths.items():
        assert max_diff(stats.replicates, [paths[key] for paths, _, _ in reps]) <= TOL
    for key, stats in boot.cyclic_paths.items():
        assert max_diff(stats.replicates, [cyc[key] for _, _, cyc in reps]) <= TOL


def test_replicates_fit_through_the_resample_module_names(stubbed_draws, monkeypatch):
    # one stacked step-1 fit and one stacked step 2 on all B replicates, however
    # many chunks their count matrices take; the point fits are the caller's,
    # so resample has no name to make them
    assert not hasattr(resample, "fit_pls") and not hasattr(resample, "estimate_cyclic")
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec, n=1000)
    fits = point_fits(data, spec)
    step1, step2 = recorded_stacks(monkeypatch, resample), recorded_stacks(monkeypatch, cyclic)
    set_budgets(monkeypatch, data, chunk=40, rows=64)
    boot = bootstrap(data, spec, b=100, seed=2, **fits)
    assert boot.b_effective == 99
    assert [len(corr) for corr, _ in step1] == [100]
    assert [len(corr) for corr, _ in step2] == [100]


def two_steps(spec, index, corr, failures, max_iter):
    """Step 1 and then step 2 on a stack, as ``bootstrap`` runs them: both
    ``_fit_stack`` results' parts, and ``failures`` after both."""
    step2_spec = build_feedback_model(SimpleNamespace(constructs=spec.block_names()), spec)
    step1 = plscore._fit_stack(corr, spec, index, DEFAULT_TOL, max_iter, failures)
    failures[:] = [f or (None if done else "replicate weights did not converge")
                   for f, done in zip(failures, step1[5])]
    weights = np.ascontiguousarray(step1[0][:, slice(*index[spec.cyclic.source])])
    step2, _ = cyclic._fit_step2(corr, weights, index, step2_spec, DEFAULT_TOL, max_iter, failures)
    return [*step1, *step2], failures


def assert_replicates_fit_as_alone(spec, index, corr, failures, max_iter):
    """Each replicate of both stacked steps, bit for bit its one-replicate fit."""
    whole, whole_failures = two_steps(spec, index, corr, list(failures), max_iter)
    for j in range(len(corr)):
        alone, alone_failures = two_steps(spec, index, corr[j:j + 1], failures[j:j + 1], max_iter)
        assert alone_failures == whole_failures[j:j + 1]
        for part, lone in zip(whole, alone, strict=True):
            assert part[j:j + 1].tobytes() == lone.tobytes()
    return whole


def test_each_stacked_replicate_is_its_lone_fit_bit_for_bit():
    # a replicate's block sums are formed per replicate, so its bits do not
    # depend on the stack it is fitted in: as (m, q) @ (q, k) products, a
    # one-replicate stack would take numpy's matrix-vector path and round apart
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec, n=1000)
    corr, failures = resample._replicate_moments(data, 2, 12)
    assert failures == [None] * 12
    whole = assert_replicates_fit_as_alone(spec, data.block_index, corr, failures,
                                           DEFAULT_MAX_ITER)
    for j in range(12):
        stacked = plscore._as_fit(spec, data.block_index, [part[j:j + 1] for part in whole[:6]])
        assert_same_fit(stacked, fit_pls(Moments(corr[j], data.block_index, data.columns), spec))


@settings(deadline=None, derandomize=True, max_examples=80)
@given(stacked_cases())
@example((MIXED_TARGETS, 5, (2,), 0, DEFAULT_MAX_ITER))
@example((MIXED_TARGETS, 4, (), 1, 1))
def test_each_stacked_replicate_of_any_model_is_its_lone_fit_bit_for_bit(case):
    doc, m, failed, seed, max_iter = case
    spec = parse_model(doc)
    index, corr = replicate_stack(spec, m, seed)
    assert_replicates_fit_as_alone(spec, index, corr, failing(m, failed, corr), max_iter)


@pytest.mark.parametrize("cuts", [[3, 7], [6], [3, 9], list(range(1, 12)), [1, 2, 11]])
def test_a_stacked_fit_is_the_fits_of_its_slices_bit_for_bit(stubbed_draws, cuts):
    # bootstrap fits all its replicates as one stack, whatever chunks their
    # counts took. Replicate 2 has failed before the fit, 5 stops short of
    # convergence at 6 iterations (the others take 4) and 6 has a zero variance
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec, n=1000)
    corr, failures = resample._replicate_moments(data, 2, 12)
    failures[2] = "singular system: collinear predecessors of 'IU'"
    whole, whole_failures = two_steps(spec, data.block_index, corr, list(failures), 6)
    parts = [two_steps(spec, data.block_index, corr[lo:hi], failures[lo:hi], 6)
             for lo, hi in zip([0, *cuts], [*cuts, 12])]
    assert whole_failures == [f for _, part in parts for f in part]
    assert [(j, f.split(" ")[0]) for j, f in enumerate(whole_failures) if f] == [
        (2, "singular"), (5, "replicate"), (6, "zero")]
    for j, out in enumerate(whole):
        assert out.tobytes() == np.concatenate([outs[j] for outs, _ in parts]).tobytes()


def on_one_cpu(monkeypatch, work):
    with monkeypatch.context() as serial:
        serial.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return work()


def test_the_forked_half_chunks_are_the_serial_bits(stubbed_draws, monkeypatch, forks):
    # chunks of 8: [0, 8) and a ragged [8, 12); the child's halves are [4, 8)
    # and [10, 12), so the row drawn 300 times (replicate 5) and the
    # zero-variance replicate (6) are both the child's
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec, n=1000)
    set_budgets(monkeypatch, data, chunk=8, rows=64)
    serial = on_one_cpu(monkeypatch, lambda: resample._replicate_moments(data, 2, 12))
    assert forks == []
    halves = recorded_halves(monkeypatch)
    forked = resample._replicate_moments(data, 2, 12)
    assert len(forks) == 1
    assert halves == [(4, 8), (2, 4)]  # this process computed the front halves alone
    assert (forked[0].tobytes(), forked[1]) == (serial[0].tobytes(), serial[1])
    assert forked[1] == [None] * 6 + ["zero variance in a resampled column"] + [None] * 5
    fits = point_fits(data, spec)
    serial = on_one_cpu(monkeypatch, lambda: resample.bootstrap(data, spec, 100, seed=2, **fits))
    boot = resample.bootstrap(data, spec, 100, seed=2, **fits)
    assert len(forks) == 2
    assert (boot.failures, boot.failure_reasons) == (serial.failures, serial.failure_reasons) == (
        1, {"zero variance": 1})
    for name in ("paths", "loadings", "cyclic_paths"):
        for key, stats in getattr(boot, name).items():
            assert stats.replicates.tobytes() == getattr(serial, name)[key].replicates.tobytes()


def test_a_child_cut_off_after_one_back_half_leaves_the_serial_bits(
        stubbed_draws, monkeypatch, forks):
    # two chunks, so the child sends two back halves, [4, 8) and [10, 12); it
    # promises both and writes the first alone, and this process computes both
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec, n=1000)
    set_budgets(monkeypatch, data, chunk=8, rows=64)
    serial = on_one_cpu(monkeypatch, lambda: resample._replicate_moments(data, 2, 12))
    pipes, real_pipe, real_half = [], os.pipe, resample._half_moments
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(real_pipe()) or pipes[-1])

    def first_half_only(data, seed, chunks, back, corr):
        real_half(data, seed, chunks, back, corr)
        halves = [corr[mid:stop] for _, mid, stop in chunks]
        with open(pipes[-1][1], "wb", closefd=False) as out:
            out.write(sum(half.nbytes for half in halves).to_bytes(8, "little"))
            out.write(halves[0])
        os._exit(0)

    in_child_only(monkeypatch, resample, "_half_moments", first_half_only)
    received, real_receive = [], resample._receive

    def receive(pipe, *into):
        received.append(real_receive(pipe, *into))
        received.extend(part.tobytes() for part in into)
        return received[0]

    monkeypatch.setattr(resample, "_receive", receive)
    halves = recorded_halves(monkeypatch)
    forked = resample._replicate_moments(data, 2, 12)
    assert len(forks) == 1
    # the first back half came whole, and still both are computed again here
    assert received[:2] == [False, serial[0][4:8].tobytes()]
    assert halves == [(4, 8), (2, 4), (4, 8), (2, 4)]  # the fronts, then the backs again
    assert (forked[0].tobytes(), forked[1]) == (serial[0].tobytes(), serial[1])


def test_no_child_outlives_an_aborted_bootstrap(forks):
    spec = parse_model(PAIR_MODEL)
    a = np.zeros(12)
    a[0] = 1.0
    data = make_prepared(np.column_stack([a, np.random.default_rng(21).normal(size=12)]), spec)
    with pytest.raises(EstimationError, match="bootstrap failure rate"):
        bootstrap(data, spec, b=100, seed=1, **point_fits(data, spec))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


BLAS_THREADS_SCRIPT = """
import os, sys
import numpy as np
sys.path[:0] = sys.argv[1:3]
from plscycle import parse_model, resample
from test_moment_core import CYCLIC_MODEL, cyclic_data
a = np.random.default_rng(0).standard_normal((600, 600))
a @ a  # large enough for OpenBLAS to run its threads before the fork
data = cyclic_data(parse_model(CYCLIC_MODEL), n=3000)
resample._FORK_WORK = 0
fork, pids = os.fork, []
os.fork = lambda: pids.append(fork()) or pids[-1]
forked = resample._replicate_moments(data, 3, 100)
assert len(pids) == 1
os.sched_getaffinity = lambda pid: {0}
serial = resample._replicate_moments(data, 3, 100)
assert (forked[0].tobytes(), forked[1]) == (serial[0].tobytes(), serial[1])
"""


def test_the_forked_bootstrap_runs_beside_blas_threads():
    if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2 or not hasattr(os, "fork"):
        pytest.skip("needs os.fork and two CPUs")
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(resample.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT, src, tests], env=env, check=True,
                   timeout=120)


def reference_failures(data, spec, **kwargs):
    return [rep for rep in oracle.replicates(data, spec, b=100, **kwargs) if isinstance(rep, str)]


def abort(data, spec, seed, max_iter=DEFAULT_MAX_ITER) -> str:
    fits = point_fits(data, spec, max_iter=max_iter)
    with pytest.raises(EstimationError, match="bootstrap failure rate") as info:
        bootstrap(data, spec, b=100, seed=seed, max_iter=max_iter, **fits)
    return str(info.value)


def assert_abort_matches_reference(data, spec, reason, **kwargs):
    failures = reference_failures(data, spec, **kwargs)
    assert len(failures) > 5
    message = abort(data, spec, **kwargs)
    assert message == (
        f"bootstrap failure rate {len(failures)}/100 exceeds 5%; "
        f"failures: {reason} {len(failures)}; last failure: {failures[-1]}"
    )


PAIR_MODEL = {
    "blocks": [
        {"name": "A", "mode": "single-item", "indicators": ["a"]},
        {"name": "B", "mode": "single-item", "indicators": ["b"]},
    ],
    "paths": [{"source": "A", "target": "B"}],
}


def check_zero_variance_replicates(n, budgets):
    # a column constant except for one row loses all its variance whenever
    # that row is not drawn; the resampled moments must see every such case
    spec = parse_model(PAIR_MODEL)
    rng = np.random.default_rng(n)
    a = np.full(n, 0.25)
    a[0] = 3.0
    data = make_prepared(np.column_stack([a, rng.normal(size=n)]), spec)
    budgets(data)
    assert_same_moments(data, seed=1, b=100)
    failures = reference_failures(data, spec, seed=1)
    assert set(failures) == {"zero variance in a resampled column"}
    assert_abort_matches_reference(data, spec, "zero variance", seed=1)


@pytest.mark.parametrize("n", [1001, 5000])
def test_zero_variance_resamples_are_detected_as_in_data_space(n):
    check_zero_variance_replicates(n, default_budgets)


@pytest.mark.parametrize("n", [1001, 5000])
def test_zero_variance_resamples_in_small_chunks_are_detected_as_in_data_space(n, monkeypatch):
    check_zero_variance_replicates(n, small_budgets(monkeypatch))


def twin_columns(n, differing, seed):
    """Two columns equal except in ``differing`` rows, and an outcome."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    twin = x.copy()
    twin[:differing] += rng.normal(1.5, 0.2, size=differing)
    return np.column_stack([x, twin, 0.5 * x + rng.standard_normal(n)])


FORMATIVE_MODEL = {
    "blocks": [
        {"name": "F", "mode": "formative", "indicators": ["f1", "f2"]},
        {"name": "Y", "mode": "single-item", "indicators": ["y"]},
    ],
    "paths": [{"source": "F", "target": "Y"}],
}

COLLINEAR_MODEL = {
    "blocks": [
        {"name": "X1", "mode": "single-item", "indicators": ["x1"]},
        {"name": "X2", "mode": "single-item", "indicators": ["x2"]},
        {"name": "Y", "mode": "single-item", "indicators": ["y"]},
    ],
    "paths": [{"source": "X1", "target": "Y"}, {"source": "X2", "target": "Y"}],
}


SINGULAR_CASES = pytest.mark.parametrize(
    "model, message",
    [
        (FORMATIVE_MODEL, "singular system in formative block 'F'"),
        (COLLINEAR_MODEL, "singular system: collinear predecessors of 'Y'"),
    ],
)


def check_singular_replicates(model, message, budgets):
    spec = parse_model(model)
    # four differing rows: a resample misses all of them about 2% of the time
    rare = make_prepared(twin_columns(400, 4, seed=31), spec)
    budgets(rare)
    failures = reference_failures(rare, spec, seed=1)
    assert 0 < len(failures) <= 5 and set(failures) == {message}
    boot = bootstrap(rare, spec, b=100, seed=1, **point_fits(rare, spec))
    assert boot.failures == len(failures)
    assert boot.failure_reasons == {"singular system": len(failures)}
    # one differing row: about 37% of the resamples are singular
    common = make_prepared(twin_columns(400, 1, seed=32), spec)
    budgets(common)
    assert_abort_matches_reference(common, spec, "singular system", seed=1)


@SINGULAR_CASES
def test_singular_replicates_are_counted_and_abort_past_the_limit(model, message):
    check_singular_replicates(model, message, default_budgets)


@SINGULAR_CASES
def test_singular_replicates_in_small_chunks_are_counted_as_in_data_space(model, message, monkeypatch):
    check_singular_replicates(model, message, small_budgets(monkeypatch))


def test_replicate_non_convergence_aborts_past_the_limit():
    # every row also appears with a1 and a2 swapped, so equal weights are the
    # fixed point of the sample and the fit converges in one iteration; a
    # resample breaks the symmetry and needs more than one
    spec = parse_model({
        "blocks": [
            {"name": "A", "indicators": ["a1", "a2"]},
            {"name": "Y", "mode": "single-item", "indicators": ["y"]},
        ],
        "paths": [{"source": "A", "target": "Y"}],
    })
    rng = np.random.default_rng(41)
    half = rng.standard_normal((200, 3)) @ np.array([[1, 0.5, 0.4], [0, 0.9, 0.3], [0, 0, 0.9]])
    matrix = np.vstack([half, half[:, [1, 0, 2]]])
    data = make_prepared(matrix, spec)
    assert fit_pls(data, spec, max_iter=1).converged
    assert_abort_matches_reference(data, spec, "replicate weights did not converge", seed=5, max_iter=1)
