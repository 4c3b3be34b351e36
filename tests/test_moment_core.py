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
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import data_space_oracle as oracle
from plscycle import (
    DataError,
    EstimationError,
    assess,
    bootstrap,
    estimate_cyclic,
    fit_pls,
    parse_model,
    resample,
)
from plscycle.dataset import Moments
from plscycle.modelspec import SCHEMES

from conftest import make_prepared

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
    assert max_diff(fit.scores, expected["scores"]) <= TOL
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
    full = data.moments()
    assert assess(fit, Moments(full.corr, full.block_index, full.columns)) == report


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


def cyclic_data(spec, n=300, seed=4):
    rng = np.random.default_rng(seed)
    pa = rng.standard_normal(n)
    ds = 0.5 * pa + 0.85 * rng.standard_normal(n)
    iu = 0.2 * pa + 0.6 * ds + 0.7 * rng.standard_normal(n)
    columns = [lam * latent + np.sqrt(1 - lam**2) * rng.standard_normal(n)
               for latent, lam, count in ((pa, 0.8, 3), (ds, 0.75, 4), (iu, 0.7, 4))
               for _ in range(count)]
    return make_prepared(np.column_stack(columns), spec)


def check_bootstrap_matches_reference(budgets):
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec)
    budgets(data)
    boot = bootstrap(data, spec, b=100, seed=9)
    reps = [rep for rep in oracle.replicates(data, spec, b=100, seed=9) if isinstance(rep, tuple)]
    assert boot.b_effective == len(reps) == 100
    for key, stats in boot.paths.items():
        assert max_diff(stats.replicates, [paths[key] for paths, _, _ in reps]) <= TOL
    for (name, col), stats in boot.loadings.items():
        j = data.columns.index(col) - data.block_index[name][0]
        assert max_diff(stats.replicates, [lam[name][j] for _, lam, _ in reps]) <= TOL
    assert set(boot.cyclic_paths) == {("IU", "PA"), ("IU", "DS")}
    for key, stats in boot.cyclic_paths.items():
        assert max_diff(stats.replicates, [cyc[key] for _, _, cyc in reps]) <= TOL


def test_bootstrap_replicates_match_data_space_reference():
    check_bootstrap_matches_reference(default_budgets)


def test_bootstrap_replicates_in_small_chunks_match_data_space_reference(monkeypatch):
    check_bootstrap_matches_reference(small_budgets(monkeypatch))


def test_fit_on_moments_alone_builds_no_scores():
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec)
    full = data.moments()
    bare = Moments(full.corr, full.block_index, full.columns)
    fit, fit_bare = fit_pls(data, spec), fit_pls(bare, spec)
    assert fit_bare.scores is None
    with pytest.raises(ValueError, match="no scores"):
        fit_bare.score("IU")
    assert fit_bare.paths == fit.paths and fit_bare.iterations == fit.iterations
    cyc, cyc_bare = estimate_cyclic(data, fit, spec), estimate_cyclic(bare, fit_bare, spec)
    assert cyc_bare.step2_fit.scores is None
    assert cyc_bare.cyclic_paths == cyc.cyclic_paths


def test_bootstrap_refits_its_point_estimates_on_moments(monkeypatch):
    inputs = []

    def recorded(inner):
        def wrapper(data, *args, **kwargs):
            inputs.append(type(data))
            return inner(data, *args, **kwargs)
        return wrapper

    for name in ("fit_pls", "estimate_cyclic"):
        monkeypatch.setattr(resample, name, recorded(getattr(resample, name)))
    spec = parse_model(CYCLIC_MODEL)
    bootstrap(cyclic_data(spec), spec, b=100, seed=2)
    assert len(inputs) == 2 * 101 and set(inputs) == {Moments}


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
    boot = bootstrap(data, spec, b=100, seed=2)
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
        return resample._resampled_moments(data, counts).corr
    except DataError as exc:
        return exc


def batched_moments(data, seed, b):
    """Each replicate's correlation matrix as ``bootstrap`` obtains it, or its DataError."""
    out = []
    for rep in resample._replicate_moments(data, seed, b):
        try:
            out.append((rep if isinstance(rep, Moments) else resample._resampled_moments(data, rep)).corr)
        except DataError as exc:
            out.append(exc)
    return out


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
    reps = list(resample._replicate_moments(data, seed=3, b=100))
    assert all(isinstance(rep, Moments) for rep in reps)
    assert_same_moments(data, seed=3, b=100)


REAL_RNG = resample._replicate_rng


class StubbedDraw:
    """Replicate draws with one row taken 300 times in replicate 5 and every
    draw on one row in replicate 6; the rest as ``_replicate_rng`` draws them."""

    def __init__(self, seed, r):
        self.rng, self.r = REAL_RNG(seed, r), r

    def integers(self, low, high, size):
        idx = self.rng.integers(low, high, size=size)
        if self.r == 5:
            idx[:300] = 0
        elif self.r == 6:
            idx[:] = 1
        return idx


@pytest.fixture
def stubbed_draws(monkeypatch):
    monkeypatch.setattr(resample, "_replicate_rng", StubbedDraw)
    monkeypatch.setattr(oracle, "_replicate_rng", StubbedDraw)


def test_row_drawn_past_uint8_takes_the_exact_path(stubbed_draws, monkeypatch):
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec, n=1000)
    set_budgets(monkeypatch, data, chunk=4, rows=64)
    reps = list(resample._replicate_moments(data, seed=2, b=12))
    assert [isinstance(rep, Moments) for rep in reps] == [r not in (5, 6) for r in range(12)]
    assert reps[5].max() >= 300 and reps[6].max() == 1000
    assert_same_moments(data, seed=2, b=12)
    assert isinstance(batched_moments(data, seed=2, b=12)[6], DataError)


def test_stubbed_heavy_and_degenerate_replicates_match_data_space_reference(stubbed_draws):
    spec = parse_model(CYCLIC_MODEL)
    data = cyclic_data(spec, n=1000)
    boot = bootstrap(data, spec, b=100, seed=2)
    reps = oracle.replicates(data, spec, b=100, seed=2)
    assert reps[6] == "zero variance in a resampled column"
    assert boot.failures == 1 and boot.failure_reasons == {"zero variance": 1}
    reps = [rep for rep in reps if isinstance(rep, tuple)]
    for key, stats in boot.paths.items():
        assert max_diff(stats.replicates, [paths[key] for paths, _, _ in reps]) <= TOL
    for key, stats in boot.cyclic_paths.items():
        assert max_diff(stats.replicates, [cyc[key] for _, _, cyc in reps]) <= TOL


def test_replicates_fit_through_the_resample_module_names(stubbed_draws, monkeypatch):
    # a benchmark traces replicate fits by replacing these module attributes
    calls = {"fit_pls": 0, "estimate_cyclic": 0}

    def counted(name):
        inner = getattr(resample, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(resample, name, counted(name))
    spec = parse_model(CYCLIC_MODEL)
    boot = bootstrap(cyclic_data(spec, n=1000), spec, b=100, seed=2)
    assert boot.b_effective == 99
    assert calls == {"fit_pls": 1 + 99, "estimate_cyclic": 1 + 99}


def reference_failures(data, spec, **kwargs):
    return [rep for rep in oracle.replicates(data, spec, b=100, **kwargs) if isinstance(rep, str)]


def abort(data, spec, **kwargs) -> str:
    with pytest.raises(EstimationError, match="bootstrap failure rate") as info:
        bootstrap(data, spec, b=100, **kwargs)
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
    boot = bootstrap(rare, spec, b=100, seed=1)
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
