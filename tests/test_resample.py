import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plscycle import (
    EstimationError,
    bootstrap,
    fit_pls,
    parse_model,
    percentile_ci,
)

from conftest import exact_correlation_sample, make_prepared, point_fits


def test_nearest_rank_interval_on_1_to_100():
    reps = np.arange(1.0, 101.0)
    assert percentile_ci(reps, 0.95) == (3.0, 98.0)
    assert percentile_ci(reps, 0.90) == (5.0, 95.0)
    assert percentile_ci(reps, 0.50) == (25.0, 75.0)


def test_interval_ignores_input_order():
    reps = np.arange(1.0, 101.0)
    rng = np.random.default_rng(0)
    shuffled = rng.permutation(reps)
    assert percentile_ci(shuffled, 0.95) == percentile_ci(reps, 0.95)


def test_extreme_level_clamps_to_observed_range():
    reps = np.array([4.0, 1.0, 3.0])
    assert percentile_ci(reps, 0.999) == (1.0, 4.0)


def test_interval_argument_validation():
    with pytest.raises(ValueError, match="non-empty"):
        percentile_ci(np.array([]), 0.95)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="level must be in"):
            percentile_ci(np.array([1.0, 2.0]), bad)


def test_intervals_nest_as_level_grows():
    rng = np.random.default_rng(3)
    reps = rng.normal(size=400)
    lo50, hi50 = percentile_ci(reps, 0.5)
    lo90, hi90 = percentile_ci(reps, 0.9)
    lo99, hi99 = percentile_ci(reps, 0.99)
    assert lo99 <= lo90 <= lo50 <= hi50 <= hi90 <= hi99


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=60),
    st.floats(0.01, 0.99),
)
def test_interval_bounds_are_order_statistics(values, level):
    reps = np.asarray(values)
    lo, hi = percentile_ci(reps, level)
    assert lo in reps and hi in reps
    assert reps.min() <= lo <= hi <= reps.max()


PAIR_MODEL = {
    "blocks": [
        {"name": "A", "mode": "single-item", "indicators": ["a"]},
        {"name": "B", "mode": "single-item", "indicators": ["b"]},
    ],
    "paths": [{"source": "A", "target": "B"}],
}


def pair_data(spec, rho=0.6, n=5000, seed=11):
    target = np.array([[1.0, rho], [rho, 1.0]])
    return make_prepared(exact_correlation_sample(target, n, seed=seed), spec)


def test_rejects_too_few_replicates_and_bad_level():
    spec = parse_model(PAIR_MODEL)
    data = pair_data(spec, n=200)
    with pytest.raises(ValueError, match="at least 100 replicates"):
        bootstrap(data, spec, b=50, **point_fits(data, spec))
    with pytest.raises(ValueError, match="level must be in"):
        bootstrap(data, spec, b=100, level=1.0, **point_fits(data, spec))


def test_same_seed_reproduces_replicates_exactly():
    spec = parse_model(PAIR_MODEL)
    data = pair_data(spec, n=150)
    first = bootstrap(data, spec, b=100, seed=42, **point_fits(data, spec))
    second = bootstrap(data, spec, b=100, seed=42, **point_fits(data, spec))
    key = ("A", "B")
    assert np.array_equal(first.paths[key].replicates, second.paths[key].replicates)
    assert first.paths[key].ci == second.paths[key].ci
    assert first.failures == second.failures


def test_point_estimates_come_from_original_sample():
    spec = parse_model(PAIR_MODEL)
    data = pair_data(spec, n=150)
    fit = fit_pls(data, spec)
    for seed in (0, 99):
        boot = bootstrap(data, spec, b=100, seed=seed, fit=fit)
        assert boot.paths[("A", "B")].estimate == fit.paths[("A", "B")]
        assert boot.loadings[("A", "a")].estimate == fit.loadings["A"][0]


def test_bookkeeping_fields():
    spec = parse_model(PAIR_MODEL)
    data = pair_data(spec, n=150)
    boot = bootstrap(data, spec, b=120, level=0.9, seed=5, **point_fits(data, spec))
    assert boot.b_requested == 120
    assert boot.b_effective + boot.failures == 120
    assert sum(boot.failure_reasons.values()) == boot.failures
    assert boot.level == 0.9
    assert boot.seed == 5
    assert set(boot.loadings) == {("A", "a"), ("B", "b")}
    assert boot.cyclic_paths == {}
    for stats in (*boot.paths.values(), *boot.loadings.values()):
        assert stats.replicates.shape == (boot.b_effective,)
        assert stats.ci[0] <= stats.estimate <= stats.ci[1]


def test_standard_error_matches_sampling_theory():
    # standardized single-predictor slope is the correlation; its sampling
    # standard deviation is (1 - rho^2)/sqrt(n)
    spec = parse_model(PAIR_MODEL)
    rho, n = 0.6, 5000
    data = pair_data(spec, rho=rho, n=n, seed=11)
    boot = bootstrap(data, spec, b=200, seed=7, **point_fits(data, spec))
    analytic = (1.0 - rho**2) / math.sqrt(n)
    assert abs(boot.paths[("A", "B")].se - analytic) < 0.2 * analytic


def test_zero_population_path_is_not_flagged_significant():
    model = {
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
    spec = parse_model(model)
    # r13 = r12 * r23 makes the direct X1 -> X3 coefficient exactly zero
    target = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.6], [0.3, 0.6, 1.0]])
    data = make_prepared(exact_correlation_sample(target, 400, seed=8), spec)
    boot = bootstrap(data, spec, b=200, seed=13, **point_fits(data, spec))
    weak = boot.paths[("X1", "X3")]
    strong = boot.paths[("X2", "X3")]
    assert abs(weak.estimate) < 1e-10
    assert not weak.significant
    assert strong.significant


def test_cyclic_coefficients_are_bootstrapped_when_declared():
    model = {
        "blocks": [
            {"name": "X1", "mode": "single-item", "indicators": ["x1"]},
            {"name": "X2", "mode": "single-item", "indicators": ["x2"]},
            {"name": "X3", "mode": "single-item", "indicators": ["x3"]},
        ],
        "paths": [
            {"source": "X1", "target": "X2"},
            {"source": "X2", "target": "X3"},
        ],
        "cyclic": {"source": "X3"},
    }
    spec = parse_model(model)
    target = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.6], [0.3, 0.6, 1.0]])
    data = make_prepared(exact_correlation_sample(target, 300, seed=9), spec)
    fits = point_fits(data, spec)
    boot = bootstrap(data, spec, b=100, seed=2, **fits)
    assert set(boot.cyclic_paths) == {("X3", "X1"), ("X3", "X2")}
    stats = boot.cyclic_paths[("X3", "X2")]
    assert stats.estimate == pytest.approx(0.6, abs=1e-10)
    assert stats.replicates.shape == (boot.b_effective,)
    assert 0.0 < stats.se < 0.2
    # step 2 is bootstrapped when it is given, not when the spec has a cyclic section
    sequential = bootstrap(data, spec, b=100, seed=2, fit=fits["fit"])
    assert sequential.cyclic_paths == {}
    assert sequential.paths.keys() == boot.paths.keys()


def test_sign_alignment_keeps_replicates_on_one_side():
    # weakly correlated indicators invite orientation flips in replicates;
    # alignment against the original weights must absorb them
    model = {
        "blocks": [
            {"name": "A", "indicators": ["a1", "a2"]},
            {"name": "B", "mode": "single-item", "indicators": ["b"]},
        ],
        "paths": [{"source": "A", "target": "B"}],
    }
    spec = parse_model(model)
    target = np.array(
        [
            [1.0, 0.2, 0.35],
            [0.2, 1.0, 0.35],
            [0.35, 0.35, 1.0],
        ]
    )
    data = make_prepared(exact_correlation_sample(target, 60, seed=10), spec)
    boot = bootstrap(data, spec, b=200, seed=17, **point_fits(data, spec))
    for col in ("a1", "a2"):
        assert np.all(boot.loadings[("A", col)].replicates > 0)
    path = boot.paths[("A", "B")]
    assert np.all(path.replicates > 0)
    assert path.se < 0.2


def test_degenerate_column_pushes_failure_rate_over_limit():
    # a column with one informative row loses all variance in roughly a
    # third of the resamples, far past the tolerated 5%
    spec = parse_model(PAIR_MODEL)
    rng = np.random.default_rng(21)
    a = np.zeros(12)
    a[0] = 1.0
    matrix = np.column_stack([a, rng.normal(size=12)])
    data = make_prepared(matrix, spec)
    with pytest.raises(EstimationError, match="bootstrap failure rate"):
        bootstrap(data, spec, b=100, seed=1, **point_fits(data, spec))
