import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plscycle import (
    DIRECTIONS,
    EstimationError,
    ModelError,
    bootstrap,
    build_feedback_model,
    estimate_cyclic,
    fit_pls,
    parse_model,
    reinforcement_test,
    reinforcement_tests,
    score_column_name,
    validate_model,
)
from plscycle import cyclic as cyclic_module

from conftest import UNEVEN_MODEL, UNEVEN_R, exact_correlation_sample, make_prepared, point_fits

# per-coefficient standard errors backed out of the published t statistics
# (equal-sigma inversion of the test formula at n = 151660)
SIGMA_ROW_1 = 0.0016561107672050776  # betas 0.240 / 0.537 -> t = 126.81
SIGMA_ROW_2 = 0.0010665578038645896  # betas 0.647 / 0.761 -> t = 75.58
N_SURVEY = 151660


def test_equal_coefficients_give_null_result():
    result = reinforcement_test(0.4, 0.4, 0.01, 0.01, 1000)
    assert result.t_statistic == 0.0
    assert result.p_value == pytest.approx(0.5)
    assert result.decision == "retain"
    two = reinforcement_test(0.4, 0.4, 0.01, 0.01, 1000, direction="two_sided")
    assert two.p_value == pytest.approx(1.0)


def test_published_row_one_reproduced():
    result = reinforcement_test(0.240, 0.537, SIGMA_ROW_1, SIGMA_ROW_1, N_SURVEY)
    assert abs(result.t_statistic - 126.81) < 1e-6
    assert result.df == 2 * (N_SURVEY - 1) == 303318
    assert result.p_value < 1e-10
    assert result.decision == "reject"


def test_published_row_two_reproduced():
    result = reinforcement_test(0.647, 0.761, SIGMA_ROW_2, SIGMA_ROW_2, N_SURVEY)
    assert abs(result.t_statistic - 75.58) < 1e-6
    assert result.df == 303318
    assert result.decision == "reject"


@pytest.mark.parametrize("sigma", [1e-4, 0.05, 0.3, 2.0])
@pytest.mark.parametrize("n", [2, 10, 5000, 151660, 10**6])
def test_equal_sigma_degrees_of_freedom_are_exactly_2n_minus_2(sigma, n):
    result = reinforcement_test(0.1, 0.3, sigma, sigma, n)
    assert result.df == 2 * (n - 1)


def test_swapping_slots_keeps_t_and_df_and_mirrors_p():
    a = reinforcement_test(0.2, 0.5, 0.01, 0.03, 800, direction="ce_gt_se")
    b = reinforcement_test(0.5, 0.2, 0.03, 0.01, 800, direction="se_gt_ce")
    assert a.t_statistic == pytest.approx(b.t_statistic)
    assert a.df == b.df
    assert a.p_value == pytest.approx(b.p_value)


def test_scaling_sigmas_scales_t_inversely():
    base = reinforcement_test(0.2, 0.5, 0.01, 0.02, 500)
    scaled = reinforcement_test(0.2, 0.5, 0.04, 0.08, 500)
    assert scaled.t_statistic == pytest.approx(base.t_statistic / 4.0)
    assert scaled.df == base.df


def test_direction_tail_arithmetic():
    ce = reinforcement_test(0.2, 0.5, 0.01, 0.02, 500, direction="ce_gt_se")
    se = reinforcement_test(0.2, 0.5, 0.01, 0.02, 500, direction="se_gt_ce")
    two = reinforcement_test(0.2, 0.5, 0.01, 0.02, 500, direction="two_sided")
    assert ce.p_value < 0.5 < se.p_value
    assert ce.p_value + se.p_value == pytest.approx(1.0)
    assert two.p_value == pytest.approx(2.0 * min(ce.p_value, se.p_value))


@given(
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
    st.floats(1e-4, 0.5),
    st.floats(1e-4, 0.5),
    st.integers(2, 10**6),
    st.sampled_from(["ce_gt_se", "se_gt_ce", "two_sided"]),
)
def test_result_invariants(beta_se, beta_ce, sigma_se, sigma_ce, n, direction):
    result = reinforcement_test(beta_se, beta_ce, sigma_se, sigma_ce, n, direction)
    assert result.t_statistic >= 0.0
    assert result.df >= 1
    assert 0.0 <= result.p_value <= 1.0
    # Welch df never exceeds the equal-sigma ceiling
    assert result.df <= 2 * (n - 1)
    assert result.decision == ("reject" if result.p_value < 0.05 else "retain")


def test_p_values_equal_scipy_stats_t_sf_bit_for_bit():
    from scipy import stats  # the oracle; the package computes the tail without it

    dfs = set()
    for n in (2, 3, 11, 1_000, 150_001):
        for sigma_ce in (0.01, 0.012, 0.05, 1.0):
            for beta_ce in (0.3, 0.3001, 0.31, 0.5, 0.9, 0.1, -0.6):
                for direction in DIRECTIONS:
                    result = reinforcement_test(0.3, beta_ce, 0.01, sigma_ce, n, direction)
                    t = result.t_statistic
                    if direction == "two_sided":
                        expected = float(2.0 * stats.t.sf(t, result.df))
                    else:
                        diff = beta_ce - 0.3 if direction == "ce_gt_se" else 0.3 - beta_ce
                        expected = float(stats.t.sf(math.copysign(t, diff), result.df))
                    assert result.p_value == expected, (n, sigma_ce, beta_ce, direction)
                    dfs.add(result.df)
    assert min(dfs) == 1 and max(dfs) == 300_000


def test_reinforcement_argument_validation():
    with pytest.raises(ValueError, match="standard errors must be positive"):
        reinforcement_test(0.1, 0.2, 0.0, 0.01, 100)
    with pytest.raises(ValueError, match="n must be at least 2"):
        reinforcement_test(0.1, 0.2, 0.01, 0.01, 1)
    with pytest.raises(ValueError, match="unknown direction"):
        reinforcement_test(0.1, 0.2, 0.01, 0.01, 100, direction="greater")


def chain_spec(cyclic=None):
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
    }
    if cyclic:
        doc["cyclic"] = cyclic
    return parse_model(doc)


CHAIN_R = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.6], [0.3, 0.6, 1.0]])


def test_build_feedback_model_structure():
    spec = chain_spec(cyclic={"source": "X3"})
    data = make_prepared(exact_correlation_sample(CHAIN_R, 200, seed=0), spec)
    fit = fit_pls(data, spec)
    step2 = build_feedback_model(fit, spec)
    assert step2.cyclic is None
    assert step2.scheme == spec.scheme
    assert step2.block_names() == ("X3", "X1", "X2")
    source_block = step2.block("X3")
    assert source_block.mode == "single-item"
    assert source_block.indicators == (score_column_name("X3"),) == ("X3__score",)
    assert step2.block("X1") == spec.block("X1")
    assert [(p.source, p.target) for p in step2.paths] == [("X3", "X1"), ("X3", "X2")]


def test_build_feedback_model_requires_cyclic_section_and_fitted_source():
    spec = chain_spec()
    data = make_prepared(exact_correlation_sample(CHAIN_R, 100, seed=1), spec)
    fit = fit_pls(data, spec)
    with pytest.raises(ModelError, match="no cyclic specification"):
        build_feedback_model(fit, spec)
    with pytest.raises(ModelError, match="no cyclic specification in the model"):
        estimate_cyclic(data, fit, spec)
    with_cyclic = chain_spec(cyclic={"source": "X3"})
    truncated = dataclasses.replace(fit, constructs=("X1", "X2"))
    with pytest.raises(EstimationError, match="source score for 'X3' missing"):
        build_feedback_model(truncated, with_cyclic)


def test_cyclic_coefficients_equal_score_correlations():
    spec = chain_spec(cyclic={"source": "X3"})
    data = make_prepared(exact_correlation_sample(CHAIN_R, 300, seed=2), spec)
    fit = fit_pls(data, spec)
    cyc = estimate_cyclic(data, fit, spec)
    for target in ("X1", "X2"):
        step2_score = data.score(target, cyc.step2_fit.weights[target])
        expected = np.corrcoef(data.score("X3", fit.weights["X3"]), step2_score)[0, 1]
        assert abs(cyc.cyclic_paths[("X3", target)] - expected) < 1e-10
    # single-item targets: the step-2 score is the indicator itself, so the
    # cyclic coefficient is the plain construct correlation
    assert abs(cyc.cyclic_paths[("X3", "X1")] - 0.3) < 1e-10
    assert abs(cyc.cyclic_paths[("X3", "X2")] - 0.6) < 1e-10


def test_pairing_uses_direct_sequential_edge_only():
    spec = chain_spec(cyclic={"source": "X3"})
    data = make_prepared(exact_correlation_sample(CHAIN_R, 250, seed=3), spec)
    fit = fit_pls(data, spec)
    cyc = estimate_cyclic(data, fit, spec)
    assert cyc.paired_sequential[("X3", "X2")] == fit.paths[("X2", "X3")]
    assert cyc.paired_sequential[("X3", "X1")] is None  # only indirect path


def chain_fits_and_bootstrap():
    """The chain model's step 1, step 2 and bootstrap: X3 -> X2 has a mirror, X3 -> X1 none."""
    spec = chain_spec(cyclic={"source": "X3"})
    data = make_prepared(exact_correlation_sample(CHAIN_R, 250, seed=3), spec)
    fit = fit_pls(data, spec)
    cyc = estimate_cyclic(data, fit, spec)
    return fit, cyc, bootstrap(data, spec, b=100, seed=1, fit=fit, cyclic=cyc)


def with_mirror_se(boot, se):
    """``boot`` with the standard error of the mirror path X2 -> X3 set to ``se``."""
    mirror = dataclasses.replace(boot.paths[("X2", "X3")], se=se)
    return dataclasses.replace(boot, paths={**boot.paths, ("X2", "X3"): mirror})


def test_reinforcement_tests_pair_each_cyclic_effect_with_its_mirror():
    fit, cyc, boot = chain_fits_and_bootstrap()
    tests = reinforcement_tests(cyc, boot, 250, direction="two_sided")
    assert list(tests) == [("X3", "X1"), ("X3", "X2")]
    assert tests[("X3", "X1")] == "no direct sequential path X1 -> X3"
    assert tests[("X3", "X2")] == reinforcement_test(
        fit.paths[("X2", "X3")],
        cyc.cyclic_paths[("X3", "X2")],
        boot.paths[("X2", "X3")].se,
        boot.cyclic_paths[("X3", "X2")].se,
        250,
        direction="two_sided",
    )
    assert reinforcement_tests(cyc, with_mirror_se(boot, 0.0), 250)[("X3", "X2")] == (
        "test not computable: standard errors must be positive"
    )


def test_reinforcement_tests_reject_a_bad_direction_or_n():
    _, cyc, boot = chain_fits_and_bootstrap()
    with pytest.raises(ValueError, match="unknown direction 'greater'"):
        reinforcement_tests(cyc, boot, 250, direction="greater")
    with pytest.raises(ValueError, match="n must be at least 2"):
        reinforcement_tests(cyc, boot, 1)


@pytest.mark.parametrize("se", [math.inf, math.nan])
def test_a_non_finite_standard_error_is_named_as_the_skip_reason(se):
    _, cyc, boot = chain_fits_and_bootstrap()
    tests = reinforcement_tests(cyc, with_mirror_se(boot, se), 250)
    assert tests[("X3", "X2")] == "test not computable: standard errors must be finite"
    for sigmas in ((se, 0.01), (0.01, se)):
        with pytest.raises(ValueError, match="standard errors must be finite"):
            reinforcement_test(0.1, 0.2, *sigmas, 100)


def test_a_test_result_carries_the_pair_it_tested():
    result = reinforcement_test(0.2, 0.5, 0.01, 0.03, 800)
    assert (result.beta_se, result.beta_ce, result.sigma_se, result.sigma_ce) == (
        0.2, 0.5, 0.01, 0.03
    )
    fit, cyc, boot = chain_fits_and_bootstrap()
    tested = reinforcement_tests(cyc, boot, 250)[("X3", "X2")]
    assert (tested.beta_se, tested.beta_ce, tested.sigma_se, tested.sigma_ce) == (
        fit.paths[("X2", "X3")],
        cyc.cyclic_paths[("X3", "X2")],
        boot.paths[("X2", "X3")].se,
        boot.cyclic_paths[("X3", "X2")].se,
    )


def test_reinforcement_tests_take_every_tail_from_one_t_cdf_call(monkeypatch):
    _, cyc, boot = chain_fits_and_bootstrap()
    calls, real = [], cyclic_module.t_cdf

    def counted(df, x, helper=None):
        calls.append(len(x))
        return real(df, x, helper)

    monkeypatch.setattr(cyclic_module, "t_cdf", counted)
    reinforcement_tests(cyc, boot, 250)
    assert calls == [1]  # X3 -> X1 has no mirror
    reinforcement_tests(cyc, with_mirror_se(boot, 0.0), 250)
    assert calls == [1]  # no pair is tested, so no tail is asked for


def test_step_two_that_does_not_converge_raises():
    spec = parse_model(UNEVEN_MODEL)
    data = make_prepared(exact_correlation_sample(UNEVEN_R, 400, seed=7), spec)
    fit = fit_pls(data, spec)
    assert fit.converged
    with pytest.raises(EstimationError, match="step-2 estimation did not converge in 1 iterations"):
        estimate_cyclic(data, fit, spec, max_iter=1)


def test_step_two_never_mutates_step_one():
    spec = chain_spec(cyclic={"source": "X3"})
    data = make_prepared(exact_correlation_sample(CHAIN_R, 250, seed=4), spec)
    fit = fit_pls(data, spec)
    weights_before = {name: w.copy() for name, w in fit.weights.items()}
    paths_before = dict(fit.paths)
    matrix_before = data.matrix.copy()
    columns_before = data.columns
    estimate_cyclic(data, fit, spec)
    assert fit.weights.keys() == weights_before.keys()
    for name, w in weights_before.items():
        assert np.array_equal(fit.weights[name], w)
    assert fit.paths == paths_before
    assert np.array_equal(data.matrix, matrix_before)
    assert data.columns == columns_before


def test_two_construct_loop_rejected_before_estimation():
    spec = parse_model(
        {
            "blocks": [
                {"name": "A", "mode": "single-item", "indicators": ["a"]},
                {"name": "B", "mode": "single-item", "indicators": ["b"]},
            ],
            "paths": [{"source": "A", "target": "B"}],
            "cyclic": {"source": "B", "targets": ["A"]},
        }
    )
    target = np.array([[1.0, 0.4], [0.4, 1.0]])
    data = make_prepared(exact_correlation_sample(target, 100, seed=5), spec)
    fit = fit_pls(data, spec)
    with pytest.raises(ModelError, match="same correlation coefficient"):
        estimate_cyclic(data, fit, spec)


def test_score_column_collision_detected():
    spec = parse_model(
        {
            "blocks": [
                {"name": "X1", "mode": "single-item", "indicators": ["x1"]},
                {"name": "X2", "mode": "single-item", "indicators": ["x2"]},
                {"name": "X3", "mode": "single-item", "indicators": ["X3__score"]},
            ],
            "paths": [
                {"source": "X1", "target": "X2"},
                {"source": "X2", "target": "X3"},
            ],
            "cyclic": {"source": "X3"},
        }
    )
    data = make_prepared(exact_correlation_sample(CHAIN_R, 120, seed=6), spec)
    fit = fit_pls(data, spec)
    with pytest.raises(EstimationError, match="collides with a data column"):
        estimate_cyclic(data, fit, spec)


def test_step_two_reestimates_multi_indicator_target_weights():
    spec = parse_model(
        {
            "blocks": [
                {"name": "A", "indicators": ["a1", "a2"]},
                {"name": "M", "mode": "single-item", "indicators": ["m"]},
                {"name": "Y", "mode": "single-item", "indicators": ["y"]},
            ],
            "paths": [
                {"source": "A", "target": "M"},
                {"source": "M", "target": "Y"},
                {"source": "A", "target": "Y"},
            ],
            "cyclic": {"source": "Y", "targets": ["A", "M"]},
        }
    )
    target = np.array(
        [
            [1.0, 0.5, 0.35, 0.3],
            [0.5, 1.0, 0.35, 0.3],
            [0.35, 0.35, 1.0, 0.45],
            [0.3, 0.3, 0.45, 1.0],
        ]
    )
    data = make_prepared(exact_correlation_sample(target, 400, seed=7), spec)
    fit = fit_pls(data, spec)
    cyc = estimate_cyclic(data, fit, spec)
    assert cyc.step2_fit.converged
    assert cyc.step2_fit.weights["Y"].shape == (1,)
    step2_source = data.score("Y", fit.weights["Y"]) * cyc.step2_fit.weights["Y"][0]
    assert abs(step2_source.std() - 1.0) < 1e-12
    assert cyc.step2_fit.weights["A"].shape == (2,)
    # both pairs carry a direct sequential mirror here
    assert cyc.paired_sequential[("Y", "A")] == fit.paths[("A", "Y")]
    assert cyc.paired_sequential[("Y", "M")] == fit.paths[("M", "Y")]


def test_estimate_cyclic_validates_the_spec_and_bootstrap_does_not(monkeypatch):
    spec = chain_spec(cyclic={"source": "X3"})
    data = make_prepared(exact_correlation_sample(CHAIN_R, 250, seed=8), spec)
    calls = []

    def counted(spec):
        calls.append(spec)
        return validate_model(spec)

    monkeypatch.setattr(cyclic_module, "validate_model", counted)
    fits = point_fits(data, spec)
    assert calls == [spec]  # the point step 2; replicates take its step-2 spec
    bootstrap(data, spec, b=100, seed=4, **fits)
    assert calls == [spec]
    # a second step 2 validates again: no verdict is kept between calls
    estimate_cyclic(data, fits["fit"], spec)
    assert calls == [spec, spec]
    stray = dataclasses.replace(spec, cyclic=dataclasses.replace(spec.cyclic, targets=("X9",)))
    for _ in range(2):
        with pytest.raises(ModelError, match="cyclic target 'X9' is not an antecedent"):
            estimate_cyclic(data, fit_pls(data, spec), stray)
