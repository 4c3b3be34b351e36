import numpy as np
import pytest

from plscycle import EstimationError, fit_pls, parse_model, plscore, prepare_blocks
from plscycle.plscore import path_coefficients
from plscycle.simgen import PopulationSpec, ConstructPopulation, gen_acyclic

from conftest import exact_correlation_sample, make_prepared


def single_item_triangle():
    return parse_model(
        {
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
    )


TRIANGLE_R = np.array([[1.0, 0.5, 0.6], [0.5, 1.0, 0.6], [0.6, 0.6, 1.0]])


def test_two_predictor_oracle():
    # solve([[1,.5],[.5,1]], [.6,.6]) = (0.4, 0.4); R^2 = .6*.4 + .6*.4 = 0.48
    spec = single_item_triangle()
    data = make_prepared(exact_correlation_sample(TRIANGLE_R, 500, seed=1), spec)
    fit = fit_pls(data, spec)
    assert fit.converged and fit.iterations == 1
    assert abs(fit.paths[("X1", "X3")] - 0.4) < 1e-10
    assert abs(fit.paths[("X2", "X3")] - 0.4) < 1e-10
    assert abs(fit.paths[("X1", "X2")] - 0.5) < 1e-10
    assert abs(fit.r_squared["X3"] - 0.48) < 1e-10
    assert abs(fit.r_squared["X2"] - 0.25) < 1e-10


def test_single_predictor_path_equals_score_correlation():
    spec = parse_model(
        {
            "blocks": [
                {"name": "A", "mode": "single-item", "indicators": ["a"]},
                {"name": "B", "mode": "single-item", "indicators": ["b"]},
            ],
            "paths": [{"source": "A", "target": "B"}],
        }
    )
    rng = np.random.default_rng(7)
    x = rng.standard_normal((300, 2))
    x[:, 1] += 0.8 * x[:, 0]
    data = make_prepared(x, spec)
    fit = fit_pls(data, spec)
    r = np.corrcoef(fit.score("A"), fit.score("B"))[0, 1]
    assert abs(fit.paths[("A", "B")] - r) < 1e-12


def test_r_squared_equals_one_minus_residual_variance():
    spec = single_item_triangle()
    data = make_prepared(exact_correlation_sample(TRIANGLE_R, 400, seed=2), spec)
    fit = fit_pls(data, spec)
    fitted = (
        fit.paths[("X1", "X3")] * fit.score("X1")
        + fit.paths[("X2", "X3")] * fit.score("X2")
    )
    residual = fit.score("X3") - fitted
    assert abs(fit.r_squared["X3"] - (1.0 - residual.var())) < 1e-10
    assert 0.0 <= fit.r_squared["X3"] <= 1.0


def test_collinear_predecessors_raise():
    spec = single_item_triangle()
    x = exact_correlation_sample(np.eye(3), 100, seed=3)
    x[:, 1] = x[:, 0]  # X2 duplicates X1
    data = make_prepared(x, spec)
    with pytest.raises(EstimationError, match="collinear predecessors of 'X3'"):
        fit_pls(data, spec)


def test_reflective_pair_loading_closed_form():
    # equal weights by symmetry; corr(x_j, x_1 + x_2) = sqrt((1 + r) / 2),
    # which is exactly 0.8 at r = 0.28
    spec = parse_model(
        {
            "blocks": [
                {"name": "F", "indicators": ["f1", "f2"]},
                {"name": "Y", "mode": "single-item", "indicators": ["y"]},
            ],
            "paths": [{"source": "F", "target": "Y"}],
        }
    )
    target = np.array([[1.0, 0.28, 0.4], [0.28, 1.0, 0.4], [0.4, 0.4, 1.0]])
    data = make_prepared(exact_correlation_sample(target, 600, seed=4), spec)
    fit = fit_pls(data, spec)
    assert fit.converged
    assert np.allclose(fit.loadings["F"], [0.8, 0.8], atol=1e-9)
    assert abs(fit.weights["F"][0] - fit.weights["F"][1]) < 1e-9


def test_unit_mode_blocks_have_loading_one_and_converge_immediately():
    spec = single_item_triangle()
    data = make_prepared(exact_correlation_sample(TRIANGLE_R, 50, seed=5), spec)
    fit = fit_pls(data, spec)
    assert fit.iterations == 1 and fit.converged
    for name in fit.constructs:
        assert abs(fit.loadings[name][0] - 1.0) < 1e-12
        assert abs(fit.score(name).std() - 1.0) < 1e-12
        assert fit.modes[name] == "single-item"


def test_indicator_sign_flip_leaves_fit_invariant():
    spec = parse_model(
        {
            "blocks": [
                {"name": "F", "indicators": ["f1", "f2", "f3"]},
                {"name": "Y", "mode": "single-item", "indicators": ["y"]},
            ],
            "paths": [{"source": "F", "target": "Y"}],
        }
    )
    target = np.array(
        [
            [1.0, 0.5, 0.5, 0.4],
            [0.5, 1.0, 0.5, 0.4],
            [0.5, 0.5, 1.0, 0.4],
            [0.4, 0.4, 0.4, 1.0],
        ]
    )
    x = exact_correlation_sample(target, 500, seed=6)
    base = fit_pls(make_prepared(x, spec), spec)
    flipped_x = x.copy()
    flipped_x[:, :3] *= -1.0
    flipped = fit_pls(make_prepared(flipped_x, spec), spec)
    # orientation follows the observed block: weights and loadings are
    # unchanged relative to the negated columns, so the score and the
    # outgoing path flip sign while every magnitude is preserved
    assert np.allclose(flipped.weights["F"], base.weights["F"], atol=1e-9)
    assert np.allclose(flipped.loadings["F"], base.loadings["F"], atol=1e-9)
    assert np.allclose(flipped.score("F"), -base.score("F"), atol=1e-9)
    assert abs(flipped.paths[("F", "Y")] + base.paths[("F", "Y")]) < 1e-9
    assert flipped.loadings["F"].sum() >= 0


def test_formative_block_matches_regression_oracle():
    # with one successor, mode B converges to the OLS projection of the
    # target score on the block; the path is the multiple correlation
    spec = parse_model(
        {
            "blocks": [
                {"name": "F", "mode": "formative", "indicators": ["f1", "f2"]},
                {"name": "Y", "mode": "single-item", "indicators": ["y"]},
            ],
            "paths": [{"source": "F", "target": "Y"}],
        }
    )
    r_ff = np.array([[1.0, 0.3], [0.3, 1.0]])
    r_fy = np.array([0.5, 0.4])
    target = np.block([[r_ff, r_fy[:, None]], [r_fy[None, :], np.ones((1, 1))]])
    data = make_prepared(exact_correlation_sample(target, 800, seed=7), spec)
    fit = fit_pls(data, spec)
    assert fit.converged
    expected_path = float(np.sqrt(r_fy @ np.linalg.solve(r_ff, r_fy)))
    assert abs(fit.paths[("F", "Y")] - expected_path) < 1e-8
    direction = np.linalg.solve(r_ff, r_fy)
    ratio = fit.weights["F"] / direction
    assert abs(ratio[0] - ratio[1]) < 1e-6  # proportional weights


def test_isolated_reflective_block_uses_self_proxy():
    spec = parse_model({"blocks": [{"name": "F", "indicators": ["f1", "f2"]}]})
    target = np.array([[1.0, 0.6], [0.6, 1.0]])
    data = make_prepared(exact_correlation_sample(target, 200, seed=8), spec)
    fit = fit_pls(data, spec)
    assert fit.converged
    assert fit.paths == {} and fit.r_squared == {}
    assert np.allclose(fit.loadings["F"], np.sqrt(0.8), atol=1e-9)


def test_row_permutation_invariance():
    spec = single_item_triangle()
    x = exact_correlation_sample(TRIANGLE_R, 300, seed=9)
    rng = np.random.default_rng(10)
    perm = rng.permutation(300)
    base = fit_pls(make_prepared(x, spec), spec)
    shuffled = fit_pls(make_prepared(x[perm], spec), spec)
    for key in base.paths:
        assert abs(base.paths[key] - shuffled.paths[key]) < 1e-10


def test_restart_from_converged_weights_stays_put():
    spec = parse_model(
        {
            "blocks": [
                {"name": "F", "indicators": ["f1", "f2", "f3"]},
                {"name": "Y", "mode": "single-item", "indicators": ["y"]},
            ],
            "paths": [{"source": "F", "target": "Y"}],
        }
    )
    rng = np.random.default_rng(11)
    xi = rng.standard_normal(400)
    block = 0.7 * xi[:, None] + 0.7 * rng.standard_normal((400, 3))
    y = 0.5 * xi + 0.9 * rng.standard_normal(400)
    data = make_prepared(np.column_stack([block, y]), spec)
    first = fit_pls(data, spec)
    assert first.converged
    again = fit_pls(data, spec, init_weights=first.weights)
    assert again.iterations == 1
    assert np.allclose(again.weights["F"], first.weights["F"], atol=1e-6)


def test_schemes_agree_exactly_on_unit_mode_models():
    import dataclasses

    spec = single_item_triangle()
    data = make_prepared(exact_correlation_sample(TRIANGLE_R, 80, seed=12), spec)
    results = {}
    for scheme in ("centroid", "factorial", "path"):
        fit = fit_pls(data, dataclasses.replace(spec, scheme=scheme))
        results[scheme] = fit.paths
    assert results["centroid"] == results["factorial"] == results["path"]


def test_scheme_choice_converges_on_reflective_model():
    import dataclasses

    spec = parse_model(
        {
            "blocks": [
                {"name": "A", "indicators": ["a1", "a2"]},
                {"name": "B", "indicators": ["b1", "b2"]},
            ],
            "paths": [{"source": "A", "target": "B"}],
        }
    )
    rng = np.random.default_rng(13)
    xi = rng.standard_normal(500)
    eta = 0.6 * xi + 0.8 * rng.standard_normal(500)
    x = np.column_stack(
        [
            0.8 * xi + 0.6 * rng.standard_normal(500),
            0.8 * xi + 0.6 * rng.standard_normal(500),
            0.8 * eta + 0.6 * rng.standard_normal(500),
            0.8 * eta + 0.6 * rng.standard_normal(500),
        ]
    )
    data = make_prepared(x, spec)
    estimates = []
    for scheme in ("centroid", "factorial", "path"):
        fit = fit_pls(data, dataclasses.replace(spec, scheme=scheme))
        assert fit.converged
        estimates.append(fit.paths[("A", "B")])
    assert max(estimates) - min(estimates) < 0.02


def test_argument_validation():
    spec = single_item_triangle()
    data = make_prepared(exact_correlation_sample(TRIANGLE_R, 50, seed=14), spec)
    with pytest.raises(ValueError, match="tol must be positive"):
        fit_pls(data, spec, tol=0.0)
    with pytest.raises(ValueError, match="max_iter must be a positive integer"):
        fit_pls(data, spec, max_iter=0)
    with pytest.raises(ValueError, match="wrong length"):
        fit_pls(data, spec, init_weights={"X1": np.ones(3)})


def test_max_iter_exhaustion_reports_not_converged():
    spec = parse_model(
        {
            "blocks": [
                {"name": "A", "indicators": ["a1", "a2"]},
                {"name": "B", "indicators": ["b1", "b2"]},
            ],
            "paths": [{"source": "A", "target": "B"}],
        }
    )
    rng = np.random.default_rng(15)
    data = make_prepared(rng.standard_normal((120, 4)), spec)
    fit = fit_pls(data, spec, max_iter=1)
    assert not fit.converged and fit.iterations == 1


def test_path_coefficients_rejects_shape_mismatch():
    spec = single_item_triangle()
    with pytest.raises(ValueError, match="does not match construct count"):
        path_coefficients(np.zeros((10, 2)), spec)


def test_recovers_attenuated_population_values_on_synthetic_data():
    """Composite-score estimates converge to their attenuated limits.

    For 4 indicators with loading 0.8 the composite correlates 0.93633 with
    its construct, so score correlations shrink by a^2 = 0.876712 and the
    probability limits of the path estimates are (0.438, 0.210, 0.522); the
    loading limit is sqrt((1 + 3 * 0.64) / (4 + 12 * 0.64)) * (1 + 3 * 0.64)
    / ... = 0.8544. Estimates land within sampling error of those limits,
    not of the generating parameters.
    """
    b = np.zeros((3, 3))
    b[1, 0] = 0.5
    b[2, 0] = 0.2
    b[2, 1] = 0.6
    pop = PopulationSpec(
        constructs=tuple(
            ConstructPopulation(name=f"C{i}", loadings=(0.8,) * 4) for i in range(3)
        ),
        b_matrix=b,
        n=5000,
        seed=20,
    )
    raw = gen_acyclic(pop)
    spec = parse_model(
        {
            "blocks": [
                {"name": f"C{i}", "indicators": [f"C{i}_{j}" for j in range(1, 5)]}
                for i in range(3)
            ],
            "paths": [
                {"source": "C0", "target": "C1"},
                {"source": "C0", "target": "C2"},
                {"source": "C1", "target": "C2"},
            ],
        }
    )
    data = make_prepared(raw.values, spec)
    fit = fit_pls(data, spec)
    assert fit.converged

    a2 = 0.876712
    plim_loading = 0.85440037
    assert abs(fit.paths[("C0", "C1")] - 0.5 * a2) < 0.03
    s12, s13, s23 = 0.5 * a2, 0.5 * a2, 0.7 * a2
    expected = np.linalg.solve(np.array([[1, s12], [s12, 1]]), np.array([s13, s23]))
    assert abs(fit.paths[("C0", "C2")] - expected[0]) < 0.03
    assert abs(fit.paths[("C1", "C2")] - expected[1]) < 0.03
    for name in fit.constructs:
        assert np.abs(fit.loadings[name] - plim_loading).max() < 0.03


def _solve_ols_always_cond(corr, pred, target, label):
    """The solver as it was before 1x1 systems skipped the SVD."""
    a = corr[np.ix_(pred, pred)]
    if np.linalg.cond(a) > plscore._COND_LIMIT:
        raise EstimationError(f"singular system: collinear predecessors of '{label}'")
    return np.linalg.solve(a, corr[pred, target])


def test_one_by_one_systems_skip_the_svd_and_fit_bitwise_the_same(monkeypatch):
    # C1 has one predecessor, C2 two; the path scheme solves both every iteration
    b = np.zeros((3, 3))
    b[1, 0], b[2, 0], b[2, 1] = 0.5, 0.2, 0.6
    pop = PopulationSpec(
        constructs=tuple(
            ConstructPopulation(name=f"C{i}", loadings=(0.8, 0.7, 0.6)) for i in range(3)
        ),
        b_matrix=b,
        n=400,
        seed=3,
    )
    spec = parse_model(
        {
            "blocks": [
                {"name": f"C{i}", "indicators": [f"C{i}_{j}" for j in range(1, 4)]}
                for i in range(3)
            ],
            "paths": [
                {"source": "C0", "target": "C1"},
                {"source": "C0", "target": "C2"},
                {"source": "C1", "target": "C2"},
            ],
            "scheme": "path",
        }
    )
    data = make_prepared(gen_acyclic(pop).values, spec)
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append(a.shape) or cond(a))

    fit = fit_pls(data, spec)
    fast_calls = list(calls)
    calls.clear()
    monkeypatch.setattr(plscore, "_solve_ols", _solve_ols_always_cond)
    reference = fit_pls(data, spec)

    assert fit.converged and fit.iterations == reference.iterations > 1
    # one solve for C2 per iteration plus the final structural one
    assert fast_calls == [(2, 2)] * (fit.iterations + 1)
    assert sorted(calls) == sorted([(1, 1), (2, 2)] * (fit.iterations + 1))
    for name in fit.constructs:
        assert fit.weights[name].tobytes() == reference.weights[name].tobytes()
        assert fit.loadings[name].tobytes() == reference.loadings[name].tobytes()
    assert fit.paths == reference.paths
    assert fit.r_squared == reference.r_squared
    assert fit.scores.tobytes() == reference.scores.tobytes()


def test_zero_one_by_one_system_still_raises():
    corr = np.array([[0.0, 0.3], [0.3, 1.0]])
    for solve in (plscore._solve_ols, _solve_ols_always_cond):
        with pytest.raises(EstimationError, match="collinear predecessors of 'Y'"):
            solve(corr, [0], 1, "Y")
    # a tiny nonzero entry has condition number 1: singular to neither solver
    tiny = np.array([[5e-324, 0.5], [0.5, 1.0]])
    assert plscore._solve_ols(tiny, [0], 1, "Y").tolist() == [np.inf]
    assert _solve_ols_always_cond(tiny, [0], 1, "Y").tolist() == [np.inf]
