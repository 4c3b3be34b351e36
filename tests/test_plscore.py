import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plscycle import EstimationError, Moments, fit_pls, parse_model, plscore, prepare_blocks
from plscycle.modelspec import SCHEMES
from plscycle.simgen import PopulationSpec, ConstructPopulation, gen_acyclic

from conftest import exact_correlation_sample, make_prepared
import data_space_oracle as oracle
from data_space_oracle import path_coefficients


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
    r = np.corrcoef(data.score("A", fit.weights["A"]), data.score("B", fit.weights["B"]))[0, 1]
    assert abs(fit.paths[("A", "B")] - r) < 1e-12


def test_r_squared_equals_one_minus_residual_variance():
    spec = single_item_triangle()
    data = make_prepared(exact_correlation_sample(TRIANGLE_R, 400, seed=2), spec)
    fit = fit_pls(data, spec)
    score = {name: data.score(name, fit.weights[name]) for name in fit.constructs}
    fitted = fit.paths[("X1", "X3")] * score["X1"] + fit.paths[("X2", "X3")] * score["X2"]
    residual = score["X3"] - fitted
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
        assert abs(data.score(name, fit.weights[name]).std() - 1.0) < 1e-12
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
    base_data = make_prepared(x, spec)
    base = fit_pls(base_data, spec)
    flipped_x = x.copy()
    flipped_x[:, :3] *= -1.0
    flipped_data = make_prepared(flipped_x, spec)
    flipped = fit_pls(flipped_data, spec)
    # orientation follows the observed block: weights and loadings are
    # unchanged relative to the negated columns, so the score and the
    # outgoing path flip sign while every magnitude is preserved
    assert np.allclose(flipped.weights["F"], base.weights["F"], atol=1e-9)
    assert np.allclose(flipped.loadings["F"], base.loadings["F"], atol=1e-9)
    flipped_score = flipped_data.score("F", flipped.weights["F"])
    assert np.allclose(flipped_score, -base_data.score("F", base.weights["F"]), atol=1e-9)
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
    for tol in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            fit_pls(data, spec, tol=tol)
    with pytest.raises(ValueError, match="max_iter must be a positive integer"):
        fit_pls(data, spec, max_iter=0)


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


def _solve_each_system(corr, preds):
    """The stacked solver as a per-system loop over the reference solver."""
    m, k = corr.shape[:2]
    b = np.zeros((m, k, k))
    for j in range(m):
        for t, p in preds:
            b[j, t, p] = oracle._solve_ols(corr[j], list(p), t, f"C{t}")
    return b, np.zeros((m, k), bool)


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
    stacked_calls = list(calls)
    calls.clear()
    monkeypatch.setattr(plscore, "_solve_paths", _solve_each_system)
    reference = fit_pls(data, spec)

    assert fit.converged and fit.iterations == reference.iterations > 1
    # no 1x1 system reaches the SVD: one stacked cond for the one two-predecessor
    # target per iteration, plus the final structural one
    assert stacked_calls == [(1, 2, 2)] * (fit.iterations + 1)
    assert calls == [(2, 2)] * (fit.iterations + 1)
    assert fit.constructs == reference.constructs and fit.modes == reference.modes
    for name in fit.constructs:
        assert fit.weights[name].tobytes() == reference.weights[name].tobytes()
        assert fit.loadings[name].tobytes() == reference.loadings[name].tobytes()
    assert list(fit.paths.items()) == list(reference.paths.items())
    assert list(fit.r_squared.items()) == list(reference.r_squared.items())
    assert fit.converged == reference.converged
    for name in fit.constructs:
        score = data.score(name, fit.weights[name])
        assert score.tobytes() == data.score(name, reference.weights[name]).tobytes()


def test_zero_one_by_one_system_still_raises(monkeypatch):
    preds = [(1, np.array([0]))]
    corr = np.array([[0.0, 0.3], [0.3, 1.0]])
    with pytest.raises(EstimationError, match="collinear predecessors of 'Y'"):
        _solve_ols_always_cond(corr, [0], 1, "Y")
    monkeypatch.setattr(np.linalg, "cond", None)  # a 1x1 system never reaches the SVD
    with pytest.raises(EstimationError, match="collinear predecessors of 'Y'"):
        oracle._solve_ols(corr, [0], 1, "Y")
    assert plscore._solve_paths(corr[None], preds)[1].tolist() == [[False, True]]
    # a tiny nonzero entry has condition number 1: singular to no solver
    tiny = np.array([[5e-324, 0.5], [0.5, 1.0]])
    b, singular = plscore._solve_paths(tiny[None], preds)
    assert b[0, 1].tolist() == [np.inf, 0.0] and not singular.any()
    assert oracle._solve_ols(tiny, [0], 1, "Y").tolist() == [np.inf]
    monkeypatch.undo()
    assert _solve_ols_always_cond(tiny, [0], 1, "Y").tolist() == [np.inf]


@pytest.mark.parametrize("scheme", ["path", "centroid"])
def test_first_declared_singular_system_is_named(scheme, monkeypatch):
    # Y3 (three predecessors) is declared before Y2 (two); both regress on the
    # identical P1 and P2, and each target is solved in declaration order. The
    # path scheme raises in the inner weights, the centroid scheme in the paths.
    names = ("P1", "P2", "P3", "Y3", "Y2")
    spec = parse_model(
        {
            "blocks": [
                {"name": name, "mode": "single-item", "indicators": [name.lower()]}
                for name in names
            ],
            "paths": [{"source": p, "target": "Y3"} for p in ("P1", "P2", "P3")]
            + [{"source": p, "target": "Y2"} for p in ("P1", "P2")],
            "scheme": scheme,
        }
    )
    r = np.array(
        [
            [1.0, 1.0, 0.2, 0.3, 0.3],
            [1.0, 1.0, 0.2, 0.3, 0.3],
            [0.2, 0.2, 1.0, 0.3, 0.3],
            [0.3, 0.3, 0.3, 1.0, 0.4],
            [0.3, 0.3, 0.3, 0.4, 1.0],
        ]
    )
    data = Moments(r, {name: (i, i + 1) for i, name in enumerate(names)}, tuple(n.lower() for n in names))
    solved = []
    real = plscore._solve_paths
    monkeypatch.setattr(
        plscore, "_solve_paths", lambda c, preds: solved.append(preds) or real(c, preds)
    )
    with pytest.raises(EstimationError, match="collinear predecessors of 'Y3'"):
        fit_pls(data, spec)
    assert [t for t, _ in solved[0]] == [3, 4]


STACK_NAMES = ("A", "F", "X1", "X2", "Y")
STACK_INDEX = {"A": (0, 2), "F": (2, 4), "X1": (4, 5), "X2": (5, 6), "Y": (6, 8)}
STACK_COLUMNS = ("a1", "a2", "f1", "f2", "x1", "x2", "y1", "y2")
STACK_KINDS = ("equal", "unequal", "formative", "collinear", "degenerate", "failed")


def stack_spec(scheme):
    modes = {"F": "formative", "X1": "single-item", "X2": "single-item"}
    return parse_model({
        "blocks": [
            {"name": name, "mode": modes.get(name, "reflective"),
             "indicators": list(STACK_COLUMNS[slice(*STACK_INDEX[name])])}
            for name in STACK_NAMES
        ],
        "paths": [{"source": name, "target": "Y"} for name in STACK_NAMES[:-1]],
        "scheme": scheme,
    })


def stack_member(kind, rng):
    """One replicate's R: equal weights as the fixed point, a sample with unequal
    loadings, or a sample with a singular formative block, collinear
    predecessors or a block uncorrelated with the rest; NaN for a replicate
    that failed before the fit."""
    if kind == "failed":
        return np.full((8, 8), np.nan)
    if kind == "equal":  # one common factor with equal loadings
        return np.full((8, 8), 0.49) + 0.51 * np.eye(8)
    mixing = np.tril(rng.uniform(0.2, 0.6, (5, 5)), -1) + np.eye(5)
    latent = rng.standard_normal((60, 5)) @ mixing.T
    owner = [0, 0, 1, 1, 2, 3, 4, 4]
    x = latent[:, owner] * rng.uniform(0.3, 0.95, 8) + 0.5 * rng.standard_normal((60, 8))
    if kind == "formative":
        x[:, 3] = x[:, 2]
    elif kind == "collinear":
        x[:, 5] = x[:, 4]
    r = np.corrcoef(x, rowvar=False)
    if kind == "degenerate":  # block A's proxy is zero under every scheme
        r[:2, 2:] = r[2:, :2] = 0.0
    return r


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    st.permutations(STACK_KINDS * 2),
    st.sampled_from(SCHEMES),
    st.sampled_from([2, 3, 300]),
    st.integers(0, 2**32 - 1),
)
def test_each_replicate_of_a_mixed_stack_fits_as_it_does_alone(kinds, scheme, max_iter, seed):
    spec, rng = stack_spec(scheme), np.random.default_rng(seed)
    corr = np.stack([stack_member(kind, rng) for kind in kinds])
    failures = ["zero variance in a resampled column" if k == "failed" else None for k in kinds]
    weights, loadings, b, r_squared, iterations, converged = plscore._fit_stack(
        corr, spec, STACK_INDEX, 1e-6, max_iter, failures)
    outcomes = set()
    for j, kind in enumerate(kinds):
        if kind == "failed":
            assert failures[j] == "zero variance in a resampled column" and not converged[j]
            continue
        try:
            alone = fit_pls(Moments(corr[j], STACK_INDEX, STACK_COLUMNS), spec, max_iter=max_iter)
        except EstimationError as exc:
            assert failures[j] == str(exc) and not converged[j]
            outcomes.add(str(exc))
            continue
        assert failures[j] is None
        assert (iterations[j], converged[j]) == (alone.iterations, alone.converged)
        outcomes.add("converged" if alone.converged else "not converged")
        assert weights[j].tobytes() == np.concatenate(list(alone.weights.values())).tobytes()
        assert loadings[j].tobytes() == np.concatenate(list(alone.loadings.values())).tobytes()
        for (s, t), value in alone.paths.items():
            assert b[j, STACK_NAMES.index(t), STACK_NAMES.index(s)] == value
        assert r_squared[j, -1] == alone.r_squared["Y"]
    assert {
        "converged",
        "singular system in formative block 'F'",
        "singular system: collinear predecessors of 'Y'",
        "degenerate score variance in block 'A'",
    } <= outcomes
    assert ("not converged" in outcomes) == (max_iter < 300)
