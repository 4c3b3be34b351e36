import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plscycle import (
    assess,
    ave,
    composite_reliability,
    cronbach_alpha,
    dijkstra_rho_a,
    fit_pls,
    parse_model,
    unidimensionality,
)
from plscycle.assessment import threshold_flag

from conftest import exact_correlation_sample, make_prepared


def equicorrelated(p, r):
    return np.full((p, p), r) + (1 - r) * np.eye(p)


def equal_weights(p, r):
    # w' S w = 1 for equal weights on an equicorrelated block
    return np.full(p, 1.0 / np.sqrt(p + p * (p - 1) * r))


def test_alpha_closed_form_four_items_half_correlation():
    x = exact_correlation_sample(equicorrelated(4, 0.5), 200, seed=0)
    assert abs(cronbach_alpha(np.corrcoef(x, rowvar=False)) - 0.8) < 1e-12


@given(st.integers(2, 6), st.floats(0.05, 0.9))
def test_alpha_matches_equicorrelated_formula(p, r):
    x = exact_correlation_sample(equicorrelated(p, r), 80, seed=1)
    expected = p * r / (1 + (p - 1) * r)
    assert abs(cronbach_alpha(np.corrcoef(x, rowvar=False)) - expected) < 1e-9


def test_alpha_needs_two_items():
    with pytest.raises(ValueError, match="at least 2 items"):
        cronbach_alpha(np.eye(1))


def test_composite_reliability_equal_loadings():
    # (p*lam)^2 / ((p*lam)^2 + p*(1 - lam^2)) at lam=0.8, p=4
    assert abs(composite_reliability(np.full(4, 0.8)) - 10.24 / 11.68) < 1e-12


def test_ave_is_mean_squared_loading():
    assert abs(ave(np.array([0.6, 0.8])) - 0.5) < 1e-12
    assert abs(ave(np.full(4, 0.8)) - 0.64) < 1e-12


def test_cr_at_least_ave_for_equal_loadings():
    for p in range(2, 7):
        for lam in np.linspace(0.1, 1.0, 10):
            lam_vec = np.full(p, lam)
            assert composite_reliability(lam_vec) >= ave(lam_vec) - 1e-12


def test_rho_a_two_items_closed_form():
    # for p=2 with equal unit-variance weights, rho_A reduces to 2r/(1+r)
    r = 0.64
    value = dijkstra_rho_a(equal_weights(2, r), equicorrelated(2, r))
    assert abs(value - 0.7804878048780489) < 1e-9


def test_rho_a_four_items_equal_structure():
    value = dijkstra_rho_a(equal_weights(4, 0.5), equicorrelated(4, 0.5))
    assert abs(value - 0.8) < 1e-12


def test_rho_a_input_validation():
    with pytest.raises(ValueError, match="at least 2 items"):
        dijkstra_rho_a(np.ones(1), np.eye(1))
    with pytest.raises(ValueError, match="unit score variance"):
        dijkstra_rho_a(np.ones(2), equicorrelated(2, 0.5))
    with pytest.raises(ValueError, match="zero off-diagonal"):
        dijkstra_rho_a(np.array([1.0, 0.0]), np.eye(2))


def test_unidimensionality_equicorrelated_eigenvalues():
    x = exact_correlation_sample(equicorrelated(2, 0.5), 100, seed=2)
    eig1, eig2, ok = unidimensionality(np.corrcoef(x, rowvar=False))
    assert abs(eig1 - 1.5) < 1e-10 and abs(eig2 - 0.5) < 1e-10 and ok
    x4 = exact_correlation_sample(equicorrelated(4, 0.5), 100, seed=3)
    eig1, eig2, ok = unidimensionality(np.corrcoef(x4, rowvar=False))
    assert abs(eig1 - 2.5) < 1e-10 and abs(eig2 - 0.5) < 1e-10 and ok


def test_unidimensionality_rejects_two_factor_block():
    target = np.eye(4)
    target[0, 1] = target[1, 0] = 0.8
    target[2, 3] = target[3, 2] = 0.8
    x = exact_correlation_sample(target, 150, seed=4)
    eig1, eig2, ok = unidimensionality(np.corrcoef(x, rowvar=False))
    assert abs(eig1 - 1.8) < 1e-10 and abs(eig2 - 1.8) < 1e-10
    assert not ok


def test_eigenvalues_sum_to_item_count():
    x = exact_correlation_sample(equicorrelated(2, 0.37), 60, seed=5)
    eig1, eig2, _ = unidimensionality(np.corrcoef(x, rowvar=False))
    assert abs(eig1 + eig2 - 2.0) < 1e-10


@pytest.mark.parametrize(
    "value, expected",
    [
        (0.71, "pass"),
        (0.7001, "pass"),
        (0.7, "borderline"),
        (0.695, "borderline"),
        (0.69, "borderline"),
        (0.6899, "fail"),
        (0.2, "fail"),
    ],
)
def test_threshold_flag_boundaries(value, expected):
    assert threshold_flag(value, 0.7) == expected


def mixed_model():
    return parse_model(
        {
            "blocks": [
                {"name": "R", "indicators": ["r1", "r2", "r3", "r4"]},
                {"name": "S", "mode": "single-item", "indicators": ["s1"]},
                {"name": "F", "mode": "formative", "indicators": ["g1", "g2"]},
            ],
            "paths": [
                {"source": "R", "target": "S"},
                {"source": "F", "target": "S"},
            ],
        }
    )


def mixed_data(seed=6):
    target = np.eye(7)
    target[:4, :4] = equicorrelated(4, 0.5)
    target[4, :4] = target[:4, 4] = 0.3
    target[4, 5:] = target[5:, 4] = 0.25
    target[5, 6] = target[6, 5] = 0.2
    return exact_correlation_sample(target, 400, seed=seed)


def test_assess_flags_by_mode():
    spec = mixed_model()
    data = make_prepared(mixed_data(), spec)
    fit = fit_pls(data, spec)
    report = assess(fit, data)
    rows = {c.construct: c for c in report.constructs}

    reflective = rows["R"]
    assert reflective.flags["alpha"] == "pass"
    assert reflective.flags["composite_reliability"] == "pass"
    assert reflective.flags["dijkstra_rho_a"] == "pass"
    assert reflective.flags["ave"] == "pass"
    assert reflective.flags["unidimensionality"] == "pass"
    assert abs(reflective.alpha - 0.8) < 1e-9
    assert abs(reflective.eig1 - 2.5) < 1e-9
    assert all(ind.flag == "pass" for ind in reflective.indicators)
    assert all(ind.ci is None for ind in reflective.indicators)

    single = rows["S"]
    assert single.alpha is None
    assert set(single.flags.values()) == {"exempt"}
    assert single.indicators[0].loading == pytest.approx(1.0)

    formative = rows["F"]
    assert formative.ave is None
    assert set(formative.flags.values()) == {"not-applicable"}
    assert all(ind.flag == "not-applicable" for ind in formative.indicators)


def test_assess_exempts_single_indicator_reflective_block():
    spec = parse_model(
        {
            "blocks": [
                {"name": "A", "indicators": ["a1"]},
                {"name": "B", "indicators": ["b1", "b2"]},
            ],
            "paths": [{"source": "A", "target": "B"}],
        }
    )
    target = np.eye(3)
    target[1, 2] = target[2, 1] = 0.5
    target[0, 1:] = target[1:, 0] = 0.3
    data = make_prepared(exact_correlation_sample(target, 120, seed=7), spec)
    report = assess(fit_pls(data, spec), data)
    rows = {c.construct: c for c in report.constructs}
    assert set(rows["A"].flags.values()) == {"exempt"}
    assert rows["B"].alpha is not None


def test_assess_borderline_alpha_and_rho_a():
    # 2r/(1+r) = 0.695 at r = 0.695/1.305; alpha and rho_A coincide for p=2
    r = 0.695 / 1.305
    spec = parse_model(
        {
            "blocks": [
                {"name": "A", "indicators": ["a1", "a2"]},
                {"name": "B", "mode": "single-item", "indicators": ["b1"]},
            ],
            "paths": [{"source": "A", "target": "B"}],
        }
    )
    target = np.eye(3)
    target[0, 1] = target[1, 0] = r
    target[2, :2] = target[:2, 2] = 0.3
    data = make_prepared(exact_correlation_sample(target, 150, seed=8), spec)
    report = assess(fit_pls(data, spec), data)
    row = {c.construct: c for c in report.constructs}["A"]
    assert abs(row.alpha - 0.695) < 1e-9
    assert row.flags["alpha"] == "borderline"
    assert abs(row.dijkstra_rho_a - 0.695) < 1e-6
    assert row.flags["dijkstra_rho_a"] == "borderline"
