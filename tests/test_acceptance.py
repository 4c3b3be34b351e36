"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single PASS/FAIL line (visible even under capture) and
then asserts, so the summary table of the suite doubles as the release
checklist. Expected values are closed forms, published-table inversions, or
population parameters; nothing here is tuned to the implementation.
"""

import json
import math
import time

import numpy as np

from plscycle import (
    ModelError,
    ave,
    bootstrap,
    composite_reliability,
    cronbach_alpha,
    dijkstra_rho_a,
    estimate_cyclic,
    fit_pls,
    gen_acyclic,
    mca_first_dimension,
    parse_model,
    parse_population,
    population_truth,
    prepare_blocks,
    reinforcement_test,
    unidimensionality,
)
from plscycle.cli import main

from conftest import (
    exact_correlation_sample,
    make_prepared,
    mca_oracle_first_dimension,
    point_fits,
)


def check(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_reliability_indices_reproduce_published_values(capsys):
    blocks = {
        "DS": (np.array([0.725, 0.695, 0.839, 0.768]), 0.844, 0.575),
        "IU": (np.array([0.732, 0.693, 0.725, 0.736]), 0.813, 0.521),
    }
    worst = 0.0
    for loadings, cr_expected, ave_expected in blocks.values():
        worst = max(worst, abs(composite_reliability(loadings) - cr_expected))
        worst = max(worst, abs(ave(loadings) - ave_expected))
    check(
        capsys, 1, "CR and AVE reproduce the published reliability table",
        worst <= 0.001, f"max deviation {worst:.2e}",
    )


def test_criterion_02_reinforcement_statistic_reproduces_published_t(capsys):
    n = 151660
    rows = [(0.240, 0.537, 126.81), (0.647, 0.761, 75.58)]
    worst = 0.0
    df_exact = True
    for beta_se, beta_ce, t_published in rows:
        # equal per-coefficient sigma backed out of the published statistic
        sigma = abs(beta_se - beta_ce) / (
            t_published * math.sqrt(2.0 * (n - 1) / n)
        )
        result = reinforcement_test(beta_se, beta_ce, sigma, sigma, n)
        worst = max(worst, abs(result.t_statistic - t_published) / t_published)
        df_exact = df_exact and result.df == 2 * (n - 1)
    check(
        capsys, 2, "published t statistics and df recovered from the test formula",
        worst <= 0.005 and df_exact,
        f"max relative t error {worst:.2e}, df exact: {df_exact}",
    )


RECOVERY_POPULATION = {
    "kind": "acyclic",
    "n": 5000,
    "seed": 20,
    "constructs": [
        {"name": "X1", "loadings": [0.8, 0.8, 0.8, 0.8]},
        {"name": "X2", "loadings": [0.8, 0.8, 0.8, 0.8]},
        {"name": "X3", "loadings": [0.8, 0.8, 0.8, 0.8]},
    ],
    "paths": [
        {"source": "X1", "target": "X2", "coefficient": 0.5},
        {"source": "X1", "target": "X3", "coefficient": 0.2},
        {"source": "X2", "target": "X3", "coefficient": 0.6},
    ],
}


def recovery_model(cyclic=False):
    doc = {
        "blocks": [
            {"name": name, "indicators": [f"{name}_{j}" for j in range(1, 5)]}
            for name in ("X1", "X2", "X3")
        ],
        "paths": [
            {"source": "X1", "target": "X2"},
            {"source": "X1", "target": "X3"},
            {"source": "X2", "target": "X3"},
        ],
    }
    if cyclic:
        doc["cyclic"] = {"source": "X3"}
    return parse_model(doc)


def recovery_fit(cyclic=False):
    pop, kind = parse_population(RECOVERY_POPULATION)
    assert kind == "acyclic"
    spec = recovery_model(cyclic=cyclic)
    data = prepare_blocks(gen_acyclic(pop), spec)
    return data, spec, fit_pls(data, spec)


def test_criterion_03_parameter_recovery_within_5_points(capsys):
    data, spec, fit = recovery_fit()
    true_paths = {
        (p["source"], p["target"]): p["coefficient"]
        for p in RECOVERY_POPULATION["paths"]
    }
    loading_err = max(
        abs(lam - 0.8) for name in fit.constructs for lam in fit.loadings[name]
    )
    path_err = max(abs(fit.paths[key] - true_paths[key]) for key in true_paths)
    worst = max(loading_err, path_err)
    check(
        capsys, 3, "loadings and paths recovered within 0.05",
        worst <= 0.05,
        f"max loading error {loading_err:.4f}, max path error {path_err:.4f}",
    )


def test_criterion_04_cyclic_coefficient_is_a_score_correlation(capsys):
    data, spec, fit = recovery_fit(cyclic=True)
    cyc = estimate_cyclic(data, fit, spec)
    worst = 0.0
    for (source, target), beta_ce in cyc.cyclic_paths.items():
        step1 = data.score(source, fit.weights[source])
        rho = np.corrcoef(step1, data.score(target, cyc.step2_fit.weights[target]))[0, 1]
        worst = max(worst, abs(beta_ce - rho))
    check(
        capsys, 4, "two-step coefficients equal step-1/step-2 score correlations",
        worst <= 1e-10, f"max deviation {worst:.2e}",
    )


def test_criterion_05_feedback_estimate_converges_to_plain_correlation(capsys):
    population = {
        "kind": "acyclic",
        "n": 20000,
        "seed": 5,
        "constructs": [
            {"name": "X1", "single_item": True},
            {"name": "X2", "single_item": True},
            {"name": "X3", "single_item": True},
        ],
        "paths": [
            {"source": "X1", "target": "X2", "coefficient": 0.5},
            {"source": "X1", "target": "X3", "coefficient": 0.2},
            {"source": "X2", "target": "X3", "coefficient": 0.6},
        ],
    }
    pop, kind = parse_population(population)
    truth = population_truth(pop, kind)
    corr = np.asarray(truth["construct_correlation"])
    names = [c["name"] for c in truth["constructs"]]
    spec = parse_model(
        {
            "blocks": [
                {"name": n, "mode": "single-item", "indicators": [f"{n}_1"]}
                for n in names
            ],
            "paths": [
                {"source": p["source"], "target": p["target"]}
                for p in population["paths"]
            ],
            "cyclic": {"source": "X3"},
        }
    )
    data = prepare_blocks(gen_acyclic(pop), spec)
    fit = fit_pls(data, spec)
    cyc = estimate_cyclic(data, fit, spec)
    worst = 0.0
    for (source, target), beta_ce in cyc.cyclic_paths.items():
        rho = corr[names.index(source), names.index(target)]
        worst = max(worst, abs(beta_ce - rho))
    # the true feedback is zero, yet every estimate lands on the correlation
    inflated = all(v > 0.4 for v in cyc.cyclic_paths.values())
    check(
        capsys, 5, "on acyclic data the feedback estimate is the construct correlation",
        worst <= 0.03 and inflated,
        f"max deviation from population correlation {worst:.4f}",
    )


def test_criterion_06_two_construct_feedback_is_rejected_up_front(capsys):
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
    diagnostic = ""
    try:
        estimate_cyclic(data, fit, spec)
        rejected = False
    except ModelError as exc:
        rejected = True
        diagnostic = str(exc)
    explained = "same correlation coefficient" in diagnostic
    check(
        capsys, 6, "two-construct loop rejected before estimation with a diagnostic",
        rejected and explained,
        f"rejected: {rejected}, diagnostic explains the collapse: {explained}",
    )


def test_criterion_07_bootstrap_spread_and_coverage_are_calibrated(capsys):
    started = time.monotonic()
    rho, n, b = 0.6, 5000, 500
    spec = parse_model(
        {
            "blocks": [
                {"name": "A", "mode": "single-item", "indicators": ["a"]},
                {"name": "B", "mode": "single-item", "indicators": ["b"]},
            ],
            "paths": [{"source": "A", "target": "B"}],
        }
    )
    # analytic sampling standard deviation of a standardized single-predictor
    # slope, i.e. of the correlation coefficient
    analytic = (1.0 - rho**2) / math.sqrt(n)
    target = np.array([[1.0, rho], [rho, 1.0]])
    data = make_prepared(exact_correlation_sample(target, n, seed=11), spec)
    boot = bootstrap(data, spec, b=b, seed=3, **point_fits(data, spec))
    se_err = abs(boot.paths[("A", "B")].se - analytic) / analytic

    covered = 0
    datasets = 200
    for i in range(datasets):
        rng = np.random.default_rng(9000 + i)
        z = rng.standard_normal((n, 2))
        matrix = np.column_stack([z[:, 0], rho * z[:, 0] + 0.8 * z[:, 1]])
        sample = make_prepared(matrix, spec)
        ci = bootstrap(sample, spec, b=b, seed=i, **point_fits(sample, spec)).paths[("A", "B")].ci
        covered += ci[0] <= rho <= ci[1]
    coverage = covered / datasets
    elapsed = time.monotonic() - started
    check(
        capsys, 7, "bootstrap spread matches theory and intervals cover the truth",
        se_err <= 0.20 and 0.91 <= coverage <= 0.99 and elapsed < 300.0,
        f"relative se error {se_err:.3f}, coverage {coverage:.3f}, {elapsed:.0f}s",
    )


MCA_FIXTURE = np.array(
    [
        [1, 1, 1],
        [1, 1, 0],
        [1, 0, 0],
        [0, 1, 1],
        [0, 0, 1],
        [0, 0, 0],
    ],
    dtype=np.float64,
)


def test_criterion_08_mca_scores_match_an_independent_oracle(capsys):
    scores, share = mca_first_dimension(MCA_FIXTURE)
    oracle, oracle_share = mca_oracle_first_dimension(MCA_FIXTURE)
    deviation = min(
        np.max(np.abs(scores - oracle)), np.max(np.abs(scores + oracle))
    )
    share_err = abs(share - oracle_share)
    check(
        capsys, 8, "first-dimension scores and inertia share match a from-scratch SVD oracle",
        deviation <= 1e-8 and share_err <= 1e-10,
        f"score deviation {deviation:.2e}, share error {share_err:.2e}",
    )


def test_criterion_09_closed_form_reliability_suite(capsys):
    equi = np.full((4, 4), 0.5)
    np.fill_diagonal(equi, 1.0)
    block = np.corrcoef(exact_correlation_sample(equi, 400, seed=12), rowvar=False)
    alpha_err = abs(cronbach_alpha(block) - 0.8)
    eig1, eig2, _ = unidimensionality(block)
    eig_err = max(abs(eig1 - 2.5), abs(eig2 - 0.5))
    r = 0.64
    corr = np.array([[1.0, r], [r, 1.0]])
    w = np.full(2, 1.0 / math.sqrt(2.0 * (1.0 + r)))
    rho_err = abs(dijkstra_rho_a(w, corr) - 2.0 * r / (1.0 + r))
    check(
        capsys, 9, "closed-form alpha, eigenvalue, and weighted-reliability values",
        alpha_err <= 1e-9 and eig_err <= 1e-9 and rho_err <= 1e-6,
        f"alpha error {alpha_err:.2e}, eigenvalue error {eig_err:.2e}, "
        f"rho_A error {rho_err:.2e}",
    )


def test_criterion_10_cyclic_runs_are_byte_identical(capsys, tmp_path):
    triangle = np.array([[1.0, 0.5, 0.4], [0.5, 1.0, 0.6], [0.4, 0.6, 1.0]])
    sample = exact_correlation_sample(triangle, 300, seed=14)
    data = tmp_path / "data.csv"
    data.write_text(
        "x1,x2,x3\n"
        + "\n".join(",".join(repr(float(v)) for v in row) for row in sample)
        + "\n",
        encoding="utf-8",
    )
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps(
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
                "cyclic": {"source": "X3"},
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    argv = [
        "cyclic", "--model", str(model), "--data", str(data),
        "--bootstrap", "150", "--seed", "11", "--out", str(out),
    ]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    second = out.read_bytes()
    parsed = json.loads(first)
    check(
        capsys, 10, "repeated runs with one seed produce byte-identical reports",
        first == second and parsed["cyclic"]["source"] == "X3",
        f"{len(first)} bytes, identical: {first == second}",
    )
