"""Plain PLS and the two-step estimator on population moments equal their closed forms.

On the population indicator correlation matrix Sigma = Lambda Phi Lambda' +
Theta (unit diagonal), a reflective block with at least one neighbour has,
under every scheme, mode-A weights w = lambda / sqrt(lambda' Sigma_bb lambda)
and loadings Sigma_bb w. Its composite correlates with another block's as
Phi_ij q_i q_j with q = w' lambda, the paths are OLS on those correlations,
and step 2's coefficient of source s on target t is Phi_st q_s q_t
(Dijkstra & Henseler 2015, MIS Quarterly 39(2)). None of the expected values
comes from ``plscore``.
"""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from plscycle import (
    ConstructPopulation,
    Moments,
    PopulationSpec,
    estimate_cyclic,
    fit_pls,
    indicator_names,
    parse_model,
    population_truth,
)
from plscycle.modelspec import SCHEMES

NAMES = ("PA", "DS", "IU")
EDGES = (("PA", "DS"), ("PA", "IU"), ("DS", "IU"))
TOL = 1e-12


def population_sigma(pop: PopulationSpec, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma, Phi): Lambda Phi Lambda' with a unit diagonal, Phi from ``population_truth``."""
    phi = np.array(population_truth(pop, kind)["construct_correlation"])
    lam = scipy.linalg.block_diag(*[np.array(c.loadings)[:, None] for c in pop.constructs])
    sigma = lam @ phi @ lam.T
    np.fill_diagonal(sigma, 1.0)
    return sigma, phi


loading_lists = st.lists(st.floats(0.4, 0.95), min_size=2, max_size=4, unique=True).filter(
    lambda lam: max(lam) - min(lam) > 0.1
)


@st.composite
def cases(draw):
    """A paper-shaped population, acyclic or at equilibrium with one feedback path."""
    kind = draw(st.sampled_from(("acyclic", "cyclic")))
    index = {name: i for i, name in enumerate(NAMES)}
    b = np.zeros((3, 3))
    for source, target in EDGES:
        b[index[target], index[source]] = draw(st.floats(0.1, 0.5))
    if kind == "cyclic":
        b[index[draw(st.sampled_from(("PA", "DS")))], index["IU"]] = draw(st.floats(0.1, 0.4))
    pop = PopulationSpec(
        constructs=tuple(ConstructPopulation(name, tuple(draw(loading_lists))) for name in NAMES),
        b_matrix=b,
        n=1000,
        seed=0,
    )
    targets = draw(st.sampled_from((["DS"], ["PA"], ["PA", "DS"])))
    columns = indicator_names(pop)
    spec = parse_model(
        {
            "blocks": [
                {"name": name, "indicators": [c for c in columns if c.split("_")[0] == name]}
                for name in NAMES
            ],
            "paths": [{"source": s, "target": t} for s, t in EDGES],
            "cyclic": {"source": "IU", "targets": targets},
            "scheme": draw(st.sampled_from(SCHEMES)),
        }
    )
    return pop, kind, spec


@settings(deadline=None, max_examples=60)
@given(cases())
def test_fit_and_step_2_on_population_moments_equal_the_closed_forms(case):
    pop, kind, spec = case
    sigma, phi = population_sigma(pop, kind)
    block_index, row = {}, 0
    for construct in pop.constructs:
        block_index[construct.name] = (row, row + len(construct.loadings))
        row += len(construct.loadings)
    data = Moments(sigma, block_index, indicator_names(pop))

    fit = fit_pls(data, spec)
    assert fit.converged
    q = np.empty(len(NAMES))
    for i, construct in enumerate(pop.constructs):
        lam = np.array(construct.loadings)
        lo, hi = block_index[construct.name]
        within = sigma[lo:hi, lo:hi]
        w = lam / np.sqrt(lam @ within @ lam)
        assert np.abs(fit.weights[construct.name] - w).max() <= TOL
        assert np.abs(fit.loadings[construct.name] - within @ w).max() <= TOL
        q[i] = w @ lam
    composite = phi * np.outer(q, q)
    np.fill_diagonal(composite, 1.0)
    for t, target in enumerate(NAMES):
        preds = [NAMES.index(p) for p in spec.predecessors(target)]
        if preds:
            beta = np.linalg.solve(composite[np.ix_(preds, preds)], composite[preds, t])
            for p, value in zip(preds, beta):
                assert abs(fit.paths[(NAMES[p], target)] - value) <= TOL

    cyc = estimate_cyclic(data, fit, spec)
    s = NAMES.index("IU")
    for target in spec.cyclic.targets:
        assert abs(cyc.cyclic_paths[("IU", target)] - composite[s, NAMES.index(target)]) <= TOL
