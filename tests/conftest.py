import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from plscycle import dataset, estimate_cyclic, fit_pls, resample
from plscycle.dataset import PreparedData
from plscycle.plscore import DEFAULT_MAX_ITER, DEFAULT_TOL


def make_prepared(matrix: np.ndarray, spec) -> PreparedData:
    """Wrap a raw matrix as PreparedData for a spec without mca blocks.

    Columns must follow block declaration order; they are standardized here
    with the population convention, exactly as prepare_blocks would.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    std = (matrix - matrix.mean(axis=0)) / matrix.std(axis=0)
    block_index = {}
    names = []
    cursor = 0
    for block in spec.blocks:
        block_index[block.name] = (cursor, cursor + len(block.indicators))
        cursor += len(block.indicators)
        names.extend(block.indicators)
    assert cursor == matrix.shape[1]
    return PreparedData(
        matrix=std,
        block_index=block_index,
        columns=tuple(names),
        n_input=matrix.shape[0],
        n_effective=matrix.shape[0],
        missing_policy="listwise",
        missing_cells={b.name: 0 for b in spec.blocks},
        mca_inertia_share={},
    )


# two two-indicator blocks whose indicators load unevenly: step 1 needs 8
# iterations, and neither step converges within one
UNEVEN_MODEL = {
    "blocks": [
        {"name": "A", "indicators": ["a1", "a2"]},
        {"name": "M", "mode": "single-item", "indicators": ["m"]},
        {"name": "Y", "indicators": ["y1", "y2"]},
    ],
    "paths": [
        {"source": "A", "target": "M"},
        {"source": "M", "target": "Y"},
        {"source": "A", "target": "Y"},
    ],
    "cyclic": {"source": "Y", "targets": ["A", "M"]},
}
UNEVEN_R = np.array(
    [
        [1.0, 0.5, 0.4, 0.2, 0.3],
        [0.5, 1.0, 0.2, 0.4, 0.1],
        [0.4, 0.2, 1.0, 0.45, 0.3],
        [0.2, 0.4, 0.45, 1.0, 0.5],
        [0.3, 0.1, 0.3, 0.5, 1.0],
    ]
)


def point_fits(data, spec, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER) -> dict:
    """The point fits that ``bootstrap`` resamples, as its ``fit`` and ``cyclic`` arguments.

    ``cyclic`` is the step 2 of a spec with a cyclic section, else None.
    """
    fit = fit_pls(data, spec, tol=tol, max_iter=max_iter)
    cyc = spec.cyclic and estimate_cyclic(data, fit, spec, tol=tol, max_iter=max_iter)
    return {"fit": fit, "cyclic": cyc}


def mca_oracle_first_dimension(block):
    """Correspondence analysis of the doubled binary matrix, from scratch.

    Ties among leading principal inertias are resolved the same way the
    library defines the first dimension: the direction inside the tied
    eigenspace most aligned with the centered row sums.
    """
    n, q = block.shape
    doubled = np.empty((n, 2 * q))
    doubled[:, 0::2] = block
    doubled[:, 1::2] = 1.0 - block
    probs = doubled / doubled.sum()
    row_mass = probs.sum(axis=1)
    col_mass = probs.sum(axis=0)
    residual = (probs - np.outer(row_mass, col_mass)) / np.sqrt(
        np.outer(row_mass, col_mass)
    )
    u, s, _ = scipy.linalg.svd(residual, full_matrices=False)
    tied = np.flatnonzero(s >= s[0] * (1.0 - 1e-9))
    reference = block.sum(axis=1) - block.sum(axis=1).mean()
    weights = u[:, tied].T @ reference
    direction = u[:, tied] @ (weights / np.linalg.norm(weights))
    scores = direction / np.sqrt(row_mass)
    if scores @ reference < 0:
        scores = -scores
    return scores, float(s[0] ** 2 / np.sum(s**2))


def exact_correlation_sample(target: np.ndarray, n: int, seed: int = 0) -> np.ndarray:
    """Draw an n-row sample whose *sample* correlation matrix equals `target`.

    Whitens a random Gaussian draw against its own empirical covariance and
    recolors it with the target's Cholesky factor, so closed-form expectations
    hold exactly in the sample, not just asymptotically. Population std
    convention (divisor n) to match the pipeline.
    """
    target = np.asarray(target, dtype=np.float64)
    k = target.shape[0]
    if n <= k:
        raise ValueError("need more rows than variables")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    x -= x.mean(axis=0)
    cov = x.T @ x / n
    # whiten, then recolor
    white = x @ np.linalg.inv(np.linalg.cholesky(cov)).T
    out = white @ np.linalg.cholesky(target).T
    return out


@pytest.fixture
def corr_sampler():
    return exact_correlation_sample


def force_split(monkeypatch) -> list[int]:
    """Send every input, however small, and every bootstrap to the two-process path.

    Returns the list that the pids of the children forked from now on are
    appended to.
    """
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    pids: list[int] = []
    fork = os.fork

    def counted() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(dataset, "_FORK_BYTES", 0)
    monkeypatch.setattr(resample, "_FORK_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children forked in a test where every input is split."""
    return force_split(monkeypatch)


def in_child_only(monkeypatch, module, name, replacement):
    """Patch ``module.name`` to ``replacement`` in forked children alone."""
    parent, real = os.getpid(), getattr(module, name)

    def patched(*args, **kwargs):
        if os.getpid() == parent:
            return real(*args, **kwargs)
        return replacement(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)


# memory bounds are stated in copies of a float64 table a little larger than
# the paper's sample (151,660 rows, 11 indicators)
TABLE_SHAPE = (200_000, 11)
TABLE_BYTES = TABLE_SHAPE[0] * TABLE_SHAPE[1] * 8


def traced_peak_bytes(call) -> int:
    """Peak traced memory of ``call()`` in bytes; what it was given is not counted."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_peak_tables(call, held: int = 0) -> float:
    """Peak traced memory of ``call()``, plus ``held`` bytes, in TABLE_SHAPE tables."""
    return (held + traced_peak_bytes(call)) / TABLE_BYTES
