import os

import numpy as np
import pytest

from plscycle import dataset
from plscycle.dataset import PreparedData


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
    """Send every input, however small, to the two-process path.

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
