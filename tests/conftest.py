"""Shared fixtures.

Everything here is deliberately small and seeded: the suite cross-checks
algorithms against references (SciPy, NetworkX, dense math) on instances a
human could inspect, and uses the 1/16-scale machine everywhere so fixed
constants relate to work the same way the experiments do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.platform.cluster import ClusterSpec
from repro.platform.machine import paper_testbed
from repro.sparse.construct import from_dense
from repro.sparse.csr import CsrMatrix
from repro.graphs.graph import Graph


@pytest.fixture(scope="session")
def machine() -> ClusterSpec:
    """The experiment-scale testbed."""
    return paper_testbed(time_scale=1 / 16)


@pytest.fixture(scope="session")
def full_machine() -> ClusterSpec:
    """The unscaled testbed (device constants as published)."""
    return paper_testbed()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_sparse(n_rows: int, n_cols: int, density: float, seed: int) -> CsrMatrix:
    """A dense-backed random sparse matrix (exact reference available)."""
    gen = np.random.default_rng(seed)
    dense = (gen.random((n_rows, n_cols)) < density) * gen.uniform(
        0.1, 1.0, (n_rows, n_cols)
    )
    return from_dense(dense)


def random_graph(n: int, m_target: int, seed: int) -> Graph:
    """A random simple graph with about *m_target* edges."""
    gen = np.random.default_rng(seed)
    u = gen.integers(0, n, size=2 * m_target)
    v = gen.integers(0, n, size=2 * m_target)
    keep = u != v
    return Graph(n, u[keep][:m_target], v[keep][:m_target])


@pytest.fixture()
def small_matrix() -> CsrMatrix:
    return random_sparse(60, 60, 0.08, seed=7)


@pytest.fixture()
def small_graph() -> Graph:
    return random_graph(200, 400, seed=11)
