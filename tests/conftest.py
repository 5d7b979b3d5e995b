"""Shared helpers for the cvdownload test suite."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from cvdownload import graphs, planner, qubits
from cvdownload.graphs import Graph

SQRT_PI = math.sqrt(math.pi)

#: Pass/fail lines appended by the acceptance battery; echoed after the run
#: so they are visible without -s.
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix from the QR factorization of a Gaussian matrix.

    The sign fix on the diagonal of R makes the distribution Haar and the
    result reproducible for a fixed generator state.
    """
    m = rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def dense_adjacency(graph: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix as float64, set entry by entry from
    ``graph.edges``: a reference that shares no code with the graph's edge
    array or its sparse operator."""
    a = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def neighbor_sum_phase(graph: Graph, q: np.ndarray) -> np.ndarray:
    """``sqrt(pi)`` times, for each vertex, the left-to-right sum of
    ``q[..., j]`` over its neighbours ``j`` in ascending order, from 0.0 and
    built from ``graph.edges``: the reference for ``neighbor_phase``."""
    q = np.asarray(q, dtype=float)
    neighbours = [[] for _ in range(graph.n)]
    for i, j in graph.edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    phi = np.empty(q.shape)
    for v, around in enumerate(neighbours):
        total = np.zeros(q.shape[:-1])
        for j in sorted(around):
            total = total + q[..., j]
        phi[..., v] = SQRT_PI * total
    return phi


#: Floats that are not whole numbers, NaN and +-inf included: a count or an
#: index that takes one must refuse it, not truncate it.
non_integers = st.floats().filter(lambda x: not x.is_integer())


@st.composite
def small_graphs(draw, n_max=7):
    """Any simple graph on 1..n_max vertices, edges drawn pair by pair."""
    n = draw(st.integers(1, n_max))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(pair for pair, k in zip(pairs, keep) if k))


def assert_refused_before_allocating(call, match: str = "dense-simulation cap") -> None:
    """``call()`` raises a ``ValueError`` matching ``match`` (by default the
    dense cap's) before allocating.

    The traced peak must stay under 64 KB; one 13-qubit state vector alone
    takes 128 KB, and a 13-qubit density matrix 1 GB.
    """
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


#: The planner's per-graph caches, the ones that ``plan`` fills.
PLAN_CACHES = (planner._spectrum, planner._passive_network)


def module_caches(module) -> list:
    """Every ``lru_cache`` in ``module``: each module attribute with a
    ``cache_clear``."""
    return [value for value in vars(module).values() if hasattr(value, "cache_clear")]


def planner_caches() -> list:
    """Every ``lru_cache`` in ``cvdownload.planner``."""
    return module_caches(planner)


def graph_caches() -> list:
    """Every ``lru_cache`` in ``graphs``, ``qubits`` and ``planner``: all the
    per-graph caches of the package."""
    return [cache for module in (graphs, qubits, planner) for cache in module_caches(module)]


def clear_plan_caches() -> None:
    for cache in planner_caches():
        cache.cache_clear()


@pytest.fixture(autouse=True)
def _cold_caches():
    """Every test plans, verifies and builds registers on empty caches (every
    ``lru_cache`` of ``graphs``, ``qubits`` and ``planner``), so none passes
    on work another test left behind."""
    for cache in graph_caches():
        cache.cache_clear()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)
