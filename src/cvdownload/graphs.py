"""Graph construction and adjacency algebra for cluster-state layouts.

A single undirected simple graph drives every layer of the toolkit: its
edges give the CPHASE pattern of the continuous-variable cluster state,
the CZ pattern of the downloaded qubit cluster state, and the corrective
phase shifts applied after quadrature measurement.  The decorrelation
planner additionally consumes the eigendecomposition of A^2, where A is
the 0/1 adjacency matrix; on a grid it takes the closed-form spectra of
the grid's two path factors instead.

A has one matrix form, a read-only CSR array cached per graph: CPHASE, A^2
and the phases ``phi = sqrt(pi) A q`` all multiply through it.  A^2 has one
too, the CSR array of its walk counts cached beside it: the spectrum and the
planner's replay target read it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_array

__all__ = [
    "Graph",
    "make_graph",
    "path_graph",
    "cycle_graph",
    "grid2d_graph",
    "complete_graph",
    "star_graph",
    "random_graph",
    "degrees",
    "max_degree",
    "a_squared_spectrum",
    "neighbor_phase",
    "graph_to_json",
    "graph_from_json",
    "parse_graph_spec",
]

SQRT_PI = math.sqrt(math.pi)

#: The most edges :func:`make_graph` builds.  ``Graph`` builds and checks
#: one tuple per edge, about 250 B and 2 us each, so the cap holds a graph
#: near 250 MB; a larger one is refused before it is built.
MAX_GRAPH_EDGES = 2**20

#: How many graphs (or, for the planner's composed networks, recipes) each
#: per-graph ``lru_cache`` keeps: the adjacency operator and its square here,
#: the CZ phases in ``qubits`` and the planner's three.
_GRAPH_CACHE_SIZE = 8


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0 .. n-1``.

    Edges are normalized to a sorted tuple of ``(i, j)`` pairs with
    ``i < j``.  Construction rejects a non-integer vertex count or
    endpoint (NumPy integers are fine), out-of-range endpoints,
    self-loops and duplicate edges with a diagnostic.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not _is_int(self.n):
            raise ValueError(f"vertex count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        seen: set[tuple[int, int]] = set()
        normalized = []
        for edge in self.edges:
            if not (len(edge) == 2 and all(map(_is_int, edge))):
                raise ValueError(f"edge {edge!r} is not a pair of integers")
            i, j = (int(edge[0]), int(edge[1]))
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(
                    f"edge ({i}, {j}) has an endpoint outside [0, {self.n})"
                )
            if i == j:
                raise ValueError(f"self-loop ({i}, {i}) is not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))
        # hashed once: every planner cache lookup hashes the graph
        object.__setattr__(self, "_hash", hash((self.n, self.edges)))
        # the edges as an (m, 2) array, one sorted (i, j) row per edge, built
        # once and read-only: every array form of the graph starts from it
        edge_array = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        edge_array.flags.writeable = False
        object.__setattr__(self, "_edge_array", edge_array)

    def __hash__(self) -> int:
        return self._hash


def path_graph(n: int) -> Graph:
    """Open chain 0-1-2-...-(n-1).  ``n = 1`` gives a single bare vertex."""
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Closed chain on ``n >= 3`` vertices.

    Smaller sizes are rejected: a 1-cycle is a self-loop and a 2-cycle a
    duplicate edge, neither of which is a simple graph.
    """
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3 vertices, got {n}")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def grid2d_graph(rows: int, cols: int) -> Graph:
    """Rectangular lattice with nearest-neighbor edges, row-major indexing."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, tuple(edges))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(n: int) -> Graph:
    """Vertex 0 connected to all others (a GHZ-class layout)."""
    return Graph(n, tuple((0, i) for i in range(1, n)))


def random_graph(n: int, edge_probability: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi style draw: each pair becomes an edge independently."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {edge_probability}")
    edges = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_probability
    )
    return Graph(n, edges)


#: Each graph kind: its builder, the keys it takes and its edge count from
#: them.  A ``family:size`` spec lists a named family's integer sizes in
#: this order.
_KINDS = {
    "path": (path_graph, ("n",), lambda n: n - 1),
    "cycle": (cycle_graph, ("n",), lambda n: n),
    "complete": (complete_graph, ("n",), lambda n: n * (n - 1) // 2),
    "star": (star_graph, ("n",), lambda n: n - 1),
    "grid2d": (grid2d_graph, ("rows", "cols"), lambda rows, cols: 2 * rows * cols - rows - cols),
    "custom": (Graph, ("n", "edges"), lambda n, edges: len(edges)),
}


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_edge_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e)) for e in value
    )


def make_graph(kind: str, **params) -> Graph:
    """Dispatch to a named family or a custom edge list.

    Supported kinds: ``path``, ``cycle``, ``complete``, ``star`` (each
    takes ``n``), ``grid2d`` (takes ``rows`` and ``cols``) and ``custom``
    (takes ``n`` and ``edges``, a list of ``[i, j]`` pairs).  A missing
    or ill-typed key, and any other key, is refused with a ``ValueError``
    that names it, and so is a graph of more than :data:`MAX_GRAPH_EDGES`
    edges, counted from its sizes before it is built.
    """
    if not (isinstance(kind, str) and kind.lower() in _KINDS):
        raise ValueError(f"graph key 'kind' cannot take {kind!r}: unknown graph kind")
    build, keys, edge_count = _KINDS[kind.lower()]
    if set(params) != set(keys):
        raise ValueError(f"graph kind {kind!r} takes keys {list(keys)}, got {sorted(params)}")
    for key, value in params.items():
        if not (_is_edge_list if key == "edges" else _is_int)(value):
            raise ValueError(f"graph key {key!r} cannot take {value!r}")
    # a size below 1 counts as 0 here; its builder refuses it by name
    count = edge_count(**{key: value if key == "edges" else max(value, 0)
                          for key, value in params.items()})
    if count > MAX_GRAPH_EDGES:
        raise ValueError(f"graph kind {kind!r} with these sizes has {count} edges, above the "
                         f"cap MAX_GRAPH_EDGES = {MAX_GRAPH_EDGES}")
    return build(**params)


@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def _adjacency_operator(graph: Graph) -> csr_array:
    """The adjacency matrix as a CSR array: unit float64 entries, sorted
    column indices, no stored zeros.  Built once per graph, in O(n + m),
    and shared, so its ``data``, ``indices`` and ``indptr`` are read-only.

    A product ``A @ X`` with a dense ``(n, k)`` ``X`` sums each row's
    neighbours' rows of ``X`` in ascending order: O(n d k) for maximum
    degree ``d``, where a dense product takes O(n^2 k).
    """
    n = graph.n
    i, j = graph._edge_array.T
    rows, cols = np.concatenate((i, j)), np.concatenate((j, i))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols[np.lexsort((cols, rows))]
    a = csr_array((np.ones(len(indices)), indices, indptr), shape=(n, n))
    for array in (a.data, a.indices, a.indptr):
        array.flags.writeable = False
    return a


@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def _adjacency_square(graph: Graph) -> csr_array:
    """``A^2`` as a CSR array of its walk counts: ``(A^2)_ij`` is the number of
    common neighbours of ``i`` and ``j`` (the degree on the diagonal), stored
    exactly, as floats, where it is nonzero and nowhere else.  The sparse
    product of :func:`_adjacency_operator` with itself, built once per graph
    in O(n d^2) for maximum degree ``d`` and shared, so its ``data``,
    ``indices`` and ``indptr`` are read-only."""
    a = _adjacency_operator(graph)
    a2 = a @ a
    for array in (a2.data, a2.indices, a2.indptr):
        array.flags.writeable = False
    return a2


def degrees(graph: Graph) -> np.ndarray:
    return np.bincount(graph._edge_array.ravel(), minlength=graph.n)


def max_degree(graph: Graph) -> int:
    return int(degrees(graph).max())


def a_squared_spectrum(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``A^2 = O diag(D) O^T`` with a deterministic layout.

    Returns ``(D, O)`` where ``D`` is sorted descending (ties broken by
    ascending index of each eigenvector's dominant component) and every
    column of ``O`` is sign-fixed so its dominant component is positive.
    ``A^2 = A^T A`` is PSD, so a negative ``D`` (round-off at the scale of the
    largest) is clamped to 0; an unconverged ``eigh`` raises ``LinAlgError``.

    ``A^2`` is exactly block-diagonal over the connected components of its
    own nonzero pattern: the two colour classes of a connected bipartite
    graph, the whole of any other connected component, and each isolated
    vertex alone.  Each block is diagonalised on its own, so every column
    of ``O`` is supported on one block and the entries across blocks are
    exact zeros.  A synthesised network then never mixes blocks: a
    bipartite graph with colour classes of equal size needs at most about
    ``n^2 / 4`` rotations where a dense ``O`` needs ``n (n - 1) / 2``.

    The ordering matters downstream: the decorrelation planner assigns
    its principal (least-corrected) mode to the first column.
    """
    # imported here, so ``import cvdownload`` does not load scipy.sparse.csgraph
    from scipy.sparse.csgraph import connected_components

    a2 = _adjacency_square(graph)
    vals = np.empty(graph.n)
    vecs = np.zeros((graph.n, graph.n))
    count, labels = connected_components(a2, directed=False)
    a2 = a2.toarray()
    start = 0
    for label in range(count):
        block = np.flatnonzero(labels == label)
        stop = start + len(block)
        vals[start:stop], vecs[block, start:stop] = np.linalg.eigh(a2[np.ix_(block, block)])
        start = stop
    vals = np.maximum(vals, 0.0)
    dominant = np.argmax(np.abs(vecs), axis=0)
    order = sorted(range(graph.n), key=lambda k: (-vals[k], dominant[k]))
    d = vals[order]
    o = vecs[:, order]
    o *= np.where(o[dominant[order], np.arange(graph.n)] < 0.0, -1.0, 1.0)
    return d, o


def _grid_shape(graph: Graph) -> tuple[int, int] | None:
    """``(rows, cols)``, both at least 2, where ``graph`` has exactly the edges
    of ``grid2d_graph(rows, cols)``; None otherwise.

    Only the shapes whose edge count ``2 n - rows - cols`` matches are built
    and compared, so a grid given as a relabelled edge list is no grid here.
    """
    n, count = graph.n, len(graph.edges)
    for rows in range(2, n // 2 + 1):
        cols, rest = divmod(n, rows)
        if rest or cols < 2 or 2 * n - rows - cols != count:
            continue
        v = np.arange(n).reshape(rows, cols)
        pairs = [(v[:, :-1], v[:, 1:]), (v[:-1], v[1:])]  # right, then down
        grid = np.concatenate([np.stack([i.ravel(), j.ravel()], axis=1) for i, j in pairs])
        if np.array_equal(graph._edge_array, grid[np.lexsort(grid.T[::-1])]):
            return rows, cols
    return None


def _path_spectrum(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition ``A = O diag(lam) O^T`` of the path on
    ``m`` vertices.

    ``lam[k - 1] = 2 cos(pi k / (m + 1))`` and ``O[j - 1, k - 1] =
    sqrt(2 / (m + 1)) sin(pi j k / (m + 1))`` for ``j, k = 1 .. m``; each
    sine's argument is reduced modulo ``2 pi`` in integers first.  ``lam`` is
    descending and antisymmetric bit for bit, ``lam[m - 1 - k] = -lam[k]``
    (the middle one of an odd ``m`` is exactly 0), so on a grid
    ``(lam_r[0] + lam_c[0])^2`` is exactly the largest eigenvalue of ``A^2``.
    """
    k = np.arange(1, m + 1)
    lam = 2.0 * np.cos(np.pi * k / (m + 1))
    half = m // 2
    lam[m - half :] = -lam[:half][::-1]
    if m % 2:
        lam[half] = 0.0
    phase = np.outer(k, k) % (2 * (m + 1))
    return lam, math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * phase / (m + 1))


def neighbor_phase(graph: Graph, q: np.ndarray) -> np.ndarray:
    """Corrective phases ``phi = sqrt(pi) A q`` for measured outcomes.

    ``q`` has shape ``(..., n)``: one outcome vector, or a stack of them
    such as one row per shot.  The stack goes through the graph's cached
    sparse A once, in O(rows m) for m edges: each entry sums its vertex's
    neighbours' outcomes in ascending index order, with no BLAS, so each row
    of the result is bit-identical to the call on that row alone whatever
    the BLAS thread count.  This is the one place the formula is written.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (graph.n,):
        raise ValueError(f"expected {graph.n} outcomes on the last axis, got shape {q.shape}")
    sums = _adjacency_operator(graph) @ q.reshape(-1, graph.n).T
    return np.multiply(SQRT_PI, sums.T, order="C").reshape(q.shape)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def graph_to_json(graph: Graph) -> dict:
    return {"n": graph.n, "edges": [list(e) for e in graph.edges]}


def graph_from_json(obj: dict) -> Graph:
    """Accept either an explicit edge list or a named-family description.

    Explicit form: ``{"n": 3, "edges": [[0, 1], [1, 2]]}`` (``edges`` may
    be left out).  Named form: ``{"kind": "path", "n": 4}`` or
    ``{"kind": "grid2d", "rows": 2, "cols": 3}``.  Both go through
    :func:`make_graph`, which refuses any key the form does not take.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"graph JSON must be an object, got {type(obj).__name__}")
    if "kind" in obj:
        return make_graph(**obj)
    return make_graph("custom", **{"edges": [], **obj})


def parse_graph_spec(spec: str) -> Graph:
    """Parse a command-line graph description.

    Either the path of a JSON file (see :func:`graph_from_json`), or a
    compact ``family:size`` string: ``path:4``, ``cycle:5``,
    ``complete:3``, ``star:6``, ``grid2d:2x3`` (sizes joined by ``x``).  A
    wrong number of sizes, or one that is not an integer, is refused with a
    ``ValueError`` that quotes the spec and names the sizes it takes.
    """
    if os.path.isfile(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return graph_from_json(json.load(fh))
    kind, sep, size = spec.partition(":")
    if not sep:
        raise ValueError(
            f"graph spec {spec!r} is neither a file nor of the form kind:size"
        )
    kind = kind.strip().lower()
    if kind not in _KINDS or kind == "custom":
        raise ValueError(f"unknown graph kind {kind!r} in spec {spec!r}")
    keys = _KINDS[kind][1]
    try:
        sizes = [int(token) for token in size.split("x")]
    except ValueError:
        sizes = []
    if len(sizes) != len(keys):
        raise ValueError(f"{kind} spec needs {' x '.join(keys)}, each an integer, got {spec!r}")
    return make_graph(kind, **dict(zip(keys, sizes)))
