"""Graph families, adjacency algebra, and the A^2 eigendecomposition."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import (
    assert_refused_before_allocating,
    dense_adjacency,
    neighbor_sum_phase,
    small_graphs,
)
from cvdownload import graphs
from cvdownload.graphs import (
    MAX_GRAPH_EDGES,
    Graph,
    _adjacency_operator,
    _adjacency_square,
    _grid_shape,
    _path_spectrum,
    a_squared_spectrum,
    complete_graph,
    cycle_graph,
    degrees,
    graph_from_json,
    graph_to_json,
    grid2d_graph,
    make_graph,
    max_degree,
    neighbor_phase,
    parse_graph_spec,
    path_graph,
    random_graph,
    star_graph,
)

SQRT_PI = math.sqrt(math.pi)


class TestFamilies:
    def test_path_edges(self):
        assert path_graph(3).edges == ((0, 1), (1, 2))

    def test_path_single_vertex(self):
        g = path_graph(1)
        assert g.n == 1
        assert g.edges == ()

    def test_complete_edges(self):
        assert complete_graph(3).edges == ((0, 1), (0, 2), (1, 2))

    def test_cycle_edges(self):
        g = cycle_graph(4)
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_cycle_requires_three_vertices(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star_center_zero(self):
        g = star_graph(5)
        assert all(e[0] == 0 for e in g.edges)
        assert len(g.edges) == 4

    def test_grid2d_edge_count(self):
        g = grid2d_graph(2, 3)
        # rows*(cols-1) horizontal + cols*(rows-1) vertical links
        assert g.n == 6
        assert len(g.edges) == 2 * 2 + 3 * 1

    def test_random_graph_reproducible(self):
        a = random_graph(6, 0.5, np.random.default_rng(7))
        b = random_graph(6, 0.5, np.random.default_rng(7))
        assert a == b

    def test_make_graph_dispatch(self):
        assert make_graph("path", n=3) == path_graph(3)
        assert make_graph("grid2d", rows=2, cols=2) == grid2d_graph(2, 2)
        custom = make_graph("custom", n=3, edges=[(2, 0)])
        assert custom.edges == ((0, 2),)

    def test_make_graph_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_graph("torus", n=4)


class TestValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((0, 0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            Graph(0, ())

    @pytest.mark.parametrize(
        "n, edges, match",
        [
            (3.7, (), "vertex count"),  # int() would truncate to 3
            ("3", (), "vertex count"),
            (True, (), "vertex count"),  # int(True) would give 1
            (3, ((0, 1.9),), "pair of integers"),
            (3, (("1", "2"),), "pair of integers"),
            (3, ((False, 1),), "pair of integers"),
            (3, ((0, 1, 2),), "pair of integers"),
        ],
    )
    def test_rejects_non_integers(self, n, edges, match):
        with pytest.raises(ValueError, match=match):
            Graph(n, edges)

    def test_accepts_numpy_integers(self):
        g = Graph(np.int64(3), ((np.int32(0), np.int64(1)), (np.uint8(1), 2)))
        assert g == Graph(3, ((0, 1), (1, 2)))
        assert type(g.n) is int and all(type(v) is int for e in g.edges for v in e)

    def test_edges_normalized_and_sorted(self):
        g = Graph(4, ((3, 1), (1, 0)))
        assert g.edges == ((0, 1), (1, 3))

    def test_equal_graphs_hash_equal(self):
        # the hash is computed once at construction; equality is unchanged
        want = grid2d_graph(3, 4)
        reordered = Graph(12, tuple((j, i) for i, j in reversed(want.edges)))
        numpy_ints = Graph(np.int64(12), tuple((np.int32(i), np.uint8(j)) for i, j in want.edges))
        for g in (reordered, numpy_ints):
            assert g == want and hash(g) == hash(want)
            assert {g: 1}[want] == 1
        assert Graph(12, want.edges[1:]) != want
        assert Graph(13, want.edges) != want


class TestAdjacency:
    def test_path_matrix(self):
        a = _adjacency_operator(path_graph(3)).toarray()
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(a, expected)

    def test_degrees_and_max_degree(self):
        assert list(degrees(star_graph(5))) == [4, 1, 1, 1, 1]
        assert max_degree(path_graph(3)) == 2
        assert max_degree(star_graph(5)) == 4
        assert max_degree(path_graph(1)) == 0

    @settings(max_examples=200, deadline=None)
    @given(graph=small_graphs(n_max=12))
    def test_vectorised_forms_match_edge_loop(self, graph):
        for g in (graph, Graph(1)):
            a = dense_adjacency(g)
            d = np.zeros(g.n, dtype=int)
            for i, j in g.edges:
                d[i] += 1
                d[j] += 1
            got_d = degrees(g)
            assert got_d.dtype == d.dtype and np.array_equal(got_d, d)
            # the cached CSR forms: unit entries, sorted indices, and an A^2
            # that stores exactly the nonzero walk counts of the dense one,
            # with its component labels
            op = _adjacency_operator(g)
            assert op.has_sorted_indices and np.array_equal(op.data, np.ones(2 * len(g.edges)))
            assert op.data.dtype == a.dtype and np.array_equal(op.toarray(), a)
            a2 = _adjacency_square(g)
            assert a2.data.dtype == a.dtype and np.array_equal(a2.toarray(), a @ a)
            assert a2.nnz == np.count_nonzero(a @ a)
            for got, want in zip(connected_components(a2, directed=False),
                                 connected_components(a @ a != 0.0, directed=False)):
                assert np.array_equal(got, want)

    def test_neighbor_phase_path(self):
        phi = neighbor_phase(path_graph(3), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(phi, [0.0, SQRT_PI, 0.0])

    def test_neighbor_phase_zero_input(self):
        g = complete_graph(4)
        assert np.array_equal(neighbor_phase(g, np.zeros(4)), np.zeros(4))

    def test_neighbor_phase_cycle_hand_value(self):
        # A @ (1,1,1) on the triangle doubles every entry.
        phi = neighbor_phase(cycle_graph(3), np.ones(3))
        assert np.allclose(phi, 2.0 * SQRT_PI * np.ones(3))

    def test_neighbor_phase_is_linear(self, rng):
        g = random_graph(6, 0.5, rng)
        q1 = rng.normal(size=6)
        q2 = rng.normal(size=6)
        lhs = neighbor_phase(g, q1 + q2)
        rhs = neighbor_phase(g, q1) + neighbor_phase(g, q2)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_neighbor_phase_dimension_mismatch(self):
        with pytest.raises(ValueError):
            neighbor_phase(path_graph(3), np.zeros(4))

    @pytest.mark.parametrize("shape", [(), (5, 4), (3, 5, 2), (3, 1)])
    def test_neighbor_phase_refuses_wrong_last_axis(self, shape):
        with pytest.raises(ValueError, match="last axis"):
            neighbor_phase(path_graph(3), np.zeros(shape))

    @pytest.mark.parametrize("spec", ["path:1", "path:3", "cycle:5", "star:7", "grid2d:10x10"])
    def test_neighbor_phase_stack_is_rowwise_bitwise(self, spec, rng):
        # single rows, the (shots, n) stack and a 3-d stack each equal the
        # ascending left-to-right neighbour sums, times sqrt(pi), bit for bit
        graph = parse_graph_spec(spec)
        q = rng.normal(0.0, 3.0, size=(300, graph.n))
        stacked = neighbor_phase(graph, q)
        assert stacked.shape == q.shape
        assert np.array_equal(stacked, neighbor_sum_phase(graph, q))
        for row, phi in zip(q, stacked):
            assert np.array_equal(neighbor_phase(graph, row), phi)
        deeper = q.reshape(3, 100, graph.n)
        assert np.array_equal(neighbor_phase(graph, deeper), neighbor_sum_phase(graph, deeper))

    def test_neighbor_phase_builds_no_dense_adjacency(self):
        # one outcome vector on 1600 vertices, cold caches: the CSR build and
        # the product stay far below one n x n float64 array (20.5 MB)
        graph = grid2d_graph(40, 40)
        q = np.random.default_rng(3).normal(size=graph.n)
        tracemalloc.start()
        try:
            phi = neighbor_phase(graph, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(phi, neighbor_sum_phase(graph, q))
        assert peak < 1024 * 1024


class TestSpectrum:
    def test_path3_hand_diagonalized(self):
        # A^2 = [[1,0,1],[0,2,0],[1,0,1]] has eigenvalues {2, 2, 0}.
        d, o = a_squared_spectrum(path_graph(3))
        assert np.allclose(d, [2.0, 2.0, 0.0], atol=1e-12)
        a2 = dense_adjacency(path_graph(3)) @ dense_adjacency(path_graph(3))
        assert np.allclose(o @ np.diag(d) @ o.T, a2, atol=1e-10)

    def test_edgeless_is_identity(self):
        d, o = a_squared_spectrum(Graph(2, ()))
        assert np.array_equal(d, np.zeros(2))
        assert np.array_equal(o, np.eye(2))

    def test_complete2(self):
        d, _ = a_squared_spectrum(complete_graph(2))
        assert np.allclose(d, [1.0, 1.0])

    def test_descending_and_nonnegative(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 13))
            g = random_graph(n, 0.4, rng)
            d, _ = a_squared_spectrum(g)
            assert np.all(np.diff(d) <= 1e-12)
            assert np.all(d >= 0.0)

    def test_reconstruction_and_orthogonality(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 13))
            g = random_graph(n, 0.5, rng)
            a = dense_adjacency(g)
            d, o = a_squared_spectrum(g)
            assert np.max(np.abs(o @ o.T - np.eye(n))) < 1e-12
            assert np.max(np.abs(o @ np.diag(d) @ o.T - a @ a)) < 1e-10

    def test_dmax_bounded_by_degree_squared(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 13))
            g = random_graph(n, 0.5, rng)
            d, _ = a_squared_spectrum(g)
            assert d[0] <= max_degree(g) ** 2 + 1e-9

    @pytest.mark.parametrize("m", [320, 450])
    def test_complete_bipartite_spectrum_is_clamped_at_zero(self, m):
        # each colour class of K_{m,m} is one block m J of A^2: eigenvalues m^2
        # and m - 1 zeros, which eigh returns with round-off near 1e-10 of
        # either sign, at the scale of m^2
        g = Graph(2 * m, tuple((i, m + j) for i in range(m) for j in range(m)))
        d, o = a_squared_spectrum(g)
        assert np.all(d >= 0.0)
        assert np.abs(d[:2] - m * m).max() <= 1e-12 * m * m
        assert d[2:].max() <= 1e-12 * m * m
        a = dense_adjacency(g)
        assert np.abs(o.T @ (a @ a) @ o - np.diag(d)).max() <= 1e-12 * m * m

    def test_deterministic_ordering(self):
        d1, o1 = a_squared_spectrum(path_graph(3))
        d2, o2 = a_squared_spectrum(path_graph(3))
        assert np.array_equal(d1, d2)
        assert np.array_equal(o1, o2)


class TestGridFactors:
    """A grid is detected by its edges and diagonalised by its path factors."""

    def test_grid_shape_of_every_small_grid(self):
        for rows in range(1, 9):
            for cols in range(1, 9):
                want = (rows, cols) if rows >= 2 and cols >= 2 else None
                assert _grid_shape(grid2d_graph(rows, cols)) == want

    def test_relabelled_and_near_grids_are_not_grids(self, rng):
        grid = grid2d_graph(4, 6)
        perm = rng.permutation(grid.n)
        relabelled = Graph(grid.n, tuple((perm[i], perm[j]) for i, j in grid.edges))
        assert relabelled.edges != grid.edges and _grid_shape(relabelled) is None
        # same edge count, one edge moved
        moved = Graph(grid.n, grid.edges[1:] + ((0, grid.n - 1),))
        assert _grid_shape(moved) is None
        for g in (cycle_graph(4), path_graph(6), complete_graph(4), Graph(4, ())):
            assert _grid_shape(g) is None
        # cycle:4 equals grid2d:2x2 only under another labelling
        assert _grid_shape(Graph(4, ((0, 1), (0, 2), (1, 3), (2, 3)))) == (2, 2)

    @pytest.mark.parametrize("m", range(1, 31))
    def test_path_spectrum_closed_form(self, m):
        lam, o = _path_spectrum(m)
        a = dense_adjacency(path_graph(m))
        assert np.max(np.abs(o @ o.T - np.eye(m))) <= 1e-14
        assert np.max(np.abs(o.T @ a @ o - np.diag(lam))) <= 1e-14
        assert np.array_equal(lam, -lam[::-1])
        assert np.all(np.diff(lam) < 0.0)
        assert np.max(np.abs(lam - np.linalg.eigvalsh(a)[::-1])) <= 1e-14


def _a2_reach(graph):
    """``reach[i, j]``: vertices i and j are joined in the nonzero pattern of
    ``A^2``, found as the support of ``(I + pattern)^n``."""
    a = dense_adjacency(graph)
    step = np.eye(graph.n) + (a @ a != 0.0)
    return np.linalg.matrix_power(step, graph.n) > 0.0


class TestBlockSpectrum:
    """``A^2`` is diagonalised one block (component of its pattern) at a time."""

    @settings(max_examples=200, deadline=None)
    @given(graph=small_graphs(n_max=12))
    def test_layout_over_random_graphs(self, graph):
        n = graph.n
        a = dense_adjacency(graph)
        a2 = a @ a
        d, o = a_squared_spectrum(graph)
        # every column lives on one block: entries across blocks are exact zeros
        reach = _a2_reach(graph)
        for k in range(n):
            support = np.flatnonzero(o[:, k])
            assert reach[np.ix_(support, support)].all()
        # O^T A^2 O = diag(D), and D is the spectrum of A^2
        scale = 1e-12 * d[0]
        assert np.max(np.abs(o.T @ a2 @ o - np.diag(d))) <= scale
        assert np.max(np.abs(d - np.sort(np.linalg.eigvalsh(a2))[::-1])) <= 1e-12
        # descending, ties by ascending dominant index, dominant entry positive
        dominant = np.argmax(np.abs(o), axis=0)
        assert np.all(np.diff(d) <= 0.0)
        for k in range(n - 1):
            if d[k] == d[k + 1]:
                assert dominant[k] <= dominant[k + 1]
        assert np.all(o[dominant, np.arange(n)] > 0.0)

    def test_bipartite_blocks_are_colour_classes(self):
        # rows of one colour class never meet columns of the other
        side = 6
        _, o = a_squared_spectrum(grid2d_graph(side, side))
        colour = np.add.outer(np.arange(side), np.arange(side)).ravel() % 2
        for k in range(side * side):
            assert len(set(colour[o[:, k] != 0.0])) == 1

    def test_isolated_vertices_are_their_own_blocks(self):
        # vertices 3, 4 and 5 are isolated; the triangle is one non-bipartite block
        g = Graph(6, ((0, 1), (1, 2), (0, 2)))
        d, o = a_squared_spectrum(g)
        assert np.array_equal(d[3:], np.zeros(3))
        assert np.all(o[[3, 4, 5], :3] == 0.0)
        assert np.all(o[:3, 3:] == 0.0)


class TestSerialization:
    def test_round_trip(self):
        g = grid2d_graph(2, 3)
        blob = json.dumps(graph_to_json(g))
        assert graph_from_json(json.loads(blob)) == g

    def test_named_form(self):
        g = graph_from_json({"kind": "cycle", "n": 5})
        assert g == cycle_graph(5)

    def test_parse_spec_strings(self):
        assert parse_graph_spec("path:4") == path_graph(4)
        assert parse_graph_spec("grid2d:2x3") == grid2d_graph(2, 3)
        assert parse_graph_spec("complete:3") == complete_graph(3)

    def test_parse_spec_file(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps(graph_to_json(star_graph(4))))
        assert parse_graph_spec(str(p)) == star_graph(4)

    def test_parse_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_graph_spec("moebius:7")

    @pytest.mark.parametrize("spec", ["path:3x3", "grid2d:3", "grid2d:2x3x4", "custom:3"])
    def test_parse_spec_rejects_wrong_size_shape(self, spec):
        with pytest.raises(ValueError, match="spec"):
            parse_graph_spec(spec)

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"kind": "path", "n": True}, "n"),
            ({"kind": "path", "n": 3.0}, "n"),
            ({"kind": "grid2d", "rows": 2, "cols": "3"}, "cols"),
            ({"kind": "custom", "n": 3, "edges": [[0, 1, 2]]}, "edges"),
            ({"kind": "custom", "n": 3, "edges": 1}, "edges"),
            ({"kind": "star", "n": 3, "edges": []}, "edges"),
        ],
    )
    def test_make_graph_names_the_bad_key(self, params, key):
        with pytest.raises(ValueError, match=repr(key)):
            make_graph(**params)

    def test_explicit_form_without_edges_is_edgeless(self):
        assert graph_from_json({"n": 3}) == Graph(3)


class TestEdgeCap:
    """``make_graph`` counts a family's edges from its sizes and refuses a
    graph above ``MAX_GRAPH_EDGES`` before building it."""

    @pytest.mark.parametrize(
        "spec",
        ["path:1000000000", "cycle:1048577", "star:2000000", "complete:1500", "grid2d:1000x1000"],
    )
    def test_refused_before_building(self, spec):
        cap = f"edges, above the cap MAX_GRAPH_EDGES = {MAX_GRAPH_EDGES}"
        assert_refused_before_allocating(lambda: parse_graph_spec(spec), match=cap)

    def test_custom_edge_list_counted(self):
        edges = [[0, 1], [1, 2], [2, 3]]
        with mock.patch.object(graphs, "MAX_GRAPH_EDGES", 2):
            with pytest.raises(ValueError, match="has 3 edges"):
                make_graph("custom", n=4, edges=edges)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["path", "cycle", "complete", "star", "grid2d"]),
           st.integers(1, 12), st.integers(1, 12))
    def test_count_is_exact(self, kind, a, b):
        # the cap at a graph's own edge count admits it, one below refuses it
        sizes = {"rows": a, "cols": b} if kind == "grid2d" else {"n": a + 2}
        count = len(make_graph(kind, **sizes).edges)
        with mock.patch.object(graphs, "MAX_GRAPH_EDGES", count):
            assert len(make_graph(kind, **sizes).edges) == count
        with mock.patch.object(graphs, "MAX_GRAPH_EDGES", count - 1):
            with pytest.raises(ValueError, match=f"has {count} edges"):
                make_graph(kind, **sizes)

    def test_bad_sizes_still_named_by_their_builder(self):
        with pytest.raises(ValueError, match="grid dimensions must be >= 1"):
            parse_graph_spec("grid2d:-1000000x-1000000")


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: random_graph(3, 1.5, np.random.default_rng(0)), r"^edge probability must be in \[0, 1\], got 1.5$"),
        (lambda: random_graph(3, -0.1, np.random.default_rng(0)), r"^edge probability must be in \[0, 1\], got -0.1$"),
        (lambda: random_graph(3, math.nan, np.random.default_rng(0)), r"^edge probability must be in \[0, 1\], got nan$"),
        (lambda: graph_from_json([3, [[0, 1]]]), r"^graph JSON must be an object, got list$"),
        (lambda: parse_graph_spec("path4"), r"^graph spec 'path4' is neither a file nor of the form kind:size$"),
    ],
)
def test_refusals_name_their_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
