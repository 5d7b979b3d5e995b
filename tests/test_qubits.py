"""Dense qubit engine: cluster states, gates, POVMs, dephasing, metrics."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import assert_refused_before_allocating, non_integers, small_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from cvdownload.graphs import Graph, complete_graph, cycle_graph, path_graph, random_graph, star_graph
from cvdownload.qubits import (
    QubitDensityMatrix,
    _bit,
    _bits,
    _hermitian_from_lower,
    _tensor_product,
    QubitPureState,
    apply_balancing_povm,
    apply_dephasing,
    apply_rz,
    apply_x,
    apply_z,
    balancing_povm_diagonals,
    cluster_state,
    dm_apply_cz,
    dm_tensor,
    fidelity,
    graph_phases,
    inner,
    postprocessing_equivalence,
    stabilizer_residual,
    trace_distance,
)

SQRT_PI = math.sqrt(math.pi)
EPS = np.finfo(float).eps


@st.composite
def _engine_pure_states(draw, n_max=5):
    """A state the engine built: |+>^n (the edgeless graph's cluster state),
    a basis state or a cluster state, then up to eight RZ (any angle in
    [-1000, 1000]), X and Z gates."""
    start = draw(st.sampled_from(["plus", "basis", "cluster"]))
    if start == "cluster":
        psi = cluster_state(draw(small_graphs(n_max=n_max)))
    else:
        n = draw(st.integers(1, n_max))
        if start == "plus":
            psi = cluster_state(Graph(n))
        else:
            psi = QubitPureState(n, np.eye(1, 2**n, draw(st.integers(0, 2**n - 1)))[0])
    gates = st.tuples(st.sampled_from("rxz"), st.integers(0, psi.n - 1), st.floats(-1e3, 1e3))
    for gate, site, theta in draw(st.lists(gates, max_size=8)):
        if gate == "r":
            psi = apply_rz(psi, site, theta)
        else:
            psi = (apply_x if gate == "x" else apply_z)(psi, site)
    return psi


@st.composite
def _engine_registers(draw):
    """A register the engine built, and the gates it went through: the
    projector of an engine-built pure state (or a tensor of two), then up
    to six CZ, dephasing and balancing-POVM gates."""
    psi = draw(_engine_pure_states(n_max=3))
    rho = psi.density_matrix()
    if draw(st.booleans()):
        rho = dm_tensor([rho, draw(_engine_pure_states(n_max=2)).density_matrix()])
    registers = [rho]
    sites = st.integers(0, rho.n - 1)
    for gate in draw(st.lists(st.sampled_from(["cz", "dephase", "povm"]), max_size=6)):
        if gate == "cz" and rho.n > 1:
            i, j = draw(st.lists(sites, min_size=2, max_size=2, unique=True))
            rho = dm_apply_cz(rho, i, j)
        elif gate == "dephase":
            rho = apply_dephasing(rho, draw(sites), draw(st.floats(0.0, 0.5)))
        elif gate == "povm":
            site, ell = draw(sites), draw(st.floats(-50.0, 50.0))
            for force in draw(st.permutations(["keep", "delete"])):
                try:
                    rho = apply_balancing_povm(rho, site, ell, force).state
                    break
                except ValueError as exc:
                    assert "zero-probability" in str(exc)
        registers.append(rho)
    return registers


def _random_pure(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QubitPureState(n, amps, normalize=True)


def _dense_cluster_oracle(graph):
    """Brute-force |G> via explicit 2^n x 2^n CZ matrices."""
    dim = 2**graph.n
    psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    for i, j in graph.edges:
        cz = np.eye(dim, dtype=complex)
        for b in range(dim):
            if (b >> i) & 1 and (b >> j) & 1:
                cz[b, b] = -1.0
        psi = cz @ psi
    return QubitPureState(graph.n, psi)


class TestStateTypes:
    def test_pure_state_norm_validation(self):
        with pytest.raises(ValueError):
            QubitPureState(1, np.array([1.0, 1.0]))

    def test_pure_state_normalize_flag(self):
        psi = QubitPureState(1, np.array([3.0, 4.0]), normalize=True)
        assert np.allclose(psi.amps, [0.6, 0.8])

    def test_density_matrix_checks(self):
        with pytest.raises(ValueError):
            QubitDensityMatrix(1, np.array([[1.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            QubitDensityMatrix(1, np.diag([0.7, 0.7]))

    @pytest.mark.parametrize("normalize", [False, True])
    def test_nan_pure_state_rejected(self, normalize):
        with pytest.raises(ValueError):
            QubitPureState(1, np.full(2, np.nan), normalize=normalize)

    @pytest.mark.parametrize("one_entry", [False, True])
    def test_nan_density_matrix_rejected(self, one_entry):
        rho = np.full((2, 2), np.nan)
        if one_entry:  # a NaN on the diagonal alone: its own mirror
            rho = np.diag([np.nan, 1.0])
        with pytest.raises(ValueError):
            QubitDensityMatrix(1, rho)

    def test_nan_in_the_last_hermiticity_block_rejected(self):
        # n = 10 is checked in tile pairs of 128 x 128; a NaN pair off the
        # diagonal of the last one leaves the trace finite, so only that tile sees it
        rho = np.eye(2**10, dtype=complex) / 2**10
        rho[-1, -2] = rho[-2, -1] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            QubitDensityMatrix(10, rho)

    def test_nan_in_the_far_corner_tile_rejected(self):
        # the last upper tile of the first tile row, and its mirror
        rho = np.eye(2**10, dtype=complex) / 2**10
        rho[0, -1] = rho[-1, 0] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            QubitDensityMatrix(10, rho)

    @pytest.mark.parametrize("n, i, j", [(9, 300, 10), (9, 511, 384), (8, 200, 3), (3, 5, 2)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_asymmetry_in_the_lower_triangle_rejected(self, n, i, j, dtype):
        # the tiles walk the upper triangle; each pair compares its mirror,
        # so an entry below the diagonal is seen, also below one tile's size
        rho = np.eye(2**n, dtype=dtype) / 2**n
        rho[i, j] = 1e-9
        with pytest.raises(ValueError, match=r"not Hermitian \(deviation 1.000e-09\)"):
            QubitDensityMatrix(n, rho)
        rho[j, i] = 1e-9
        QubitDensityMatrix(n, rho)

    @pytest.mark.parametrize("n, site", [(1, 1), (9, 300), (10, 1023)])
    def test_imaginary_diagonal_rejected(self, n, site):
        rho = np.eye(2**n, dtype=complex) / 2**n
        rho[site, site] += 1e-9j  # leaves the trace's real part at 1
        with pytest.raises(ValueError, match="not Hermitian"):
            QubitDensityMatrix(n, rho)

    @pytest.mark.parametrize(
        "rho",
        [
            [[1, 0], [0, 0]],
            np.array([[1, 0], [0, 0]]),
            np.array([[True, False], [False, False]]),
            np.array([[0.5, 0.25], [0.25, 0.5]], dtype=np.float32),
        ],
    )
    def test_list_int_bool_and_float32_inputs_accepted(self, rho):
        state = QubitDensityMatrix(1, rho)
        assert state.rho.dtype == np.complex128
        assert np.array_equal(state.rho, np.asarray(rho, dtype=complex))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("readonly", [False, True])
    def test_stored_matrix_is_a_complex_copy(self, dtype, readonly):
        # a read-only input, such as a run's columns, gives a writable copy too
        rho = np.eye(2**9, dtype=dtype) / 2**9
        rho.flags.writeable = not readonly
        state = QubitDensityMatrix(9, rho)
        assert state.rho.dtype == np.complex128 and state.rho.flags.writeable
        assert not np.shares_memory(state.rho, rho)
        rho.flags.writeable = True
        rho[0, 0] = 7.0
        assert state.rho[0, 0] == 1.0 / 2**9

    def test_density_matrix_temporaries_stay_small(self):
        rho = np.eye(2**10, dtype=complex) / 2**10
        tracemalloc.start()
        try:
            QubitDensityMatrix(10, rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * rho.nbytes  # the copy plus tiles; was 3x

    @pytest.mark.parametrize("n", [0, 3, 7, 9])
    def test_hermitian_from_lower_matches_whole_matrix_copy(self, n, rng):
        # the tiled copy against the whole-matrix form, bit for bit; n = 9
        # spans 4 x 4 tiles
        dim = 2**n
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        want = m.copy()
        np.copyto(want, want.conj().T, where=~np.tri(dim, dtype=bool))
        np.fill_diagonal(want.imag, 0.0)
        assert _hermitian_from_lower(m).tobytes() == want.tobytes()

    def test_hermitian_from_lower_temporaries_stay_small(self):
        amps = np.full(2**10, 2.0**-5, dtype=complex)
        tracemalloc.start()
        try:
            rho = _hermitian_from_lower(np.outer(amps, amps.conj()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * rho.nbytes  # the register plus tiles; was 2.1x

    def test_purity_of_pure_projector(self):
        rho = cluster_state(Graph(2)).density_matrix()
        assert abs(rho.purity() - 1.0) < 1e-12

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            QubitPureState(2, np.array([1.0, 0.0]))


class TestExactByConstruction:
    """Gates store their results with no float test; these are the
    properties that make the tests unneeded, over engine-built inputs."""

    @settings(max_examples=120, deadline=None)
    @given(_engine_pure_states())
    def test_pure_gates_keep_unit_norm(self, psi):
        assert psi.amps.dtype == np.complex128
        assert abs(np.linalg.norm(psi.amps) - 1.0) <= 8 * EPS
        QubitPureState(psi.n, psi.amps)  # the checked constructor agrees

    @settings(max_examples=150, deadline=None)
    @given(_engine_registers())
    def test_register_gates_are_exactly_hermitian(self, registers):
        for rho in registers:
            assert rho.rho.dtype == np.complex128
            assert np.array_equal(rho.rho, rho.rho.conj().T)
            assert abs(rho.rho.trace().real - 1.0) <= 8 * EPS
            QubitDensityMatrix(rho.n, rho.rho)  # the checked constructor agrees

    def test_complex_projector_is_mirrored(self, rng):
        # a fused multiply-add may round a_i conj(a_j) and a_j conj(a_i)
        # apart; the projector keeps np.outer's lower triangle
        psi = _random_pure(7, rng)
        rho = psi.density_matrix().rho
        outer = np.outer(psi.amps, psi.amps.conj())
        assert np.array_equal(np.tril(rho, -1), np.tril(outer, -1))
        assert np.array_equal(rho.diagonal().real, outer.diagonal().real)
        assert np.array_equal(rho, rho.conj().T)

    def test_non_finite_angle_refused(self):
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="rotation angle must be finite"):
                apply_rz(cluster_state(Graph(2)), 0, theta)

    @settings(max_examples=60, deadline=None)
    @given(_engine_pure_states(n_max=4), st.floats(2e-12, 1.0), st.data())
    def test_checked_constructors_refuse_outside_input(self, psi, size, data):
        # what the engine builds passes; the same state moved off the unit
        # sphere, off Hermiticity, off unit trace or holding a NaN does not
        sign = data.draw(st.sampled_from([-1.0, 1.0]))
        index = data.draw(st.integers(0, 2**psi.n - 1))
        with pytest.raises(ValueError, match="not normalized"):
            QubitPureState(psi.n, psi.amps * (1.0 + sign * size))
        amps = psi.amps.copy()
        amps[index] = math.nan
        with pytest.raises(ValueError, match="not normalized"):
            QubitPureState(psi.n, amps)
        rho = psi.density_matrix().rho
        with pytest.raises(ValueError, match=r"trace is"):
            QubitDensityMatrix(psi.n, rho * (1.0 + sign * size))
        i, j = data.draw(st.lists(st.integers(0, 2**psi.n - 1), min_size=2, max_size=2))
        bad = rho.copy()
        bad[i, j] += sign * 2 * size if i != j else 2j * size
        with pytest.raises(ValueError, match="not Hermitian"):
            QubitDensityMatrix(psi.n, bad)
        bad = rho.copy()
        bad[i, j] = math.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            QubitDensityMatrix(psi.n, bad)


class TestClusterStates:
    def test_single_vertex_is_plus(self):
        psi = cluster_state(path_graph(1))
        assert fidelity(psi, cluster_state(Graph(1))) > 1.0 - 1e-14

    def test_two_vertex_amplitudes(self):
        psi = cluster_state(path_graph(2))
        assert np.allclose(psi.amps, np.array([1, 1, 1, -1]) / 2.0)

    def test_path3_matches_dense_oracle(self):
        psi = cluster_state(path_graph(3))
        oracle = _dense_cluster_oracle(path_graph(3))
        assert fidelity(psi, oracle) > 1.0 - 1e-13
        assert np.allclose(np.abs(psi.amps), 1.0 / math.sqrt(8.0))

    def test_random_graphs_match_dense_oracle(self, rng):
        for _ in range(10):
            g = random_graph(int(rng.integers(1, 6)), 0.6, rng)
            assert fidelity(cluster_state(g), _dense_cluster_oracle(g)) > 1.0 - 1e-12
            phases = graph_phases(g)  # the CZ signs: real and exactly +-1
            assert phases.dtype == np.float64 and set(phases.tolist()) <= {-1.0, 1.0}

    def test_qubit_cap(self):
        graph = path_graph(13)
        assert_refused_before_allocating(lambda: cluster_state(graph))
        assert_refused_before_allocating(lambda: graph_phases(graph))
        part = cluster_state(Graph(7)).density_matrix()  # two make a 4^14 * 16 B = 4.3 GB product
        assert_refused_before_allocating(lambda: dm_tensor([part, part]))
        # the checked constructors refuse before their copies of 128 KB and 1 GB
        # (the matrix is given as a broadcast view, which holds no bytes)
        amps = np.zeros(2**13)
        assert_refused_before_allocating(lambda: QubitPureState(13, amps))
        assert_refused_before_allocating(lambda: QubitDensityMatrix(13, np.broadcast_to(0.0, (2**13, 2**13))))

    def test_graph_phases_are_built_once_and_read_only(self):
        graph = cycle_graph(5)
        phases = graph_phases(graph)
        assert graph_phases(cycle_graph(5)) is phases  # an equal graph shares it
        assert graph_phases.cache_info().misses == 1  # the autouse fixture emptied it
        with pytest.raises(ValueError, match="read-only"):
            phases[0] = -phases[0]


class TestStabilizers:
    def test_cluster_states_are_fixed_points(self):
        families = [path_graph(5), cycle_graph(6), star_graph(7), complete_graph(4)]
        for g in families:
            psi = cluster_state(g)
            for vertex in range(g.n):
                assert stabilizer_residual(psi, g, vertex) < 1e-12

    def test_all_zeros_residual_sqrt2(self):
        g = Graph(3, ())
        psi = QubitPureState(3, np.eye(1, 8, 0)[0])
        assert abs(stabilizer_residual(psi, g, 1) - math.sqrt(2.0)) < 1e-12

    def test_generic_state_has_positive_residual(self, rng):
        g = path_graph(3)
        psi = _random_pure(3, rng)
        assert stabilizer_residual(psi, g, 0) > 1e-3


class TestGates:
    def test_rz_zero_is_identity(self, rng):
        psi = _random_pure(2, rng)
        assert np.allclose(apply_rz(psi, 1, 0.0).amps, psi.amps)

    def test_rz_relative_phase(self):
        # R_Z(theta) = e^{-i Z theta/2} leaves a relative phase e^{+i theta}
        # on |1> against |0>.
        theta = 0.7
        psi = apply_rz(cluster_state(Graph(1)), 0, theta)
        ratio = psi.amps[1] / psi.amps[0]
        assert abs(ratio - np.exp(1j * theta)) < 1e-12

    def test_x_and_z_on_basis_states(self):
        one = apply_x(QubitPureState(1, [1.0, 0.0]), 0)
        assert np.allclose(one.amps, [0.0, 1.0])
        flipped = apply_z(one, 0)
        assert np.allclose(flipped.amps, [0.0, -1.0])

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            apply_x(cluster_state(Graph(2)), 2)

    def test_tensor_little_endian(self):
        # qubit 0 of the product is the first factor's qubit 0
        one, zero = (QubitPureState(1, amps).density_matrix() for amps in ([0.0, 1.0], [1.0, 0.0]))
        rho = dm_tensor([one, zero])
        assert np.argmax(rho.rho.diagonal().real) == 1


class TestBalancingPovm:
    def test_keep_probability_gamma_half(self):
        gamma = 0.5
        psi = QubitPureState(1, np.array([1.0, gamma]), normalize=True)
        res = apply_balancing_povm(psi.density_matrix(), 0, math.log(gamma), force="keep")
        assert abs(res.probability - 0.4) < 1e-12
        assert fidelity(cluster_state(Graph(1)), res.state) > 1.0 - 1e-12

    def test_keep_probability_gamma_two(self):
        gamma = 2.0
        psi = QubitPureState(1, np.array([1.0, gamma]), normalize=True)
        res = apply_balancing_povm(psi.density_matrix(), 0, math.log(gamma), force="keep")
        assert abs(res.probability - 2.0 / (1.0 + gamma**2)) < 1e-12
        assert fidelity(cluster_state(Graph(1)), res.state) > 1.0 - 1e-12

    def test_gamma_one_always_keeps(self, rng):
        rho = _random_pure(1, rng).density_matrix()
        res = apply_balancing_povm(rho, 0, 0.0, force="keep")
        assert res.outcome == "keep"
        assert abs(res.probability - 1.0) < 1e-12
        assert trace_distance(res.state, rho) < 1e-12
        with pytest.raises(ValueError, match="zero-probability outcome 'delete'"):
            apply_balancing_povm(rho, 0, 0.0, force="delete")

    def test_outcome_must_be_named(self, rng):
        rho = _random_pure(1, rng).density_matrix()
        with pytest.raises(ValueError, match="force must be 'keep' or 'delete'"):
            apply_balancing_povm(rho, 0, math.log(0.5), force="erase")

    def test_keep_branch_preserves_relative_phase(self):
        alpha = 1.234
        gamma = 0.3
        amps = np.array([1.0, gamma * np.exp(1j * alpha)])
        psi = QubitPureState(1, amps, normalize=True)
        res = apply_balancing_povm(psi.density_matrix(), 0, math.log(gamma), force="keep")
        target = QubitPureState(1, np.array([1.0, np.exp(1j * alpha)]) / math.sqrt(2.0))
        assert fidelity(target, res.state) > 1.0 - 1e-12

    def test_delete_branch_collapses(self):
        gamma = 0.5  # gamma < 1: the delete Kraus projects onto |0>
        psi = QubitPureState(1, np.array([1.0, gamma]), normalize=True)
        res = apply_balancing_povm(psi.density_matrix(), 0, math.log(gamma), force="delete")
        assert res.collapsed_bit == 0
        assert fidelity(QubitPureState(1, [1.0, 0.0]), res.state) > 1.0 - 1e-12
        big = apply_balancing_povm(psi.density_matrix(), 0, math.log(2.0), force="delete")
        assert big.collapsed_bit == 1

    def test_completeness_thousand_gammas(self, rng):
        # l = log gamma over [-5, 5], and the basis-state POVMs at l = +-inf
        for ell in [*rng.uniform(-5.0, 5.0, size=1000), -math.inf, math.inf]:
            keep, delete, _ = balancing_povm_diagonals(ell)
            total = np.abs(keep) ** 2 + np.abs(delete) ** 2
            assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_outcome_probabilities_sum_to_one(self, rng):
        rho = _random_pure(2, rng).density_matrix()
        p_keep = apply_balancing_povm(rho, 1, math.log(0.7), force="keep").probability
        p_del = apply_balancing_povm(rho, 1, math.log(0.7), force="delete").probability
        assert abs(p_keep + p_del - 1.0) < 1e-12

    def test_invalid_gamma(self):
        # only NaN is refused; l = -inf / +inf (gamma = 0 / inf) collapses
        # exactly onto |0> / |1>
        rho = QubitPureState(1, np.array([0.6, 0.8])).density_matrix()
        with pytest.raises(ValueError, match="NaN"):
            apply_balancing_povm(rho, 0, math.nan, force="keep")
        for ell, bit in ((-math.inf, 0), (math.inf, 1)):
            keep, delete, deleted_bit = balancing_povm_diagonals(ell)
            assert deleted_bit == bit
            assert keep.tolist() == [float(bit), float(1 - bit)]
            assert delete.tolist() == [float(1 - bit), float(bit)]
            res = apply_balancing_povm(rho, 0, ell, force="delete")
            assert res.collapsed_bit == bit
            assert res.probability == rho.rho[bit, bit].real
            assert np.array_equal(res.state.rho, QubitPureState(1, np.eye(1, 2, bit)[0]).density_matrix().rho)

    def test_commutes_with_dephasing(self, rng):
        # Both channels are diagonal in Z, so order cannot matter.
        for _ in range(20):
            rho = _random_pure(2, rng).density_matrix()
            ell = math.log(rng.uniform(0.2, 3.0))
            p_phi = float(rng.uniform(0.0, 0.5))
            first = apply_balancing_povm(apply_dephasing(rho, 0, p_phi), 0, ell, force="keep")
            second = apply_dephasing(
                apply_balancing_povm(rho, 0, ell, force="keep").state, 0, p_phi
            )
            assert abs(first.probability - apply_balancing_povm(rho, 0, ell, force="keep").probability) < 1e-12
            assert trace_distance(first.state, second) < 1e-12


class TestDephasing:
    def test_zero_rate_identity(self, rng):
        rho = _random_pure(2, rng).density_matrix()
        assert trace_distance(apply_dephasing(rho, 0, 0.0), rho) < 1e-14

    def test_half_rate_kills_coherence(self):
        rho = apply_dephasing(cluster_state(Graph(1)).density_matrix(), 0, 0.5)
        assert np.allclose(rho.rho, np.eye(2) / 2.0, atol=1e-14)

    def test_off_diagonal_scaling(self):
        rho = apply_dephasing(cluster_state(Graph(1)).density_matrix(), 0, 0.1)
        assert abs(rho.rho[0, 1] - 0.4) < 1e-14

    def test_rate_validation(self):
        rho = cluster_state(Graph(1)).density_matrix()
        with pytest.raises(ValueError):
            apply_dephasing(rho, 0, 0.6)
        with pytest.raises(ValueError):
            apply_dephasing(rho, 0, -0.1)

    def test_trace_preserved(self, rng):
        rho = _random_pure(3, rng).density_matrix()
        out = apply_dephasing(rho, 2, 0.3)
        assert abs(np.trace(out.rho) - 1.0) < 1e-12


class TestMetrics:
    def test_fidelity_self(self, rng):
        psi = _random_pure(2, rng)
        assert abs(fidelity(psi, psi) - 1.0) < 1e-12

    def test_fidelity_orthogonal(self):
        assert fidelity(QubitPureState(1, [1.0, 0.0]), QubitPureState(1, [0.0, 1.0])) < 1e-14

    def test_fidelity_plus_zero(self):
        assert abs(fidelity(cluster_state(Graph(1)), QubitPureState(1, [1.0, 0.0])) - 0.5) < 1e-12

    def test_fidelity_pure_mixed_consistency(self, rng):
        psi = _random_pure(2, rng)
        phi = _random_pure(2, rng)
        pp = fidelity(psi, phi)
        pm = fidelity(psi, phi.density_matrix())
        mm = fidelity(psi.density_matrix(), phi.density_matrix())
        assert abs(pp - pm) < 1e-10
        assert abs(pp - mm) < 1e-8

    def test_fidelity_symmetric(self, rng):
        a = _random_pure(1, rng).density_matrix()
        b = apply_dephasing(_random_pure(1, rng).density_matrix(), 0, 0.2)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10

    def test_trace_distance_extremes(self):
        zero, one = (QubitPureState(1, amps).density_matrix() for amps in ([1.0, 0.0], [0.0, 1.0]))
        assert trace_distance(zero, one) > 1.0 - 1e-12
        psi = cluster_state(Graph(2)).density_matrix()
        assert trace_distance(psi, psi) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(cluster_state(Graph(1)), cluster_state(Graph(2)))


class TestDensityOps:
    def test_dm_tensor_matches_pure_tensor(self, rng):
        a = _random_pure(1, rng)
        b = _random_pure(2, rng)
        lhs = dm_tensor([a.density_matrix(), b.density_matrix()])
        rhs = QubitPureState(3, np.kron(b.amps, a.amps)).density_matrix()  # a on the low bit
        assert trace_distance(lhs, rhs) < 1e-12

    def test_dm_apply_cz_matches_pure(self, rng):
        psi = _random_pure(2, rng)
        lhs = dm_apply_cz(psi.density_matrix(), 0, 1)
        rhs = QubitPureState(2, psi.amps * graph_phases(path_graph(2))).density_matrix()
        assert trace_distance(lhs, rhs) < 1e-12


class TestRegisterLayout:
    """One bit table and one product give every dense register its layout."""

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_bit_table_is_little_endian(self, n):
        table = _bits(n)
        assert table.shape == (2**n, n)
        for index in range(2**n):
            assert table[index].tolist() == [(index >> i) & 1 for i in range(n)]
        for site in range(n):
            assert np.array_equal(_bit(n, site), table[:, site])
        with pytest.raises(ValueError, match="out of range"):
            _bit(n, n)

    @pytest.mark.parametrize("rows, dtype", [(True, complex), (False, complex), (False, float)])
    def test_product_is_the_kron_fold_bit_for_bit(self, rng, rows, dtype):
        # square factors as density matrices, 1 x d rows as state vectors
        for _ in range(200):
            dims = 2 ** rng.integers(0, 3, size=rng.integers(1, 4))
            factors = [rng.normal(size=(1 if rows else d, d)).astype(dtype) for d in dims]
            if dtype is complex:
                factors = [f + 1j * rng.normal(size=f.shape) for f in factors]
            one = np.ones((1, 1), dtype=dtype)
            expected = one
            for f in factors:
                expected = np.kron(f, expected)
            assert np.array_equal(_tensor_product(factors, one), expected)


class TestPostprocessing:
    def test_trivial_inputs(self):
        g = path_graph(3)
        assert postprocessing_equivalence(g, np.zeros(3, dtype=int), np.zeros(3)) < 1e-14

    def test_path3_known_case(self, rng):
        g = path_graph(3)
        mu = rng.uniform(-0.5, 0.5, size=3) * SQRT_PI / 2.0
        dev = postprocessing_equivalence(g, np.array([1, 0, 0]), mu)
        assert dev < 1e-10

    def test_random_cases(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            g = random_graph(n, 0.5, rng)
            l = rng.integers(0, 2, size=n)
            mu = rng.uniform(-0.49, 0.49, size=n) * SQRT_PI
            assert postprocessing_equivalence(g, l, mu) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(non_integers)
    def test_non_integer_l_refused(self, value):
        # refused, not truncated; whole floats are still taken
        g = path_graph(3)
        assert_refused_before_allocating(
            lambda: postprocessing_equivalence(g, [value, 1, 2], np.zeros(3)), match="^l must"
        )
        assert postprocessing_equivalence(g, [2.0, 1.0, -3.0], np.zeros(3)) < 1e-12


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: QubitDensityMatrix(1, np.eye(4) / 4), r"^expected a 2x2 matrix, got \(4, 4\)$"),
        (lambda: QubitDensityMatrix(2, np.ones(4) / 4), r"^expected a 4x4 matrix, got \(4,\)$"),
        (lambda: dm_apply_cz(cluster_state(Graph(2)).density_matrix(), 1, 1),
         r"^CZ needs two distinct qubits$"),
        (lambda: postprocessing_equivalence(path_graph(3), [0, 0], np.zeros(3)),
         r"^l and mu must each have one entry per vertex$"),
        (lambda: postprocessing_equivalence(path_graph(3), [0, 0, 0], np.zeros(4)),
         r"^l and mu must each have one entry per vertex$"),
    ],
)
def test_refusals_name_their_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
