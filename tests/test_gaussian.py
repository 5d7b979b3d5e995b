"""Covariance-matrix engine: channels, physicality, closed forms."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from conftest import dense_adjacency, random_orthogonal, small_graphs
from cvdownload.gaussian import (
    R0_LIMIT,
    GaussianState,
    SqueezedThermalParams,
    apply_cphase,
    apply_detector_noise,
    apply_loss,
    _rotated_mode_diag_state,
    apply_orthogonal,
    collective_mode_covariance,
    mixture_params,
    mode_diag_state,
    squeezed_thermal,
    symplectic_eigenvalues,
    thermal_cvcs,
    vacuum,
)
from cvdownload.graphs import Graph, complete_graph, path_graph, random_graph

EPS = np.finfo(float).eps


def _congruence(s, cov):
    """``S V S^T`` made exactly symmetric: the dense oracle of the block-form
    channels."""
    m = s @ cov @ s.T
    return 0.5 * (m + m.T)


def _refused_without_warnings(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


def _closed_form_cvcs(graph, b1, b2):
    """Hand assembly of the unit-strength CPHASE output covariance."""
    a = dense_adjacency(graph)
    n = graph.n
    eye = np.eye(n)
    top = np.hstack([b1 * eye, b1 * a])
    bottom = np.hstack([b1 * a, b2 * eye + b1 * (a @ a)])
    return np.vstack([top, bottom])


class TestPreparation:
    def test_vacuum(self):
        v = vacuum(3)
        assert np.allclose(v.cov, 0.5 * np.eye(6))

    def test_squeezed_vacuum_variances(self):
        st = squeezed_thermal(SqueezedThermalParams(1.0, 0.0), 2)
        assert abs(st.cov[0, 0] - math.e**2 / 2.0) < 1e-12
        assert abs(st.cov[2, 2] - math.e**-2 / 2.0) < 1e-12

    def test_squeezed_thermal_b_constants(self):
        # r=0.5, nbar=1: B1 = 1.5 e, B2 = 1.5/e
        st = squeezed_thermal(SqueezedThermalParams(0.5, 1.0), 1)
        assert abs(st.cov[0, 0] - 1.5 * math.e) < 1e-12
        assert abs(st.cov[1, 1] - 1.5 / math.e) < 1e-12

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError):
            SqueezedThermalParams(0.5, -0.1)

    @pytest.mark.parametrize(
        "r, nbar",
        [
            (math.nextafter(-R0_LIMIT, -math.inf), 0.0),
            (math.nextafter(R0_LIMIT, math.inf), 0.0),
            (R0_LIMIT - 1.0, 10.0),  # r in range, r0 = r + log(21)/2 beyond it
            (0.0, 1e308),  # 1 + 2 nbar overflows, so r0 = inf
            (-354.8, 0.0),
            (-400.0, 0.0),
            (360.0, 0.0),
        ],
    )
    def test_squeezing_beyond_float_range_rejected(self, r, nbar):
        with pytest.raises(ValueError, match=repr(R0_LIMIT)):
            SqueezedThermalParams(r, nbar)

    @pytest.mark.parametrize("r", [-R0_LIMIT, R0_LIMIT])
    def test_squeezing_limit_itself_accepted(self, r):
        params = SqueezedThermalParams(r)
        assert abs(mixture_params(params).r0) <= R0_LIMIT

    def test_asymmetric_covariance_rejected(self):
        bad = 0.5 * np.eye(2)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError):
            GaussianState(1, bad)

    @pytest.mark.parametrize("n", [1, 40, 144])
    def test_asymmetry_in_last_row_block_rejected(self, n):
        # the check runs in row blocks; both rows of this pair lie in the last
        bad = np.eye(2 * n)
        bad[-1, -2] = 1e-9
        with pytest.raises(ValueError, match=r"^covariance is not symmetric \(deviation 1\.000e-09\)$"):
            GaussianState(n, bad)
        bad[-1, -2] = 1e-12  # within the tolerance
        GaussianState(n, bad)

    @pytest.mark.parametrize("r", [2.0, 10.0, 20.0])
    def test_symmetry_judged_at_the_covariance_scale(self, r, rng):
        # S R V R^T S^T (CPHASE on path:3, a random rotation, nbar 0.1) by
        # plain float products: its round-off asymmetry grows with the entries
        # (16 at r = 20, where they reach 2.8e17), inside 1e-12 sqrt(C_ii C_jj),
        # the bound on an entry of a PSD matrix
        n = 3
        zero, one, o = np.zeros((n, n)), np.eye(n), random_orthogonal(n, rng)
        s = np.block([[one, zero], [dense_adjacency(path_graph(n)), one]])
        rot = np.block([[o, zero], [zero, o]])
        params = SqueezedThermalParams(r, 0.1)
        cov = s @ rot @ np.diag([params.q_variance] * n + [params.p_variance] * n) @ rot.T @ s.T
        state = GaussianState(n, cov)
        assert np.array_equal(state.cov, state.cov.T)
        if r > 2.0:
            assert np.abs(cov - cov.T).max() > 1e-12  # beyond any absolute 1e-12 bound
        # an asymmetry above the scale is still refused
        root = np.sqrt(np.diagonal(cov))
        cov[0, 1] += 1e-11 * root[0] * root[1]
        with pytest.raises(ValueError, match="^covariance is not symmetric"):
            GaussianState(n, cov)

    def test_nan_covariance_rejected(self):
        # refused before the symmetry test, where inf - inf would warn
        match = "^covariance has non-finite entries$"
        for bad in (np.nan, np.inf, -np.inf):
            cov = np.eye(4)
            cov[1, 3] = cov[3, 1] = bad
            _refused_without_warnings(lambda: GaussianState(2, cov), match)
            _refused_without_warnings(lambda: GaussianState(1, np.full((2, 2), bad)), match)

    @pytest.mark.parametrize("entry", [1e308, sys.float_info.max])
    def test_entries_up_to_the_float_max_accepted(self, entry):
        # qq + qq^T overflows; the average with the transpose does not, and
        # both constructions give the state mode_diag_state builds
        want = mode_diag_state([entry], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (GaussianState(1, np.diag([entry, 1.0])), apply_orthogonal(want, np.eye(1)))
        for state in got:
            assert state.cov.tobytes() == want.cov.tobytes()

    def test_overflow_fallback_only_where_the_sum_overflows(self):
        # 0.5 x + 0.5 x rounds the smallest subnormal to 0; the entries whose
        # sum stays finite keep the usual 0.5 (x + x)
        tiny = 5e-324
        cov = np.diag([1e308, 1.0, 1.0, 1.0])
        cov[0, 1] = cov[1, 0] = tiny
        state = GaussianState(2, cov)
        assert state.qq.tobytes() == np.array([[1e308, tiny], [tiny, 1.0]]).tobytes()

    def test_cov_returns_input_bit_for_bit(self, rng):
        for n in (1, 3, 8):
            cov = _random_state(n, 1e30, rng).cov
            cov[0, n] = cov[n, 0] = -0.0
            st = GaussianState(n, cov)
            assert st.n == n
            assert st.cov.tobytes() == cov.tobytes()

    def test_mode_diag_state(self):
        st = mode_diag_state([1.0, 2.0], [0.25, 0.125])
        assert np.allclose(np.diag(st.cov), [1.0, 2.0, 0.25, 0.125])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_mode_diag_state_refuses_bad_variance(self, bad):
        match = "^quadrature variances must be positive and finite$"
        _refused_without_warnings(lambda: mode_diag_state([1.0, bad], [1.0, 1.0]), match)
        _refused_without_warnings(lambda: mode_diag_state([1.0, 1.0], [bad, 1.0]), match)


class TestCphase:
    def test_edgeless_graph_no_op(self):
        st = squeezed_thermal(SqueezedThermalParams(0.7, 0.2), 3)
        out = apply_cphase(st, Graph(3, ()))
        assert np.allclose(out.cov, st.cov)

    def test_two_mode_hand_value(self):
        out = apply_cphase(vacuum(2), path_graph(2))
        expected = np.array(
            [
                [0.5, 0.0, 0.0, 0.5],
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.5, 1.0, 0.0],
                [0.5, 0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(out.cov, expected, atol=1e-14)

    def test_thermal_cvcs_closed_form(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            g = random_graph(n, 0.5, rng)
            r = float(rng.uniform(0.0, 1.5))
            nbar = float(rng.uniform(0.0, 2.0))
            params = SqueezedThermalParams(r, nbar)
            st = thermal_cvcs(g, params)
            b1 = math.exp(2 * r) * (nbar + 0.5)
            b2 = math.exp(-2 * r) * (nbar + 0.5)
            assert np.max(np.abs(st.cov - _closed_form_cvcs(g, b1, b2))) < 1e-12

    def test_strength_scales_coupling(self):
        st = squeezed_thermal(SqueezedThermalParams(0.3, 0.0), 2)
        weak = apply_cphase(st, path_graph(2), strength=0.5)
        strong = apply_cphase(st, path_graph(2), strength=1.0)
        assert abs(weak.cov[0, 3] - 0.5 * strong.cov[0, 3]) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_cphase(vacuum(2), path_graph(3))

    @pytest.mark.parametrize("strength", [np.nan, np.inf, -np.inf])
    def test_non_finite_strength_refused(self, strength):
        _refused_without_warnings(
            lambda: apply_cphase(vacuum(2), path_graph(2), strength), "^CPHASE strength must be finite"
        )

    def test_overflowing_products_refused(self):
        # G V_qq G reaches 1e400: each entry of the finite strength is fine,
        # the p-p block is not
        _refused_without_warnings(
            lambda: apply_cphase(vacuum(3), path_graph(3), 1e200),
            "^covariance leaves the float range$",
        )

    @pytest.mark.parametrize("scale", [1.0, 1e30])
    def test_congruences_exactly_symmetric(self, scale, rng):
        # an unsymmetrized O X O^T carries round-off asymmetry that grows with
        # the covariance scale, and so may a matrix from outside: the passive
        # network and GaussianState(n, cov) average with the transposes, and
        # every other channel builds exactly symmetric blocks, so no float
        # symmetry test runs downstream
        for n in (2, 5, 7):
            st = mode_diag_state(scale * rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n))
            dense = apply_orthogonal(st, random_orthogonal(n, rng))
            cov = dense.cov
            cov[n, n + 1] += 1e-13  # in the p-p block, within the 1e-12 tolerance
            assert cov[n, n + 1] != cov[n + 1, n]
            for out in (
                st,
                dense,
                apply_cphase(dense, random_graph(n, 0.6, rng), float(rng.uniform(0.5, 2.0))),
                apply_loss(dense, float(rng.uniform(0.0, 0.9))),
                apply_detector_noise(dense, float(rng.uniform(0.0, 0.9))),
                GaussianState(n, cov),
            ):
                assert np.array_equal(out.cov, out.cov.T)


def _random_state(n, scale, rng):
    """A physical state with dense, unequal blocks: squeezed-thermal modes
    through a random passive network and a random CPHASE, dense S V S^T."""
    v = np.diag(np.concatenate([scale * rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)]))
    u = np.zeros((2 * n, 2 * n))
    u[:n, :n] = u[n:, n:] = random_orthogonal(n, rng)
    s = np.eye(2 * n)
    s[n:, :n] = rng.uniform(0.5, 2.0) * dense_adjacency(random_graph(n, 0.6, rng))
    return GaussianState(n, _congruence(s, _congruence(u, v)))


class TestBlockChannels:
    """The block-form channels against the dense congruence ``S V S^T``."""

    @pytest.mark.parametrize("scale", [1.0, 1e30])
    def test_match_dense_congruence(self, scale, rng):
        for n in (1, 2, 5, 9, 16):
            st = _random_state(n, scale, rng)
            o = random_orthogonal(n, rng)
            u = np.zeros((2 * n, 2 * n))
            u[:n, :n] = u[n:, n:] = o
            graph = random_graph(n, 0.6, rng)
            g = float(rng.uniform(0.5, 3.0))
            s = np.eye(2 * n)
            s[n:, :n] = g * dense_adjacency(graph)
            eps = float(rng.uniform(0.0, 0.9))
            q_noise = np.diag(np.concatenate([np.ones(n), np.zeros(n)]))
            for out, want in (
                (apply_orthogonal(st, o), _congruence(u, st.cov)),
                (apply_cphase(st, graph, g), _congruence(s, st.cov)),
                (apply_loss(st, eps), (1.0 - eps) * st.cov + 0.5 * eps * np.eye(2 * n)),
                (apply_detector_noise(st, eps), st.cov + eps / (1.0 - eps) * q_noise),
            ):
                assert np.array_equal(out.qq, out.qq.T) and np.array_equal(out.pp, out.pp.T)
                got = out.cov
                assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()

    @settings(max_examples=150, deadline=None)
    @given(
        graph=small_graphs(n_max=12),
        g=strategies.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
        seed=strategies.integers(0, 2**32 - 1),
    )
    @example(graph=Graph(12), g=1.5, seed=1)
    @example(graph=complete_graph(12), g=1.9, seed=2)
    @example(graph=Graph(7, ((0, 3), (3, 5))), g=0.3, seed=3)  # isolated vertices
    def test_cphase_matches_dense_congruence(self, graph, g, seed):
        # the sparse-adjacency products against S V S^T with S built from the
        # dense adjacency, within round-off of the products' absolute sums
        n = graph.n
        state = _random_state(n, 1.0, np.random.default_rng(seed))
        s = np.eye(2 * n)
        s[n:, :n] = g * dense_adjacency(graph)
        out = apply_cphase(state, graph, g)
        assert np.array_equal(out.qq, out.qq.T) and np.array_equal(out.pp, out.pp.T)
        scale = np.abs(s) @ np.abs(state.cov) @ np.abs(s).T
        tiny = np.finfo(float).smallest_subnormal  # an underflowing g has no relative bound
        assert np.all(np.abs(out.cov - _congruence(s, state.cov)) <= 8 * n * (EPS * scale + tiny))

    def test_channels_leave_input_blocks_unchanged(self, rng):
        # channels share blocks between states, so none may write into one
        n = 6
        graph = random_graph(n, 0.6, rng)
        o = random_orthogonal(n, rng)
        states = [_random_state(n, 1.0, rng)]
        for channel in (
            lambda st: apply_detector_noise(st, 0.2),
            lambda st: apply_loss(st, 0.3),
            lambda st: apply_orthogonal(st, o),
            lambda st: apply_cphase(st, graph, 1.7),
            lambda st: apply_detector_noise(st, 0.1),
        ):
            before = [[block.tobytes() for block in (st.qq, st.qp, st.pp)] for st in states]
            states.append(channel(states[-1]))
            after = [[block.tobytes() for block in (st.qq, st.qp, st.pp)] for st in states[:-1]]
            assert after == before

    def test_cphase_keeps_qq_block(self, rng):
        st = _random_state(6, 1.0, rng)
        out = apply_cphase(st, random_graph(6, 0.6, rng), 1.7)
        assert np.array_equal(out.cov[:6, :6], st.cov[:6, :6])


class TestChannels:
    def test_loss_zero_identity(self):
        st = squeezed_thermal(SqueezedThermalParams(1.0, 0.5), 2)
        assert np.allclose(apply_loss(st, 0.0).cov, st.cov)

    def test_vacuum_fixed_point_of_loss(self):
        out = apply_loss(vacuum(2), 0.37)
        assert np.allclose(out.cov, 0.5 * np.eye(4), atol=1e-14)

    def test_loss_midpoint(self):
        st = GaussianState(1, 2.0 * np.eye(2))
        out = apply_loss(st, 0.5)
        assert np.allclose(out.cov, 1.25 * np.eye(2))

    def test_loss_range_validation(self):
        with pytest.raises(ValueError):
            apply_loss(vacuum(1), 1.0)
        with pytest.raises(ValueError):
            apply_loss(vacuum(1), -0.1)

    def test_detector_noise_zero(self):
        st = vacuum(2)
        assert np.allclose(apply_detector_noise(st, 0.0).cov, st.cov)

    def test_detector_noise_half_adds_one(self):
        out = apply_detector_noise(vacuum(1), 0.5)
        assert abs(out.cov[0, 0] - 1.5) < 1e-14
        assert abs(out.cov[1, 1] - 0.5) < 1e-14  # p untouched

    def test_loss_then_detector_matches_c1(self):
        # total added q-variance on vacuum input: eps1/2 stays affine,
        # detector adds eps2/(1-eps2); against a zero-variance probe the
        # constants add up to C1.
        eps1, eps2 = 0.08, 0.03
        probe = GaussianState(1, np.zeros((2, 2)))
        out = apply_detector_noise(apply_loss(probe, eps1), eps2)
        c1 = eps1 / 2.0 + eps2 / (1.0 - eps2)
        assert abs(out.cov[0, 0] - c1) < 1e-14

    def test_loss_preserves_physicality(self, rng):
        for _ in range(10):
            st = thermal_cvcs(
                random_graph(3, 0.6, rng),
                SqueezedThermalParams(float(rng.uniform(0, 1.5)), float(rng.uniform(0, 1))),
            )
            out = apply_loss(st, float(rng.uniform(0, 0.9)))
            assert symplectic_eigenvalues(out).min() >= 0.5 - 1e-10


class TestOrthogonal:
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_mode_diagonal_input_matches_apply_orthogonal(self, n, rng):
        # verify_plan's input, O diag(v) O^T per block, equals the dense
        # oracle bit for bit, for dense, signed-permutation and -0.0 entries
        signed_permutation = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
        for o in (random_orthogonal(n, rng), signed_permutation, -np.eye(n)):
            for scale in (1.0, 1e-30, 1e30):
                q_vars = scale * rng.uniform(0.1, 10.0, n)
                p_vars = rng.uniform(0.1, 10.0, n) / scale
                want = apply_orthogonal(mode_diag_state(q_vars, p_vars), o)
                got = _rotated_mode_diag_state(q_vars, p_vars, o)
                for block in ("qq", "qp", "pp"):
                    assert getattr(got, block).tobytes() == getattr(want, block).tobytes()

    def test_mode_diagonal_input_refuses_a_mismatched_network(self):
        with pytest.raises(ValueError, match=r"^expected a 3x3 matrix, got \(2, 2\)$"):
            _rotated_mode_diag_state(np.ones(3), np.ones(3), np.eye(2))

    def test_identity(self):
        st = squeezed_thermal(SqueezedThermalParams(0.4, 0.1), 3)
        assert np.allclose(apply_orthogonal(st, np.eye(3)).cov, st.cov)

    def test_rotation_on_vacuum(self):
        th = math.pi / 2.0
        o = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        out = apply_orthogonal(vacuum(2), o)
        assert np.allclose(out.cov, 0.5 * np.eye(4), atol=1e-14)

    def test_rejects_non_orthogonal(self):
        for bad in (2.0, np.nan, np.inf):
            o = np.eye(3)
            o[1, 2] = bad
            _refused_without_warnings(
                lambda: apply_orthogonal(vacuum(3), o), "^matrix is not orthogonal"
            )

    def test_products_beyond_the_float_max_refused(self):
        # the rotation takes the rank-one block of 1e308 entries to 2e308
        qq, zero = np.full((2, 2), 1e308), np.zeros((2, 2))
        state = GaussianState(2, np.block([[qq, zero], [zero, np.eye(2)]]))
        o = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        _refused_without_warnings(
            lambda: apply_orthogonal(state, o), "^covariance leaves the float range$"
        )

    def test_preserves_symplectic_spectrum(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            st = thermal_cvcs(
                random_graph(n, 0.5, rng),
                SqueezedThermalParams(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))),
            )
            o = random_orthogonal(n, rng)
            before = symplectic_eigenvalues(st)
            after = symplectic_eigenvalues(apply_orthogonal(st, o))
            assert np.max(np.abs(before - after)) < 1e-10


class TestSymplectic:
    def test_vacuum_all_half(self):
        nu = symplectic_eigenvalues(vacuum(3))
        assert np.allclose(nu, 0.5, atol=1e-12)

    def test_squeezed_thermal_invariant(self):
        st = squeezed_thermal(SqueezedThermalParams(0.9, 0.7), 2)
        nu = symplectic_eigenvalues(st)
        assert np.allclose(nu, 1.2, atol=1e-12)

    def test_below_vacuum_is_unphysical(self):
        st = GaussianState(2, 0.1 * np.eye(4))
        assert symplectic_eigenvalues(st).min() < 0.5 - 1e-10

    def test_cphase_preserves_spectrum(self, rng):
        # S = [[I,0],[gA,I]] is symplectic for symmetric A
        for _ in range(10):
            n = int(rng.integers(2, 9))
            g = random_graph(n, 0.5, rng)
            st = squeezed_thermal(
                SqueezedThermalParams(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))), n
            )
            before = symplectic_eigenvalues(st)
            after = symplectic_eigenvalues(apply_cphase(st, g, strength=float(rng.uniform(0.2, 2))))
            assert np.max(np.abs(before - after)) < 1e-10


class TestCollectiveModes:
    def test_single_copy_identity(self):
        st = thermal_cvcs(path_graph(3), SqueezedThermalParams(0.8, 0.4))
        assert np.max(np.abs(collective_mode_covariance(st, 1) - st.cov)) < 1e-14

    def test_four_copies(self):
        st = thermal_cvcs(complete_graph(3), SqueezedThermalParams(0.6, 0.9))
        assert np.max(np.abs(collective_mode_covariance(st, 4) - st.cov)) < 1e-12

    def test_seven_copies_random_graph(self, rng):
        g = random_graph(3, 0.7, rng)
        st = thermal_cvcs(g, SqueezedThermalParams(1.1, 0.2))
        assert np.max(np.abs(collective_mode_covariance(st, 7) - st.cov)) < 1e-12

    def test_invalid_copy_count(self):
        with pytest.raises(ValueError):
            collective_mode_covariance(vacuum(1), 0)


class TestMixtureParams:
    def test_pure_limit(self):
        mp = mixture_params(SqueezedThermalParams(0.8, 0.0))
        assert abs(mp.r0 - 0.8) < 1e-14
        assert mp.sigma2 == 0.0

    def test_hand_value(self):
        # r=0, nbar=1: e^{2 r0} = 3, sigma^2 = 2/3
        mp = mixture_params(SqueezedThermalParams(0.0, 1.0))
        assert abs(math.exp(2.0 * mp.r0) - 3.0) < 1e-12
        assert abs(mp.sigma2 - 2.0 / 3.0) < 1e-12

    def test_main_formula_agreement(self, rng):
        for _ in range(20):
            r = float(rng.uniform(0, 2))
            nbar = float(rng.uniform(0, 3))
            mp = mixture_params(SqueezedThermalParams(r, nbar))
            direct = (nbar + nbar**2) / (math.exp(2 * r) * (1 + 2 * nbar))
            assert abs(mp.sigma2 - direct) < 1e-14

    def test_covariance_decomposition(self, rng):
        # squeezed thermal = squeezed vacuum at r0 plus 2 sigma^2 of p noise
        for _ in range(20):
            r = float(rng.uniform(0, 1.5))
            nbar = float(rng.uniform(0, 2.5))
            params = SqueezedThermalParams(r, nbar)
            mp = mixture_params(params)
            lhs = squeezed_thermal(params, 1).cov
            rhs = squeezed_thermal(SqueezedThermalParams(mp.r0, 0.0), 1).cov + np.diag(
                [0.0, 2.0 * mp.sigma2]
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: GaussianState(2, np.eye(3)), r"^expected a 4x4 covariance, got \(3, 3\)$"),
        (lambda: mode_diag_state([0.5, 0.5], [0.5]), r"^q_vars and p_vars must be 1-D with equal length$"),
        (lambda: mode_diag_state(np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
         r"^q_vars and p_vars must be 1-D with equal length$"),
        (lambda: apply_detector_noise(vacuum(2), 1.0), r"^detector inefficiency must be in \[0, 1\), got 1.0$"),
        (lambda: apply_detector_noise(vacuum(2), -0.1), r"^detector inefficiency must be in \[0, 1\), got -0.1$"),
        (lambda: apply_detector_noise(vacuum(2), math.nan), r"^detector inefficiency must be in \[0, 1\), got nan$"),
        (lambda: apply_orthogonal(vacuum(2), np.eye(3)), r"^expected a 2x2 matrix, got \(3, 3\)$"),
    ],
)
def test_refusals_name_their_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
