"""Discretized-quadrature oracle for the hybrid download circuit."""

import math

import numpy as np
import pytest
from scipy import stats

from cvdownload.error_model import SQRT_PI, qubit_given_outcome
from cvdownload.gaussian import SqueezedThermalParams
from cvdownload.graphs import path_graph
from cvdownload.grid import (
    BOUNDARY_MASS_TOL,
    apply_cd_grid,
    apply_cphase_grid,
    make_grid_state,
    measure_q_grid,
    mode_marginal,
    total_mass,
)
from cvdownload.protocol import ProtocolParams, downloaded_state_direct
from cvdownload.qubits import apply_rz, fidelity, trace_distance


def _mixture_cdf(x, r0):
    sigma = math.exp(r0) / math.sqrt(2.0)
    return 0.5 * (stats.norm.cdf(x, 0.0, sigma) + stats.norm.cdf(x, SQRT_PI, sigma))


def _one_mode_pipeline(r0, k):
    state = make_grid_state(r0, 1, k=k)
    return apply_cd_grid(state, 0)


class TestInitialization:
    def test_norm_one(self):
        for modes in (1, 2):
            st = make_grid_state(0.0, modes, k=16)
            assert abs(total_mass(st) - 1.0) < 1e-12

    def test_second_moment(self):
        for r0 in (0.0, 0.8):
            st = make_grid_state(r0, 1, k=32)
            prob = np.abs(st.amps[:, 0]) ** 2 + np.abs(st.amps[:, 1]) ** 2
            prob *= st.dq
            second = float(np.sum(prob * st.grid**2))
            assert abs(second - math.exp(2 * r0) / 2.0) < 1e-4

    def test_qubits_start_in_plus(self):
        st = make_grid_state(0.5, 2, k=16)
        # all four bitstring components identical at every grid point
        for b in range(1, 4):
            assert np.allclose(st.amps[..., b], st.amps[..., 0])

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            make_grid_state(0.0, 1, k=15)

    def test_rejects_three_modes(self):
        with pytest.raises(ValueError):
            make_grid_state(0.0, 3, k=16)

    def test_shift_is_exact_cell_count(self):
        st = make_grid_state(0.0, 1, k=24)
        assert abs(st.dq * st.k - SQRT_PI) < 1e-15


class TestGates:
    def test_cd_preserves_norm(self):
        st = make_grid_state(0.5, 2, k=16)
        apply_cd_grid(st, 0)
        apply_cd_grid(st, 1)
        assert abs(total_mass(st) - 1.0) < 1e-10

    def test_cd_moves_only_excited_component(self):
        st = make_grid_state(0.0, 1, k=16)
        before = st.amps.copy()
        apply_cd_grid(st, 0)
        assert np.allclose(st.amps[:, 0], before[:, 0])
        assert np.allclose(st.amps[st.k :, 1], before[: -st.k, 1])

    def test_cphase_phase_only(self):
        st = make_grid_state(0.2, 2, k=16)
        before = np.abs(st.amps.copy())
        apply_cphase_grid(st)
        assert np.max(np.abs(np.abs(st.amps) - before)) < 1e-14
        assert abs(total_mass(st) - 1.0) < 1e-10

    def test_cphase_needs_two_modes(self):
        with pytest.raises(ValueError):
            apply_cphase_grid(make_grid_state(0.0, 1, k=16))

    def test_boundary_guard_trips(self):
        # walking the |1> component toward the edge must eventually be
        # refused rather than silently truncated
        st = make_grid_state(0.0, 1, k=16)
        with pytest.raises(ValueError, match="grid edge"):
            for _ in range(6):
                apply_cd_grid(st, 0)

    def test_mode_index_validation(self):
        st = make_grid_state(0.0, 1, k=16)
        with pytest.raises(ValueError):
            apply_cd_grid(st, 1)


class TestMeasurement:
    def test_outcomes_lie_on_grid(self):
        st = _one_mode_pipeline(0.0, 16)
        rng = np.random.default_rng(3)
        q, _ = measure_q_grid(st, rng)
        assert q.shape == (1,)
        assert np.min(np.abs(st.grid - q[0])) < 1e-12

    def test_deterministic_for_fixed_seed(self):
        st = _one_mode_pipeline(0.4, 16)
        q1, psi1 = measure_q_grid(st, np.random.default_rng(8))
        q2, psi2 = measure_q_grid(st, np.random.default_rng(8))
        assert np.array_equal(q1, q2)
        assert np.array_equal(psi1.amps, psi2.amps)

    def test_mode_marginal_matches_mixture(self):
        st = _one_mode_pipeline(0.0, 32)
        marg = mode_marginal(st, 0)
        sigma = 1.0 / math.sqrt(2.0)
        density = 0.5 * (
            stats.norm.pdf(st.grid, 0.0, sigma) + stats.norm.pdf(st.grid, SQRT_PI, sigma)
        )
        expected = density * st.dq
        expected /= expected.sum()
        assert np.max(np.abs(marg - expected)) < 1e-6

    def test_histogram_matches_mixture_law(self):
        # 10^4 sampled shots against the analytic outcome distribution.
        # Grid outcomes are atoms of mass ~p(q) dq, far above the KS noise
        # floor, so smear each sample uniformly over its cell before
        # testing against the continuous law (within-cell density
        # variation is O(dq^2), negligible here).
        st = _one_mode_pipeline(0.0, 16)
        rng = np.random.default_rng(321)
        samples = np.array([measure_q_grid(st, rng)[0][0] for _ in range(10_000)])
        jitter = rng.uniform(-st.dq / 2.0, st.dq / 2.0, size=samples.size)
        result = stats.kstest(samples + jitter, lambda x: _mixture_cdf(x, 0.0))
        assert result.pvalue > 0.01


class TestAgainstAnalyticStates:
    def test_one_mode_conditional_state(self):
        st = _one_mode_pipeline(1.0, 32)
        rng = np.random.default_rng(77)
        for _ in range(50):
            q, psi = measure_q_grid(st, rng)
            target = qubit_given_outcome(float(q[0]), 1.0)
            assert fidelity(target, psi) > 1.0 - 1e-6

    def test_two_mode_download_matches_direct(self):
        # one edge, r0=1: full grid pipeline vs the analytic state at the
        # measured q, after the same corrective phases
        k = 32
        st = make_grid_state(1.0, 2, k=k)
        apply_cphase_grid(st)
        apply_cd_grid(st, 0)
        apply_cd_grid(st, 1)
        params = ProtocolParams(
            graph=path_graph(2), source=SqueezedThermalParams(1.0, 0.0), seed=0
        )
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            q, register = measure_q_grid(st, rng)
            phi = SQRT_PI * q[::-1]  # single edge: phi_i = sqrt(pi) q_other
            for site in range(2):
                register = apply_rz(register, site, float(phi[site]))
            analytic = downloaded_state_direct(params, q)
            worst = max(worst, trace_distance(analytic, register.density_matrix()))
        assert worst < 1e-4

    def test_convergence_with_grid_resolution(self):
        # the sampling statistics carry the discretization error; the
        # deterministic sup gap to the continuous law must shrink with k
        gaps = {}
        for k in (16, 64):
            st = _one_mode_pipeline(0.5, k)
            marg = mode_marginal(st, 0)
            discrete_cdf = np.cumsum(marg)
            continuous = _mixture_cdf(st.grid + st.dq / 2.0, 0.5)
            gaps[k] = float(np.max(np.abs(discrete_cdf - continuous)))
        assert gaps[64] < gaps[16]

    def test_conditional_states_exact_at_any_resolution(self):
        # post-measurement registers are built from exact wavefunction
        # values, so they sit at the precision floor for every k
        for k in (16, 64):
            st = _one_mode_pipeline(0.8, k)
            rng = np.random.default_rng(5)
            q, psi = measure_q_grid(st, rng)
            target = qubit_given_outcome(float(q[0]), 0.8)
            assert trace_distance(target.density_matrix(), psi.density_matrix()) < 1e-12
