"""Single-qubit error laws: conditional states, erasure, dephasing, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from cvdownload.error_model import (
    SQRT_PI,
    amplitude_imbalance,
    db_to_squeezing,
    dephasing_rate,
    keep_probability,
    outcome_density,
    p_del_analytic,
    p_del_monte_carlo,
    p_succ_quadrature,
    qubit_given_outcome,
    sample_q,
    squeezing_db_for_pdel,
    squeezing_to_db,
    vertex_disconnect_prob,
)
from cvdownload.gaussian import SqueezedThermalParams, mixture_params
from cvdownload.qubits import apply_balancing_povm, fidelity, plus_state


def _integrated_cdf(r0, lo, hi, points=20001):
    """Numerically integrated outcome CDF on a dense grid (test oracle)."""
    grid = np.linspace(lo, hi, points)
    pdf = outcome_density(grid, r0)
    cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
    cdf /= cdf[-1]
    return lambda x: np.interp(x, grid, cdf)


class TestConditionalState:
    def test_symmetry_point_is_plus(self):
        psi = qubit_given_outcome(SQRT_PI / 2.0, 0.7)
        assert fidelity(psi, plus_state(1)) > 1.0 - 1e-14

    def test_amplitude_ratio_at_origin(self):
        # q=0, r0=0: amplitudes proportional to (1, e^{-pi/2})
        psi = qubit_given_outcome(0.0, 0.0)
        ratio = abs(psi.amps[1] / psi.amps[0])
        assert abs(ratio - math.exp(-math.pi / 2.0)) < 1e-12

    def test_large_squeezing_approaches_plus(self, rng):
        for q in rng.uniform(-1.0, 1.0 + SQRT_PI, size=10):
            psi = qubit_given_outcome(float(q), 8.0)
            assert fidelity(psi, plus_state(1)) > 1.0 - 1e-6

    def test_p0_phase_lands_on_one_component(self):
        p0 = 0.83
        psi = qubit_given_outcome(SQRT_PI / 2.0, 1.0, p0=p0)
        ratio = psi.amps[1] / psi.amps[0]
        assert abs(ratio - np.exp(-1j * p0 * SQRT_PI)) < 1e-12

    def test_extreme_outcomes_stay_normalized(self):
        for q in (-50.0, 55.0):
            psi = qubit_given_outcome(q, 0.3)
            assert np.isfinite(psi.amps).all()
            assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-12

    def test_imbalance_crossover(self):
        r0 = 0.6
        assert amplitude_imbalance(SQRT_PI / 2.0 - 1e-9, r0) < 1.0
        assert amplitude_imbalance(SQRT_PI / 2.0 + 1e-9, r0) > 1.0
        assert abs(amplitude_imbalance(SQRT_PI / 2.0, r0) - 1.0) < 1e-9

    def test_imbalance_matches_state_ratio(self, rng):
        for _ in range(20):
            q = float(rng.uniform(-0.5, 2.0))
            r0 = float(rng.uniform(0.1, 1.5))
            psi = qubit_given_outcome(q, r0)
            gamma = amplitude_imbalance(q, r0)
            assert abs(abs(psi.amps[1] / psi.amps[0]) - gamma) < 1e-9 * max(1.0, gamma)

    def test_povm_restores_plus_from_conditional_state(self, rng):
        # gamma extracted from the outcome balances the conditional state
        for _ in range(20):
            q = float(rng.uniform(-0.3, 1.8))
            r0 = float(rng.uniform(0.2, 1.2))
            psi = qubit_given_outcome(q, r0)
            gamma = float(amplitude_imbalance(q, r0))
            res = apply_balancing_povm(psi.density_matrix(), 0, gamma, force="keep")
            assert fidelity(plus_state(1), res.state) > 1.0 - 1e-12


class TestOutcomeLaw:
    def test_density_normalized(self):
        for r0 in (0.0, 0.5, 1.2):
            sigma = math.exp(r0) / math.sqrt(2.0)
            total, _ = integrate.quad(
                lambda x: outcome_density(x, r0), -14 * sigma, SQRT_PI + 14 * sigma
            )
            assert abs(total - 1.0) < 1e-9

    def test_sampler_moments(self):
        rng = np.random.default_rng(11)
        q = sample_q(0.4, 200_000, rng)
        sigma2 = math.exp(2 * 0.4) / 2.0
        expected_var = sigma2 + math.pi / 4.0
        assert abs(q.mean() - SQRT_PI / 2.0) < 0.01
        assert abs(q.var() - expected_var) < 0.02

    def test_sampler_matches_integrated_density(self):
        rng = np.random.default_rng(5)
        q = sample_q(0.0, 100_000, rng)
        cdf = _integrated_cdf(0.0, -8.0, SQRT_PI + 8.0)
        result = stats.kstest(q, cdf)
        assert result.pvalue > 0.01

    def test_sampler_deterministic(self):
        a = sample_q(0.7, 50, np.random.default_rng(123))
        b = sample_q(0.7, 50, np.random.default_rng(123))
        assert np.array_equal(a, b)


class TestKeepProbability:
    def test_balanced_point(self):
        assert keep_probability(1.0) == 1.0

    def test_matches_branch_probability(self):
        # gamma=1/2: P(keep) = 2 gamma^2/(1+gamma^2) = 0.4, same for gamma=2
        assert abs(keep_probability(0.5) - 0.4) < 1e-14
        assert abs(keep_probability(2.0) - 0.4) < 1e-14

    def test_vectorized(self):
        gammas = np.array([0.5, 1.0, 2.0])
        assert np.allclose(keep_probability(gammas), [0.4, 1.0, 0.4])


def _imbalance_reference(q, r0):
    """``exp`` of the log-imbalance, overflow to inf allowed (test oracle)."""
    with np.errstate(over="ignore"):
        return np.exp(SQRT_PI * (2.0 * np.asarray(q) - SQRT_PI) / (2.0 * math.exp(2.0 * r0)))


def _keep_probability_reference(gamma):
    """Both branches of ``2 min(1, g^2) / (1 + g^2)`` evaluated, then selected."""
    with np.errstate(over="ignore", invalid="ignore"):
        g2 = np.square(np.asarray(gamma, dtype=float))
        return np.where(g2 <= 1.0, 2.0 * g2 / (1.0 + g2), 2.0 / (1.0 + g2))


class TestFloatRange:
    """Far-tail imbalances overflow to inf without warnings; every other
    value is bit-identical to the direct formulas."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8),
        st.floats(-4.0, 3.0),
    )
    def test_imbalance_bit_identical(self, q, r0):
        got = amplitude_imbalance(np.array(q), r0)
        assert got.tobytes() == _imbalance_reference(np.array(q), r0).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0), min_size=1, max_size=8))
    def test_keep_probability_bit_identical(self, gammas):
        got = keep_probability(np.array(gammas))
        assert got.tobytes() == _keep_probability_reference(np.array(gammas)).tobytes()

    def test_extremes_without_warnings(self):
        big = [2.0**512, 1e200, math.inf]
        assert np.array_equal(keep_probability(big), [0.0, 0.0, 0.0])
        assert keep_probability(2.0**511) > 0.0
        assert amplitude_imbalance(10.0, -4.0) == math.inf
        assert amplitude_imbalance(-10.0, -4.0) == 0.0
        q = np.array([-10.0, SQRT_PI / 2.0, 10.0])
        assert np.array_equal(keep_probability(amplitude_imbalance(q, -4.0)), [0.0, 1.0, 0.0])


class TestDeletionProbability:
    def test_limits(self):
        # erf(e^{-r0} sqrt(pi)/2) ~ e^{-r0} for large r0
        assert p_del_analytic(25.0) < 1e-10
        assert abs(p_del_analytic(0.0) - math.erf(SQRT_PI / 2.0)) < 1e-15

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 3.0, 40)
        vals = [p_del_analytic(float(r)) for r in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_quadrature_matches_closed_form(self):
        for r0 in (0.0, 0.5, 1.0):
            expected = 1.0 - p_del_analytic(r0)
            assert abs(p_succ_quadrature(r0) - expected) < 1e-8

    def test_monte_carlo_three_sigma(self):
        rng = np.random.default_rng(77)
        est, stderr = p_del_monte_carlo(0.5, 100_000, rng)
        assert abs(est - p_del_analytic(0.5)) < 3.0 * stderr

    def test_monte_carlo_threshold_point(self):
        rng = np.random.default_rng(78)
        est, stderr = p_del_monte_carlo(1.372, 100_000, rng)
        assert abs(est - 0.249) < max(3.0 * stderr, 2e-3)

    def test_tiny_shot_count_returns(self):
        est, stderr = p_del_monte_carlo(0.5, 10, np.random.default_rng(0))
        assert 0.0 <= est <= 1.0
        assert stderr > 0.05  # ten shots cannot resolve much

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            p_del_monte_carlo(0.5, 0, np.random.default_rng(0))


class TestThresholds:
    def test_known_loss_targets(self):
        assert abs(squeezing_db_for_pdel(0.249) - 11.9) < 0.05
        assert abs(squeezing_db_for_pdel(0.50) - 5.4) < 0.05

    def test_round_trip_inversion(self):
        targets = np.linspace(0.02, 0.7, 100)
        for p in targets:
            db = squeezing_db_for_pdel(float(p))
            assert abs(p_del_analytic(db_to_squeezing(db)) - p) < 1e-9

    def test_out_of_range_targets(self):
        with pytest.raises(ValueError):
            squeezing_db_for_pdel(0.0)
        with pytest.raises(ValueError):
            squeezing_db_for_pdel(0.95)  # above the r0=0 ceiling

    def test_db_conversions(self):
        assert abs(squeezing_to_db(db_to_squeezing(7.3)) - 7.3) < 1e-12
        assert squeezing_to_db(0.0) == 0.0
        # 10 dB of squeezing corresponds to e^{2 r0} = 10
        assert abs(math.exp(2.0 * db_to_squeezing(10.0)) - 10.0) < 1e-12


class TestDephasingRate:
    def test_endpoints(self):
        assert dephasing_rate(0.0) == 0.0
        assert abs(dephasing_rate(1e9) - 0.5) < 1e-12

    def test_hand_value(self):
        # sigma^2 = 2/3 (the r=0, nbar=1 mixture): (1 - e^{-pi/3})/2
        expected = (1.0 - math.exp(-math.pi / 3.0)) / 2.0
        assert abs(dephasing_rate(2.0 / 3.0) - expected) < 1e-14

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            dephasing_rate(-0.01)

    def test_monte_carlo_characteristic_function(self):
        # E[e^{-i p0 sqrt(pi)}] over p0 ~ N(0, sigma^2) equals 1 - 2 p_phi
        rng = np.random.default_rng(31)
        mp = mixture_params(SqueezedThermalParams(0.0, 1.0))
        draws = rng.normal(0.0, math.sqrt(mp.sigma2), size=100_000)
        estimate = np.mean(np.cos(SQRT_PI * draws))
        sigma_est = np.std(np.cos(SQRT_PI * draws)) / math.sqrt(draws.size)
        assert abs(estimate - (1.0 - 2.0 * dephasing_rate(mp.sigma2))) < 3.0 * sigma_est


class TestRails:
    def test_single_rail_passthrough(self):
        assert vertex_disconnect_prob(0.31, 1) == 0.31

    def test_two_rails(self):
        assert abs(vertex_disconnect_prob(0.5, 2) - 0.25) < 1e-15

    def test_zero_loss(self):
        assert vertex_disconnect_prob(0.0, 3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            vertex_disconnect_prob(1.2, 1)
        with pytest.raises(ValueError):
            vertex_disconnect_prob(0.5, 0)
