"""Single-qubit error laws: conditional states, erasure, dephasing, thresholds."""

import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from conftest import assert_refused_before_allocating, non_integers
from cvdownload.error_model import (
    SQRT_PI,
    amplitude_imbalance,
    db_to_squeezing,
    dephasing_rate,
    keep_probability,
    log_imbalance,
    outcome_density,
    p_del_analytic,
    p_succ_quadrature,
    qubit_given_outcome,
    sample_q,
    squeezing_db_for_pdel,
    squeezing_to_db,
    vertex_disconnect_prob,
)
from cvdownload.gaussian import R0_LIMIT, SqueezedThermalParams, mixture_params
from cvdownload.graphs import Graph, path_graph
from cvdownload.protocol import ProtocolParams, run_download
from cvdownload.qubits import (
    QubitPureState,
    apply_balancing_povm,
    balancing_povm_diagonals,
    cluster_state,
    fidelity,
)


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
        assert fidelity(psi, cluster_state(Graph(1))) > 1.0 - 1e-14

    def test_amplitude_ratio_at_origin(self):
        # q=0, r0=0: amplitudes proportional to (1, e^{-pi/2})
        psi = qubit_given_outcome(0.0, 0.0)
        ratio = abs(psi.amps[1] / psi.amps[0])
        assert abs(ratio - math.exp(-math.pi / 2.0)) < 1e-12

    def test_large_squeezing_approaches_plus(self, rng):
        for q in rng.uniform(-1.0, 1.0 + SQRT_PI, size=10):
            psi = qubit_given_outcome(float(q), 8.0)
            assert fidelity(psi, cluster_state(Graph(1))) > 1.0 - 1e-6

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
        # log gamma extracted from the outcome balances the conditional state
        for _ in range(20):
            q = float(rng.uniform(-0.3, 1.8))
            r0 = float(rng.uniform(0.2, 1.2))
            psi = qubit_given_outcome(q, r0)
            ell = float(log_imbalance(q, r0))
            res = apply_balancing_povm(psi.density_matrix(), 0, ell, force="keep")
            assert fidelity(cluster_state(Graph(1)), res.state) > 1.0 - 1e-12


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

    def test_sampler_is_generator_normal_bit_for_bit(self):
        # the draws, and the generator state the balancing uniforms start
        # from, are those of rng.normal(centers, scale) on a twin generator
        r0s = [0.0, 0.7, -3.0, 25.0, R0_LIMIT, -R0_LIMIT]
        for seed in range(200):
            r0 = r0s[seed % len(r0s)] if seed < 2 * len(r0s) else float(
                np.random.default_rng([seed, 1]).uniform(-R0_LIMIT, R0_LIMIT)
            )
            shots = 1 + seed % 120
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_q(r0, shots, rng)
            centers = SQRT_PI * twin.integers(0, 2, size=shots)
            want = twin.normal(centers, math.exp(r0) / math.sqrt(2.0))
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state


class TestKeepProbability:
    def test_balanced_point(self):
        assert keep_probability(0.0) == 1.0

    def test_matches_branch_probability(self):
        # gamma=1/2: P(keep) = 2 gamma^2/(1+gamma^2) = 0.4, same for gamma=2
        assert abs(keep_probability(math.log(0.5)) - 0.4) < 1e-14
        assert abs(keep_probability(math.log(2.0)) - 0.4) < 1e-14

    def test_vectorized(self):
        log_gammas = np.log([0.5, 1.0, 2.0])
        assert np.allclose(keep_probability(log_gammas), [0.4, 1.0, 0.4])


def _imbalance_reference(q, r0):
    """``exp`` of the log-imbalance, overflow to inf allowed (test oracle)."""
    with np.errstate(over="ignore"):
        return np.exp(SQRT_PI * (2.0 * np.asarray(q) - SQRT_PI) / (2.0 * math.exp(2.0 * r0)))


def _keep_probability_reference(ell: float) -> Decimal:
    """``2 e / (1 + e)``, ``e = exp(-2 |l|)``, to 40 digits (test oracle)."""
    with localcontext() as ctx:
        ctx.prec = 40
        e = (-2 * abs(Decimal(ell))).exp()
        return 2 * e / (1 + e)


#: Every float log imbalance but NaN; the edges are always tried, among them
#: +-360, where the keep probability and the branch weights are subnormal.
_EVERY_LOG_GAMMA = st.floats(allow_nan=False)
_EDGES = (math.inf, -math.inf, sys.float_info.max, -sys.float_info.max, 0.0, 5e-324, -360.0, 360.0)


def _with_edges(test):
    for ell in _EDGES:
        test = example(ell)(test)
    return test


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
    @given(_EVERY_LOG_GAMMA)
    @_with_edges
    @example(1.3759730461734805)  # 2.011 ulp off with exp(-|l|)^2
    def test_keep_probability_within_two_ulp(self, ell):
        got = float(keep_probability(ell))
        ref = _keep_probability_reference(ell)
        unit = math.ulp(float(ref)) if float(ref) >= sys.float_info.min else math.ulp(0.0)
        assert abs(Decimal(got) - ref) <= 2 * Decimal(unit)

    def test_log_imbalance_accepts_sequences(self):
        q = [-3.5, 0.0, SQRT_PI / 2.0, 0.3, 12.0]
        want = log_imbalance(np.array(q), 0.4)
        for given_q in (q, tuple(q)):
            assert log_imbalance(given_q, 0.4).tobytes() == want.tobytes()
        scalar = log_imbalance(0.3, 0.4)
        assert isinstance(scalar, float)
        assert scalar == want[3]

    def test_extremes_without_warnings(self):
        big = [-sys.float_info.max, 1e200, 373.0, math.inf, -math.inf]
        assert np.array_equal(keep_probability(big), [0.0] * 5)
        assert keep_probability(-372.0) > 0.0  # e = exp(-744) is subnormal
        assert amplitude_imbalance(10.0, -4.0) == math.inf
        assert amplitude_imbalance(-10.0, -4.0) == 0.0
        q = np.array([-10.0, SQRT_PI / 2.0, 10.0])
        assert np.array_equal(keep_probability(log_imbalance(q, -4.0)), [0.0, 1.0, 0.0])

    @settings(max_examples=300, deadline=None)
    @given(_EVERY_LOG_GAMMA)
    @_with_edges
    def test_povm_complete_and_matching_keep_law(self, ell):
        # the conditional state of log imbalance l has rows
        # (e^{-max(l, 0)}, e^{min(l, 0)}); its keep branch weighs keep_probability(l)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keep, delete, bit = balancing_povm_diagonals(ell)
            assert np.abs(keep**2 + delete**2 - 1.0).max() <= 1e-15
            assert bit == int(ell > 0.0)
            rho = QubitPureState(
                1, np.exp([-max(ell, 0.0), min(ell, 0.0)]), normalize=True
            ).density_matrix()
            p_keep = float(keep_probability(ell))
            if p_keep > 0.0:
                res = apply_balancing_povm(rho, 0, ell, force="keep")
                assert math.isclose(res.probability, p_keep, rel_tol=1e-15, abs_tol=1e-300)
            else:
                with pytest.raises(ValueError, match="zero-probability outcome 'keep'"):
                    apply_balancing_povm(rho, 0, ell, force="keep")
                assert apply_balancing_povm(rho, 0, ell, force="delete").probability == 1.0


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

    def test_import_leaves_the_quadrature_modules_unloaded(self):
        # only the quadrature oracle uses scipy.integrate, which loads
        # scipy.optimize too, and only the dB inversion and the A^2 spectrum
        # use scipy.special and scipy.sparse.csgraph: a fresh interpreter
        # shows what importing costs
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = ("import sys, cvdownload; "
                 "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special',"
                 " 'scipy.sparse.csgraph') if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                text=True)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "[]"

    @staticmethod
    def _engine_rate(r0, shots, seed):
        """The erasure rate and its stderr as ``run_download`` draws them on one qubit."""
        params = ProtocolParams(path_graph(1), SqueezedThermalParams(r0), seed=seed)
        est = run_download(params, shots, keep_states=False)[1].p_del_empirical
        return est, math.sqrt(est * (1.0 - est) / shots)

    def test_monte_carlo_three_sigma(self):
        est, stderr = self._engine_rate(0.5, 100_000, 77)
        assert abs(est - p_del_analytic(0.5)) < 3.0 * stderr

    def test_monte_carlo_threshold_point(self):
        # the fault-tolerance target, good to three digits
        est, stderr = self._engine_rate(1.372, 100_000, 78)
        assert abs(est - 0.249) < max(3.0 * stderr, 2e-3)


class TestThresholds:
    def test_known_loss_targets(self):
        assert abs(squeezing_db_for_pdel(0.249) - 11.9) < 0.05
        assert abs(squeezing_db_for_pdel(0.50) - 5.4) < 0.05

    @settings(max_examples=300, deadline=None)
    @given(st.floats(p_del_analytic(R0_LIMIT), 1.0, exclude_max=True))
    @example(0.95)  # -3.884 dB: below r0 = 0
    @example(1e-5)  # 100 dB
    @example(1e-150)
    def test_round_trip_inversion(self, p):
        db = squeezing_db_for_pdel(p)
        assert abs(p_del_analytic(db_to_squeezing(db)) - p) <= 1e-12 * p

    def test_out_of_range_targets(self):
        # the closed form inverts every p in (0, 1) whose r0 is within
        # +-R0_LIMIT: 0.95 (r0 < 0) is accepted, and 1e-160 (r0 = 368) refused
        assert abs(squeezing_db_for_pdel(0.95) - -3.884) < 1e-3
        for p in (0.0, 1.0, math.nan, -0.1, 1.5, math.inf):
            with pytest.raises(ValueError, match=r"^target .* is not a deletion probability"):
                squeezing_db_for_pdel(p)
        with pytest.raises(ValueError, match=re.escape(repr(R0_LIMIT))):
            squeezing_db_for_pdel(1e-160)

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

    @pytest.mark.parametrize("p, limit", [(0.0, 0.0), (0.3, 0.0), (1.0, 1.0)])
    def test_rails_beyond_the_float_range(self, p, limit):
        # 10**400 cannot convert to a float; the power's limit is exact
        assert vertex_disconnect_prob(p, 10**400) == limit

    def test_validation(self):
        with pytest.raises(ValueError):
            vertex_disconnect_prob(1.2, 1)
        with pytest.raises(ValueError):
            vertex_disconnect_prob(0.5, 0)


@settings(max_examples=40, deadline=None)
@given(st.one_of(non_integers, st.booleans()))
def test_vertex_disconnect_prob_refuses_non_integer_rails(n_rails):
    with pytest.raises(ValueError, match="^n_rails must be an integer >= 1, got "):
        vertex_disconnect_prob(0.3, n_rails)


@settings(max_examples=40, deadline=None)
@given(non_integers)
def test_sample_q_refuses_non_integer_shots(shots):
    rng = np.random.default_rng(0)
    assert_refused_before_allocating(lambda: sample_q(0.5, shots, rng), match="^shots must")
