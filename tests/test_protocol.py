"""Download protocol: sampling, direct vs equivalent states, shot loop."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from cvdownload.error_model import (
    SQRT_PI,
    outcome_density,
    p_del_analytic,
    qubit_given_outcome,
)
from cvdownload.gaussian import SqueezedThermalParams
from cvdownload.graphs import Graph, adjacency_matrix, path_graph, random_graph
from cvdownload.protocol import (
    DownloadRecord,
    ProtocolParams,
    downloaded_state_direct,
    downloaded_state_equivalent,
    run_download,
    sample_outcomes,
)
from cvdownload.qubits import (
    DEFAULT_MAX_QUBITS,
    QubitDensityMatrix,
    apply_balancing_povm,
    cluster_state,
    fidelity,
    trace_distance,
)


def _params(graph, r, nbar, seed=0, strength=1.0):
    return ProtocolParams(
        graph=graph,
        source=SqueezedThermalParams(r, nbar),
        cphase_strength=strength,
        seed=seed,
    )


def _random_case(rng, n_max=4, r_lo=0.0, r_hi=2.0, nbar_hi=2.0):
    g = random_graph(int(rng.integers(1, n_max + 1)), 0.6, rng)
    r = float(rng.uniform(r_lo, r_hi))
    nbar = float(rng.uniform(0.0, nbar_hi))
    q = rng.uniform(-1.0, 1.0 + SQRT_PI, size=g.n)
    return g, r, nbar, q


class TestSampling:
    def test_shape_and_determinism(self):
        params = _params(path_graph(3), 1.0, 0.0, seed=9)
        a = sample_outcomes(params, np.random.default_rng(4))
        b = sample_outcomes(params, np.random.default_rng(4))
        assert a.shape == (3,)
        assert np.array_equal(a, b)

    def test_mixture_mean(self):
        params = _params(path_graph(1), 0.4, 0.5, seed=1)
        rng = np.random.default_rng(10)
        draws = np.concatenate([sample_outcomes(params, rng) for _ in range(100_000)])
        assert abs(draws.mean() - SQRT_PI / 2.0) < 0.02

    def test_thermal_variance_uses_mixture_r0(self):
        # nbar widens the effective wavefunction: e^{2 r0} = e^{2r}(1+2 nbar)
        params = _params(path_graph(1), 0.0, 1.0, seed=2)
        rng = np.random.default_rng(11)
        draws = np.concatenate([sample_outcomes(params, rng) for _ in range(100_000)])
        expected = 3.0 / 2.0 + math.pi / 4.0
        assert abs(draws.var() - expected) < 0.03


class TestDirectState:
    def test_single_mode_reduces_to_conditional_state(self, rng):
        for _ in range(10):
            r = float(rng.uniform(0.1, 1.5))
            q = float(rng.uniform(-0.5, 2.0))
            params = _params(path_graph(1), r, 0.0)
            rho = downloaded_state_direct(params, np.array([q]))
            psi = qubit_given_outcome(q, r)
            assert fidelity(psi, rho) > 1.0 - 1e-12

    def test_symmetry_point_yields_cluster(self):
        params = _params(path_graph(2), 0.9, 0.0)
        q = np.full(2, SQRT_PI / 2.0)
        rho = downloaded_state_direct(params, q)
        assert fidelity(cluster_state(path_graph(2)), rho) > 1.0 - 1e-12

    def test_high_squeezing_approaches_cluster(self, rng):
        params = _params(path_graph(2), 3.5, 0.0)
        q = rng.uniform(0.0, SQRT_PI, size=2)
        rho = downloaded_state_direct(params, q)
        assert fidelity(cluster_state(path_graph(2)), rho) > 1.0 - 1e-6

    def test_wrong_outcome_length(self):
        params = _params(path_graph(2), 1.0, 0.0)
        with pytest.raises(ValueError):
            downloaded_state_direct(params, np.zeros(3))


def _direct_with_hamming_tensor(params, q):
    """Reference direct register: the Hamming distances come from the
    full (2^n, 2^n, n) difference array instead of two matrix products."""
    n, g = params.graph.n, params.cphase_strength
    r0, sigma2 = params.mixture()
    a = adjacency_matrix(params.graph)
    bits = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    x = q[None, :] - SQRT_PI * bits
    log_mag = -np.sum(x**2, axis=1) / (2.0 * math.exp(2.0 * r0))
    phase = 0.5 * g * np.einsum("bi,ij,bj->b", x, a, x)
    phase = phase + bits @ (g * SQRT_PI * (a @ q))
    amps = np.exp(log_mag - log_mag.max()) * np.exp(1j * phase)
    rho = np.outer(amps, amps.conj())
    if sigma2 > 0.0:
        hamming = np.abs(bits[:, None, :] - bits[None, :, :]).sum(axis=-1)
        rho = rho * np.exp(-0.5 * math.pi * sigma2 * hamming)
    return QubitDensityMatrix(n, rho, normalize=True)


class TestDirectStateMemory:
    def test_bit_identical_to_hamming_tensor(self, rng):
        for n in range(1, 9):
            g = random_graph(n, 0.6, rng)
            q = rng.uniform(-1.0, 1.0 + SQRT_PI, size=n)
            params = _params(g, float(rng.uniform(0.0, 2.0)), 0.7)
            expected = _direct_with_hamming_tensor(params, q).rho
            assert np.array_equal(downloaded_state_direct(params, q).rho, expected)

    def test_refuses_above_cap_before_allocating(self):
        n = DEFAULT_MAX_QUBITS + 1
        params = _params(path_graph(n), 1.0, 0.2)
        with pytest.raises(ValueError, match="dense-simulation cap"):
            downloaded_state_direct(params, np.zeros(n))


class TestEquivalentCircuit:
    def test_agreement_with_direct(self, rng):
        for _ in range(60):
            g, r, nbar, q = _random_case(rng)
            params = _params(g, r, nbar)
            direct = downloaded_state_direct(params, q)
            equiv = downloaded_state_equivalent(params, q)
            assert trace_distance(direct, equiv) < 1e-10

    def test_agreement_with_nonunit_strength(self, rng):
        for _ in range(15):
            g, r, nbar, q = _random_case(rng, n_max=3)
            strength = float(rng.uniform(0.3, 1.7))
            params = _params(g, r, nbar, strength=strength)
            direct = downloaded_state_direct(params, q)
            equiv = downloaded_state_equivalent(params, q)
            assert trace_distance(direct, equiv) < 1e-10

    def test_pure_case_stays_pure(self, rng):
        g, r, _, q = _random_case(rng, nbar_hi=0.0)
        params = _params(g, r, 0.0)
        rho = downloaded_state_equivalent(params, q)
        assert abs(rho.purity() - 1.0) < 1e-10


class TestThermalDamping:
    def test_off_diagonal_ratio(self):
        # thermal off-diagonals shrink by exp(-pi sigma^2/2) per differing bit
        g = path_graph(2)
        q = np.array([0.3, 1.1])
        thermal = _params(g, 0.4, 0.7)
        r0, sigma2 = thermal.mixture()
        pure = _params(g, r0, 0.0)
        rho_t = downloaded_state_direct(thermal, q).rho
        rho_p = downloaded_state_direct(pure, q).rho
        damp = math.exp(-math.pi * sigma2 / 2.0)
        for b in range(4):
            for c in range(4):
                hamming = bin(b ^ c).count("1")
                expected = rho_p[b, c] * damp**hamming
                assert abs(rho_t[b, c] - expected) < 1e-12

    def test_monte_carlo_over_displacements(self):
        """Average the pure-state projector over Gaussian p kicks.

        Each thermal mode is a squeezed vacuum at r0 plus a random p
        displacement p0; a kick multiplies the bit-b amplitude by
        e^{-i sqrt(pi) p0.b}.  Averaging the resulting projectors is the
        independent estimate of the analytic damping factors.
        """
        rng = np.random.default_rng(424242)
        g = path_graph(2)
        q = np.array([0.55, 0.9])
        thermal = _params(g, 0.3, 0.8)
        r0, sigma2 = thermal.mixture()
        rho_pure = downloaded_state_direct(_params(g, r0, 0.0), q).rho

        bits = np.array([[b >> i & 1 for i in range(2)] for b in range(4)], dtype=float)
        n_samples = 400_000
        p0 = rng.normal(0.0, math.sqrt(sigma2), size=(n_samples, 2))
        phases = np.exp(-1j * SQRT_PI * (p0 @ bits.T))  # (samples, 4)
        factors = np.einsum("mb,mc->bc", phases, phases.conj()) / n_samples
        estimate = rho_pure * factors

        rho_thermal = downloaded_state_direct(thermal, q).rho
        assert np.max(np.abs(estimate - rho_thermal)) < 5e-3


class TestRunDownload:
    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            run_download(_params(path_graph(2), 1.0, 0.0), 0)

    def test_deterministic_records(self):
        params = _params(path_graph(3), 1.0, 0.0, seed=42)
        rec_a, sum_a = run_download(params, 50)
        rec_b, sum_b = run_download(params, 50)
        for a, b in zip(rec_a, rec_b):
            assert np.array_equal(a.q, b.q)
            assert a.outcomes == b.outcomes
        assert sum_a.to_json() == sum_b.to_json()

    def test_pure_kept_states_are_cluster(self):
        params = _params(path_graph(2), 0.6, 0.0, seed=3)
        records, summary = run_download(params, 40)
        target = cluster_state(path_graph(2))
        for rec in records:
            if rec.all_kept:
                assert fidelity(target, rec.post_state) > 1.0 - 1e-10
        if summary.all_kept_shots:
            assert abs(summary.mean_kept_fidelity - 1.0) < 1e-10

    def test_record_invariants(self):
        params = _params(path_graph(3), 0.8, 0.5, seed=7)
        records, _ = run_download(params, 30, keep_states=False)
        r0, _ = params.mixture()
        from cvdownload.graphs import adjacency_matrix

        a = adjacency_matrix(path_graph(3))
        for rec in records:
            assert np.allclose(rec.phi, SQRT_PI * a @ rec.q, atol=1e-12)
            gamma = np.exp(SQRT_PI * (2.0 * rec.q - SQRT_PI) / (2.0 * math.exp(2.0 * r0)))
            assert np.allclose(rec.gamma, gamma, atol=1e-12)
            for site, (kind, bit) in enumerate(rec.outcomes):
                if kind == "delete":
                    assert bit == int(rec.gamma[site] > 1.0)
                else:
                    assert bit is None
            assert (rec.gamma < 1.0).tolist() == (rec.q < SQRT_PI / 2.0).tolist()

    def test_keep_states_flag_preserves_stream(self):
        params = _params(path_graph(2), 0.5, 0.4, seed=12)
        with_states, sum_a = run_download(params, 60, keep_states=True)
        without, sum_b = run_download(params, 60, keep_states=False)
        for a, b in zip(with_states, without):
            assert np.array_equal(a.q, b.q)
            assert a.outcomes == b.outcomes
            assert b.post_state is None
        assert sum_a.p_del_empirical == sum_b.p_del_empirical

    def test_deletion_rate_three_sigma(self):
        shots = 100_000
        params = _params(path_graph(1), 1.0, 0.0, seed=99)
        _, summary = run_download(params, shots, keep_states=False)
        expected = p_del_analytic(1.0)
        stderr = math.sqrt(expected * (1.0 - expected) / shots)
        assert abs(summary.p_del_empirical - expected) < 3.0 * stderr
        assert abs(summary.p_del_analytic - expected) < 1e-15

    def test_summary_bookkeeping(self):
        params = _params(path_graph(2), 0.4, 0.2, seed=8)
        records, summary = run_download(params, 200, keep_states=False)
        hist = np.zeros(3, dtype=int)
        per_qubit = np.zeros(2, dtype=int)
        for rec in records:
            deleted = sum(kind == "delete" for kind, _ in rec.outcomes)
            hist[deleted] += 1
            for site, (kind, _) in enumerate(rec.outcomes):
                per_qubit[site] += kind == "delete"
        assert summary.deletions_histogram == tuple(hist.tolist())
        assert summary.per_qubit_deletions == tuple(per_qubit.tolist())
        assert summary.all_kept_shots == hist[0]
        assert summary.shots == 200
        total_deleted = per_qubit.sum()
        assert abs(summary.p_del_empirical - total_deleted / 400.0) < 1e-12

    def test_record_round_trips_to_json(self):
        params = _params(path_graph(2), 0.9, 0.3, seed=5)
        records, _ = run_download(params, 3)
        doc = json.loads(json.dumps(records[0].to_json()))
        assert np.allclose(doc["q"], records[0].q)
        assert doc["outcomes"][0][0] in ("keep", "delete")
        assert "post_state" in doc
        slim = records[0].to_json(include_state=False)
        assert "post_state" not in slim


def _gate_by_gate_register(params, record):
    """Oracle for a kept-state shot: equivalent circuit, then one forced POVM per site."""
    state = downloaded_state_equivalent(params, record.q)
    for site, (kind, _) in enumerate(record.outcomes):
        state = apply_balancing_povm(state, site, float(record.gamma[site]), force=kind).state
    return state


@st.composite
def _download_cases(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = tuple(p for p, on in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if on)
    strength = draw(st.one_of(
        st.just(1.0),
        st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    ))
    r = draw(st.floats(0.1, 2.0))
    nbar = draw(st.floats(0.0, 2.0))
    seed = draw(st.integers(0, 2**31 - 1))
    return _params(Graph(n, edges), r, nbar, seed=seed, strength=strength)


class TestOnePassRegister:
    """``run_download`` builds each kept-state register from its keep/delete
    pattern; the gate-by-gate route must give the same matrix."""

    @settings(max_examples=80, deadline=None)
    @given(_download_cases())
    def test_matches_gate_by_gate_oracle(self, params):
        records, _ = run_download(params, 3, keep_states=True)
        for rec in records:
            oracle = _gate_by_gate_register(params, rec)
            assert np.max(np.abs(rec.post_state.rho - oracle.rho)) <= 1e-12

    def test_unit_strength_register_is_real(self):
        params = _params(Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))), 0.7, 0.3, seed=4)
        records, _ = run_download(params, 10)
        for rec in records:
            assert not np.any(rec.post_state.rho.imag)

    def test_refuses_above_cap(self):
        params = _params(path_graph(DEFAULT_MAX_QUBITS + 1), 1.0, 0.0)
        with pytest.raises(ValueError, match="dense-simulation cap"):
            run_download(params, 1, keep_states=True)


class TestNegativeSqueezing:
    """At strongly negative ``r`` the imbalance leaves the float range: every
    qubit is deleted, and neither path may warn or fail."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("keep_states", [True, False])
    @pytest.mark.parametrize("nbar", [0.0, 0.1])
    @pytest.mark.parametrize("r", [-3.0, -3.5])
    def test_shot_loop_is_warning_free(self, r, nbar, keep_states):
        params = _params(path_graph(3), r, nbar, seed=1)
        records, summary = run_download(params, 20, keep_states=keep_states)
        assert summary.shots == 20
        for rec in records:
            assert np.all(np.isfinite(rec.q))
            for site, (kind, bit) in enumerate(rec.outcomes):
                if kind == "delete":
                    assert bit == int(rec.gamma[site] > 1.0)
            if keep_states:
                assert abs(np.trace(rec.post_state.rho).real - 1.0) < 1e-12
                diag = rec.post_state.rho.diagonal().real
                for site, (kind, bit) in enumerate(rec.outcomes):
                    if kind == "delete":
                        on_bit = (np.arange(8) >> site) & 1 == bit
                        assert diag[on_bit].sum() > 1.0 - 1e-12
            else:
                assert rec.post_state is None

    @pytest.mark.filterwarnings("error")
    def test_statistics_match_states_run(self):
        params = _params(path_graph(3), -3.5, 0.1, seed=5)
        with_states, sum_a = run_download(params, 10, keep_states=True)
        without, sum_b = run_download(params, 10, keep_states=False)
        for a, b in zip(with_states, without):
            assert np.array_equal(a.gamma, b.gamma)
            assert a.outcomes == b.outcomes
        assert sum_a.to_json()["deletions_histogram"] == sum_b.to_json()["deletions_histogram"]


class TestKeptStateQuality:
    def test_thermal_states_lose_fidelity(self):
        params = _params(path_graph(2), 0.5, 1.0, seed=21)
        _, summary = run_download(params, 300)
        if summary.all_kept_shots:
            assert summary.mean_kept_fidelity < 1.0 - 1e-3

    def test_no_kept_shots_yields_nan(self):
        # r0 tiny: nearly every qubit is deleted, so force a shot count
        # small enough to plausibly see zero all-keep shots; accept either.
        params = _params(path_graph(3), 0.0, 2.0, seed=2)
        _, summary = run_download(params, 3)
        if summary.all_kept_shots == 0:
            assert math.isnan(summary.mean_kept_fidelity)
