"""Download protocol: sampling, direct vs equivalent states, shot loop."""

import math
import tracemalloc
import warnings
from collections.abc import Sequence
from unittest import mock

import numpy as np
import pytest
from conftest import (
    assert_refused_before_allocating,
    dense_adjacency,
    neighbor_sum_phase,
    non_integers,
    small_graphs,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from cvdownload import protocol
from cvdownload.error_model import (
    SQRT_PI,
    amplitude_imbalance,
    dephasing_rate,
    keep_probability,
    log_imbalance,
    outcome_density,
    p_del_analytic,
    qubit_given_outcome,
    sample_q,
)
from cvdownload.gaussian import R0_LIMIT, SqueezedThermalParams
from cvdownload.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid2d_graph,
    path_graph,
    random_graph,
)
from cvdownload.protocol import (
    _OUTCOME_BY_CODE,
    DIRECT_PHASE_SCALE_MAX,
    MAX_REGISTER_BYTES,
    SHOT_BLOCK,
    DownloadRecord,
    DownloadSummary,
    ProtocolParams,
    downloaded_state_direct,
    downloaded_state_equivalent,
    register_from_outcomes,
    run_download,
    sample_outcomes,
)
from cvdownload.qubits import (
    DEFAULT_MAX_QUBITS,
    QubitDensityMatrix,
    _bits,
    _tensor_product,
    apply_balancing_povm,
    cluster_state,
    fidelity,
    graph_phases,
    trace_distance,
)


def _params(graph, r, nbar, seed=0):
    return ProtocolParams(graph=graph, source=SqueezedThermalParams(r, nbar), seed=seed)


def _phase_scale(graph, q):
    """The n-aware phase scale ``sqrt(n/2) m^T A m``, ``m = max(|q|, |q - sqrt(pi)|)``,
    that the direct register bounds by ``DIRECT_PHASE_SCALE_MAX`` (inf past float max)."""
    m = np.abs(np.asarray(q) - SQRT_PI / 2.0) + SQRT_PI / 2.0
    with np.errstate(over="ignore"):
        return math.sqrt(graph.n / 2.0) * float(m @ dense_adjacency(graph) @ m)


def _onto_the_bound(graph, q):
    """``q`` with its outcomes on vertices that have edges scaled, up or down,
    so the phase scale sits just under the bound; isolated vertices do not
    enter it."""
    on_edges = np.zeros(graph.n, dtype=bool)
    on_edges[[v for edge in graph.edges for v in edge]] = True
    unit = np.where(on_edges, q / np.abs(q[on_edges]).max(), q)  # a finite scale

    def excess(factor):
        scaled = np.where(on_edges, unit * factor, q)
        return _phase_scale(graph, scaled) - DIRECT_PHASE_SCALE_MAX * (1.0 - 1e-9)

    high = 1.0  # excess(0) < 0: m = sqrt(pi) on every edge is far inside
    while excess(high) < 0.0:
        high *= 2.0
    return np.where(on_edges, unit * optimize.brentq(excess, 0.0, high), q)


def _assert_agreement_or_refusal(params, q):
    """The direct and equivalent registers agree, or the direct one refuses
    by its phase-scale rule, the one rule finite outcomes can meet; tier-1
    turns any RuntimeWarning into an error."""
    try:
        direct = downloaded_state_direct(params, q)
    except ValueError as exc:
        assert "DIRECT_PHASE_SCALE_MAX" in str(exc)
        return
    assert trace_distance(direct, downloaded_state_equivalent(params, q)) < 1e-10


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
        # an edgeless graph: one call draws 100k i.i.d. outcomes from P(q)
        params = _params(Graph(100_000), 0.4, 0.5, seed=1)
        draws = sample_outcomes(params, np.random.default_rng(10))
        assert abs(draws.mean() - SQRT_PI / 2.0) < 0.02

    def test_thermal_variance_uses_mixture_r0(self):
        # nbar widens the effective wavefunction: e^{2 r0} = e^{2r}(1+2 nbar)
        params = _params(Graph(100_000), 0.0, 1.0, seed=2)
        draws = sample_outcomes(params, np.random.default_rng(11))
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

    @pytest.mark.parametrize("r, nbar", [(10.0, 0.0), (9.0, 2.0)])
    def test_large_r0_outcomes_refused_by_phase_scale(self, r, nbar):
        # sampled outcomes of size e^{r0} carry a phase scale far above the
        # bound (2e-7 against the equivalent circuit at r0 = 10)
        params = _params(path_graph(3), r, nbar)
        q = sample_outcomes(params, np.random.default_rng(0))
        assert _phase_scale(params.graph, q) > DIRECT_PHASE_SCALE_MAX
        with pytest.raises(ValueError, match="DIRECT_PHASE_SCALE_MAX"):
            downloaded_state_direct(params, q)

    def test_r0_above_four_accepted_where_precise(self, rng):
        params = _params(path_graph(3), 4.0 + 1e-9, 0.0)
        for _ in range(20):
            q = sample_outcomes(params, rng)
            assert _phase_scale(params.graph, q) <= DIRECT_PHASE_SCALE_MAX
            direct = downloaded_state_direct(params, q)
            assert trace_distance(direct, downloaded_state_equivalent(params, q)) < 1e-10

    @pytest.mark.parametrize(
        "n, r, sigmas",
        [(10, -R0_LIMIT, None), (1, R0_LIMIT, 6.0), (4, R0_LIMIT, 6.0), (12, R0_LIMIT, 6.0)],
    )
    def test_agrees_at_extreme_r0(self, n, r, sigmas):
        # edgeless, so no phase scale: at -R0_LIMIT the midpoint outcomes
        # balance every qubit exactly, and at +R0_LIMIT 6 sigma outcomes
        # square past float max
        params = _params(Graph(n), r, 0.0)
        r0 = params.mixture()[0]
        q = np.full(n, SQRT_PI / 2.0 if sigmas is None else sigmas * math.exp(r0) / math.sqrt(2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direct = downloaded_state_direct(params, q)
            if n <= 10:
                equiv = downloaded_state_equivalent(params, q)
                assert trace_distance(direct, equiv) < 1e-10

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_refuses_far_tail_outcomes(self, n, rng):
        # outcomes at about 5 sigma on a complete graph at r0 = 3.5 lost
        # precision silently (1.3e-10 against the equivalent circuit)
        params = _params(complete_graph(n), 3.5, 0.0)
        q = rng.choice([-1.0, 1.0], size=n) * 5.0 * math.exp(3.5) / math.sqrt(2.0)
        q += rng.normal(0.0, 1.0, size=n)
        assert _phase_scale(params.graph, q) > DIRECT_PHASE_SCALE_MAX
        assert_refused_before_allocating(
            lambda: downloaded_state_direct(params, q), match="DIRECT_PHASE_SCALE_MAX"
        )

    def test_refuses_non_finite_and_huge_outcomes(self):
        params = _params(path_graph(2), 1.0, 0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                downloaded_state_direct(params, np.array([0.5, bad]))
        with pytest.raises(ValueError, match="DIRECT_PHASE_SCALE_MAX"):
            downloaded_state_direct(params, np.array([1e300, -1e300]))

    def test_battery_outcomes_stay_far_inside(self):
        # the densest graph and widest source of sampled outcomes in the
        # oracle benchmark (K8, r0 = 2.05), and K4 at r = nbar = 2 (r0 = 2.8):
        # 10^5 draws each stay below a quarter of the bound
        for n, r, nbar in ((4, 2.0, 2.0), (8, 1.5, 1.0)):
            r0 = _params(path_graph(1), r, nbar).mixture()[0]
            q = sample_q(r0, n * 100_000, np.random.default_rng(n)).reshape(-1, n)
            a = dense_adjacency(complete_graph(n))
            m = np.abs(q - SQRT_PI / 2.0) + SQRT_PI / 2.0
            scales = math.sqrt(n / 2.0) * np.einsum("si,ij,sj->s", m, a, m)
            assert scales.max() < DIRECT_PHASE_SCALE_MAX / 4.0


def _direct_with_hamming_tensor(params, q):
    """Reference direct register built over whole bitstrings: magnitudes
    from one joint log-sum, and the Hamming distances of the damping from
    the full (2^n, 2^n, n) difference array, instead of per-qubit factors."""
    n = params.graph.n
    r0, sigma2 = params.mixture()
    a = dense_adjacency(params.graph)
    bits = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    x = q[None, :] - SQRT_PI * bits
    log_mag = -np.sum(x**2, axis=1) / (2.0 * math.exp(2.0 * r0))
    phase = 0.5 * np.einsum("bi,ij,bj->b", x, a, x)
    phase = phase + bits @ (SQRT_PI * (a @ q))
    amps = np.exp(log_mag - log_mag.max()) * np.exp(1j * phase)
    rho = np.outer(amps, amps.conj())
    if sigma2 > 0.0:
        hamming = np.abs(bits[:, None, :] - bits[None, :, :]).sum(axis=-1)
        rho = rho * np.exp(-0.5 * math.pi * sigma2 * hamming)
    return QubitDensityMatrix(n, rho / rho.trace().real)


class TestDirectStateMemory:
    def test_matches_hamming_tensor(self, rng):
        for n in range(1, 9):
            g = random_graph(n, 0.6, rng)
            q = rng.uniform(-1.0, 1.0 + SQRT_PI, size=n)
            params = _params(g, float(rng.uniform(0.0, 2.0)), 0.7)
            expected = _direct_with_hamming_tensor(params, q)
            assert trace_distance(downloaded_state_direct(params, q), expected) <= 1e-14

    def test_refuses_above_cap_before_allocating(self):
        n = DEFAULT_MAX_QUBITS + 1
        params = _params(path_graph(n), 1.0, 0.2)
        q = np.zeros(n)
        assert_refused_before_allocating(lambda: downloaded_state_direct(params, q))
        assert_refused_before_allocating(lambda: downloaded_state_equivalent(params, q))


class TestEquivalentCircuit:
    def test_agreement_with_direct(self, rng):
        for _ in range(60):
            g, r, nbar, q = _random_case(rng)
            params = _params(g, r, nbar)
            direct = downloaded_state_direct(params, q)
            equiv = downloaded_state_equivalent(params, q)
            assert trace_distance(direct, equiv) < 1e-10

    def test_agreement_at_the_bound_for_any_r0(self, rng):
        # sampled outcomes moved onto the phase-scale bound: r0 needs no
        # bound of its own
        for r in (4.0, 6.0, 10.0, 30.0, 300.0):
            for _ in range(12):
                graph = random_graph(int(rng.integers(2, 9)), float(rng.uniform(0.2, 1.0)), rng)
                if not graph.edges:
                    continue
                params = _params(graph, r, float(rng.choice([0.0, 0.5])))
                q = _onto_the_bound(graph, sample_outcomes(params, rng))
                direct = downloaded_state_direct(params, q)
                equiv = downloaded_state_equivalent(params, q)
                assert trace_distance(direct, equiv) < 1e-10

    def test_agreement_at_the_phase_scale_bound(self, rng):
        # dense graphs, outcomes scaled so the n-aware scale sits at the bound
        for _ in range(30):
            n = int(rng.integers(2, 9))
            graph = complete_graph(n) if rng.random() < 0.5 else random_graph(n, 0.8, rng)
            if not graph.edges:
                continue
            params = _params(graph, float(rng.uniform(0.0, 4.0)), 0.0)
            q = _onto_the_bound(graph, rng.normal(0.0, 1.0, size=n))
            direct = downloaded_state_direct(params, q)
            equiv = downloaded_state_equivalent(params, q)
            assert trace_distance(direct, equiv) < 1e-10

    @pytest.mark.parametrize("r", [-R0_LIMIT, -R0_LIMIT + 1e-9])
    @pytest.mark.parametrize("nbar", [0.0, 0.1, 10.0, 1e6])
    def test_agreement_at_the_lower_source_limit(self, r, nbar, rng):
        # exp(2 r0) is near its floor: log gamma is +-inf, so every qubit is
        # an exact basis state, and sigma2 is inf once nbar is about 1 or more
        for n in range(3, 9):
            params = _params(random_graph(n, 0.6, rng), r, nbar)
            q = sample_outcomes(params, rng)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                direct = downloaded_state_direct(params, q)
                equiv = downloaded_state_equivalent(params, q)
            assert trace_distance(direct, equiv) <= 1e-10

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
        assert repr(sum_a) == repr(sum_b)  # floats by repr: bit for bit, NaN included

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
        a = dense_adjacency(path_graph(3))
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
        assert sum_a == sum_b

    def test_deletion_rate_three_sigma(self):
        shots = 100_000
        params = _params(path_graph(1), 1.0, 0.0, seed=99)
        _, summary = run_download(params, shots, keep_states=False)
        expected = p_del_analytic(1.0)
        stderr = math.sqrt(expected * (1.0 - expected) / shots)
        assert abs(summary.p_del_empirical - expected) < 3.0 * stderr
        assert abs(summary.p_del_analytic - expected) < 1e-15

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_malformed_seed_refused(self, seed):
        # SeedSequence would refuse these only later, in the run, and not by name
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            _params(path_graph(1), 1.0, 0.0, seed=seed)

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


def _gate_by_gate_register(params, record):
    """Oracle for a kept-state shot: equivalent circuit, then one forced POVM per site."""
    state = downloaded_state_equivalent(params, record.q)
    ell = log_imbalance(record.q, params.mixture().r0)
    for site, (kind, _) in enumerate(record.outcomes):
        state = apply_balancing_povm(state, site, ell[site], force=kind).state
    return state


@st.composite
def _download_cases(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = tuple(p for p, on in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if on)
    r = draw(st.floats(0.1, 2.0))
    nbar = draw(st.floats(0.0, 2.0))
    seed = draw(st.integers(0, 2**31 - 1))
    return _params(Graph(n, edges), r, nbar, seed=seed)


class TestOnePassRegister:
    """``run_download`` builds each kept-state register from its keep/delete
    pattern; the gate-by-gate route must give the same matrix."""

    @settings(max_examples=80, deadline=None)
    @given(_download_cases())
    def test_matches_gate_by_gate_oracle(self, params):
        records, summary = run_download(params, 3, keep_states=True)
        target = cluster_state(params.graph)
        for rec in records:
            oracle = _gate_by_gate_register(params, rec)
            assert np.max(np.abs(rec.post_state.rho - oracle.rho)) <= 1e-12
            if rec.all_kept:
                assert abs(fidelity(target, rec.post_state) - summary.mean_kept_fidelity) <= 1e-12

    def test_unit_strength_register_is_real(self):
        params = _params(Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))), 0.7, 0.3, seed=4)
        records, _ = run_download(params, 10)
        for rec in records:
            assert not np.any(rec.post_state.rho.imag)

    def test_refuses_above_cap(self):
        params = _params(path_graph(DEFAULT_MAX_QUBITS + 1), 1.0, 0.0)
        assert_refused_before_allocating(lambda: run_download(params, 1, keep_states=True))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(n_max=8), st.floats(-1.0, 1.0), st.data())
    def test_register_is_exactly_hermitian_and_unchanged(self, graph, coherence, data):
        # the register is stored with no float test, so these identities hold
        # exactly.  On the support (the basis states that agree with every
        # deleted bit) its entries are the full product's times the +-1 CZ
        # signs, built here as a complex copy of a fresh product and both sign
        # passes; off it every entry is +0.0, whatever sign the product's
        # zero has there
        row = st.lists(st.integers(0, 1), min_size=graph.n, max_size=graph.n)
        kept, bits = data.draw(row), data.draw(row)
        rows = (kept, bits)  # a JSON line's lists, or a run's bool rows
        if data.draw(st.booleans()):
            rows = (np.array(kept, dtype=bool), np.array(bits, dtype=bool))
        rho = register_from_outcomes(graph, coherence, *rows).rho
        assert np.array_equal(rho, rho.conj().T)
        assert rho.trace() == 1.0
        assert rho.dtype == np.complex128
        expected = _full_product_register(graph, coherence, kept, bits)
        support = np.ones(2**graph.n, dtype=bool)
        for site, (k, b) in enumerate(zip(kept, bits)):
            if not k:
                support &= _bits(graph.n)[:, site] == b
        on = np.ix_(support, support)
        assert rho[on].tobytes() == expected[on].tobytes()
        off = rho[~np.outer(support, support)]
        assert not np.any(off)
        assert not np.any(np.signbit(off.real)) and not np.any(np.signbit(off.imag))
        # an all-kept register is the full product, byte for byte
        everything = [1] * graph.n
        again = register_from_outcomes(graph, coherence, everything, bits).rho
        assert again.tobytes() == _full_product_register(graph, coherence, everything, bits).tobytes()
        # a kept qubit ignores its bit
        flipped = [b ^ k for k, b in zip(kept, bits)]
        again = register_from_outcomes(graph, coherence, kept, flipped).rho
        assert again.tobytes() == rho.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(n_max=8), st.floats(-1.0, 1.0), st.data())
    def test_support_is_the_kept_subgraph_in_a_z_frame(self, graph, coherence, data):
        # Pauli-Z rule (Hein, Eisert and Briegel, PRA 69, 062311): measuring
        # Z on a vertex j with outcome b_j leaves the rest the graph state of
        # G minus j, with Z^(b_j) on each of j's neighbours.  So the support
        # block is the kept subgraph's register, conjugated by Z^(sum of the
        # deleted neighbours' bits) on each kept qubit, exactly (+-1 signs)
        row = st.lists(st.integers(0, 1), min_size=graph.n, max_size=graph.n)
        kept, bits = data.draw(row), data.draw(row)
        rho = register_from_outcomes(graph, coherence, kept, bits).rho
        keep = [i for i in range(graph.n) if kept[i]]
        gone = [i for i in range(graph.n) if not kept[i]]
        support = sum(bits[j] << j for j in gone) + _bits(len(keep)) @ (1 << np.array(keep, dtype=int))
        block = rho[np.ix_(support, support)]
        if not keep:  # every qubit deleted: the one basis state
            assert block.tobytes() == np.ones((1, 1), dtype=complex).tobytes()
            return
        label = {v: a for a, v in enumerate(keep)}
        sub = Graph(len(keep), tuple((label[i], label[j]) for i, j in graph.edges
                                     if kept[i] and kept[j]))
        flips = np.zeros(len(keep), dtype=int)  # Z frame of each kept qubit
        for i, j in graph.edges:
            for a, b in ((i, j), (j, i)):
                if kept[a] and not kept[b]:
                    flips[label[a]] ^= bits[b]
        z = np.where(_bits(len(keep)) @ flips % 2 == 1, -1.0, 1.0)
        expected = register_from_outcomes(sub, coherence, [1] * len(keep), [0] * len(keep)).rho
        assert not np.any(expected.imag)  # so the Z frame signs the real part alone
        expected = expected.real * z[:, None]
        expected *= z
        assert block.tobytes() == expected.astype(complex).tobytes()

    @pytest.mark.parametrize("kept, bound", [([1] * 10, 1.26), ([1] * 9 + [0], 1.07),
                                             ([0, 1] * 5, 1.07), ([0] * 10, 1.07)])
    def test_register_allocates_little_beyond_itself(self, kept, bound):
        # the register (16 4^n bytes), the lower kept factors' real product
        # and one scratch of its size: 1.25x when every qubit is kept, and
        # with a deletion the product is at most a sixteenth of the register
        graph = grid2d_graph(2, 5)
        graph_phases(graph)  # cached per graph, as in a run
        tracemalloc.start()
        try:
            state = register_from_outcomes(graph, 0.8, kept, [1, 0] * 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.rho.nbytes == 16 * 4**10
        assert peak <= bound * state.rho.nbytes

    @pytest.mark.parametrize("n", [13, 20])
    @pytest.mark.parametrize("deleted", [0, 1, "all"])
    def test_register_refuses_past_the_cap_before_allocating(self, n, deleted):
        # the dense cap comes before the register: at n = 20 a 16 TiB one
        deleted = n if deleted == "all" else deleted
        graph = path_graph(n)
        kept = [0] * deleted + [1] * (n - deleted)
        assert_refused_before_allocating(lambda: register_from_outcomes(graph, 0.8, kept, [1] * n))


def _full_product_register(graph, coherence, kept, bits):
    """The register as the full little-endian product of every qubit's factor
    (a deleted one ``|b><b|``), times both sides' CZ signs, as a complex copy."""
    kept_factor = np.array([[0.5, 0.5 * coherence], [0.5 * coherence, 0.5]])
    factors = [kept_factor if k else np.diag([1.0 - b, float(b)]) for k, b in zip(kept, bits)]
    expected = _tensor_product(factors, np.ones((1, 1)))
    phases = graph_phases(graph)
    expected = expected * phases[:, None]
    expected *= phases
    return np.array(expected, dtype=complex)


_PATH3_KEPT = ([1, 1, 1], [0, 0, 0])


@pytest.mark.parametrize(
    "coherence, outcomes, match",
    [
        (0.5, ([2, 1, 1], [0, 0, 0]), r"^outcome 0 must be"),
        (0.5, ([1, 1, 1], [0, 5, 0]), r"^outcome 1 must be"),
        (0.5, ([1, 1, 0], [0, 0, -1]), r"^outcome 2 must be"),
        (0.5, ([0.5, 1, 1], [0, 0, 0]), r"^outcome 0 must be"),
        # 2-d rows: each entry is a row, not a 0/1 value
        (0.5, (np.ones((3, 3), dtype=bool), np.zeros((3, 3), dtype=bool)), r"^outcome 0 must be"),
        (0.5, ([[1], [1], [1]], [0, 0, 0]), r"^outcome 0 must be"),
        (0.5, ([1, 1], [0, 0]), r"^expected 3 outcomes, one per vertex, got 2 kept and 2 bits$"),
        # the 4^13 product of 13 entries would take 512 MB
        (0.5, ([1] * 13, [0] * 13), r"^expected 3 outcomes, one per vertex, got 13 kept and 13"),
        (3.0, _PATH3_KEPT, r"^coherence must be finite and within \[-1, 1\]"),
        (-2.0, _PATH3_KEPT, r"^coherence must be finite and within \[-1, 1\]"),
        (math.inf, _PATH3_KEPT, r"^coherence must be finite and within \[-1, 1\]"),
        (math.nan, _PATH3_KEPT, r"^coherence must be finite and within \[-1, 1\]"),
        (0.5, ([1, 1, 1], [0, 0]), r"^expected 3 outcomes, one per vertex, got 3 kept and 2 bits$"),
        (0.5, (np.ones((1, 3), dtype=bool), np.zeros((1, 3), dtype=bool)), r"^expected 3 outcomes"),
        (0.5, ([None, 1, 1], [0, 0, 0]), r"^outcome 0 must be"),
        (0.5, ([1, 1, 1], [0, math.nan, 0]), r"^outcome 1 must be"),
        (0.5, ([1, 1, 1], ["0", 0, 0]), r"^outcome 0 must be"),
    ],
)
def test_register_refuses_bad_input_before_allocating(coherence, outcomes, match):
    graph = path_graph(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_refused_before_allocating(
            lambda: register_from_outcomes(graph, coherence, *outcomes), match
        )


def _per_shot_reference(params, shots, keep_states):
    """Oracle for run_download: each block of SHOT_BLOCK shots drawn by the
    documented rule (its own spawned generator: all its q outcomes, then all
    its uniforms, shot-major), then the shot loop one shot at a time, each
    shot deciding its own imbalances, keeps and phase (its ascending
    neighbour sums, from the edge list), with the counts kept as running
    totals."""
    graph = params.graph
    n = graph.n
    r0, sigma2 = params.mixture()
    p_phi = dephasing_rate(sigma2)
    draws = []
    children = np.random.SeedSequence(params.seed).spawn(math.ceil(shots / SHOT_BLOCK))
    for b, child in enumerate(children):
        rng = np.random.default_rng(child)
        m = min(SHOT_BLOCK, shots - b * SHOT_BLOCK)
        q_flat = sample_q(r0, m * n, rng)
        u_flat = rng.random(m * n)
        draws += [(q_flat[k * n : (k + 1) * n], u_flat[k * n : (k + 1) * n]) for k in range(m)]
    records = []
    kept_counts = np.zeros(n, dtype=int)
    histogram = [0] * (n + 1)
    for q, u in draws:
        ell = log_imbalance(q, r0)
        kept = u < keep_probability(ell)
        bits = ell > 0.0
        gamma = np.asarray(amplitude_imbalance(q, r0), dtype=float)
        outcomes = tuple(map(_OUTCOME_BY_CODE.__getitem__, (2 * kept + bits).tolist()))
        deleted = n - int(np.count_nonzero(kept))
        kept_counts += kept
        histogram[deleted] += 1
        state = None
        if keep_states:
            state = register_from_outcomes(graph, 1.0 - 2.0 * p_phi, kept, bits)
        phi = neighbor_sum_phase(graph, q)
        records.append(DownloadRecord(q, phi, gamma, outcomes, state))
    per_qubit = shots - kept_counts
    summary = DownloadSummary(
        shots=shots,
        n=n,
        p_del_empirical=float(per_qubit.sum()) / (shots * n),
        p_del_analytic=p_del_analytic(r0),
        all_kept_shots=histogram[0],
        mean_kept_fidelity=(1.0 - p_phi) ** n if histogram[0] else math.nan,
        per_qubit_deletions=tuple(int(c) for c in per_qubit),
        deletions_histogram=tuple(histogram),
    )
    return records, summary


def _assert_matches_reference(params, shots, keep_states):
    records, summary = run_download(params, shots, keep_states)
    expected, expected_summary = _per_shot_reference(params, shots, keep_states)
    assert len(records) == len(expected) == shots
    for rec, ref in zip(records, expected):
        assert np.array_equal(rec.q, ref.q)
        assert np.array_equal(rec.gamma, ref.gamma)
        assert rec.outcomes == ref.outcomes
        assert np.array_equal(rec.phi, ref.phi)
        if keep_states:
            assert np.array_equal(rec.post_state.rho, ref.post_state.rho)
        else:
            assert rec.post_state is None and ref.post_state is None
    assert repr(summary) == repr(expected_summary)  # bit for bit, NaN included


class TestBatchedShotLoop:
    """``run_download`` draws by the block and decides over the stacked
    arrays; every output matches the one-shot-at-a-time reference."""

    @settings(max_examples=120, deadline=None)
    @given(
        graph=small_graphs(),
        r=st.floats(-300.0, 2.0),
        nbar=st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e6)),
        seed=st.integers(0, 2**31 - 1),
        shots=st.integers(1, 12),
        keep_states=st.booleans(),
    )
    def test_matches_per_shot_reference(self, graph, r, nbar, seed, shots, keep_states):
        params = _params(graph, r, nbar, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_matches_reference(params, shots, keep_states)

    @pytest.mark.parametrize("nbar", [0.0, 0.2])
    def test_grid_statistics_match_per_shot_reference(self, nbar):
        params = _params(grid2d_graph(10, 10), 1.15, nbar, seed=31)
        _assert_matches_reference(params, 300, keep_states=False)

    @pytest.mark.parametrize("shots", [1, SHOT_BLOCK - 1, SHOT_BLOCK, SHOT_BLOCK + 1])
    def test_block_edges_match_per_shot_reference(self, shots):
        assert SHOT_BLOCK == 1024
        params = _params(path_graph(3), 0.6, 0.2, seed=17)
        _assert_matches_reference(params, shots, keep_states=False)

    @settings(max_examples=20, deadline=None)
    @given(
        graph=small_graphs(),
        seed=st.integers(0, 2**31 - 1),
        blocks=st.integers(1, 2),
        extra=st.integers(0, 2 * SHOT_BLOCK),
    )
    def test_whole_blocks_are_a_prefix(self, graph, seed, blocks, extra):
        params = _params(graph, 0.6, 0.2, seed=seed)
        head, _ = run_download(params, blocks * SHOT_BLOCK, keep_states=False)
        longer, _ = run_download(params, blocks * SHOT_BLOCK + extra, keep_states=False)
        assert len(longer) == blocks * SHOT_BLOCK + extra
        for rec, ref in zip(longer, head):
            assert np.array_equal(rec.q, ref.q)
            assert np.array_equal(rec.gamma, ref.gamma)
            assert np.array_equal(rec.phi, ref.phi)
            assert rec.outcomes == ref.outcomes


def _assert_same_record(rec, ref):
    assert np.array_equal(rec.q, ref.q)
    assert np.array_equal(rec.phi, ref.phi)
    assert np.array_equal(rec.gamma, ref.gamma)
    assert rec.outcomes == ref.outcomes
    if ref.post_state is None:
        assert rec.post_state is None
    else:
        assert np.array_equal(rec.post_state.rho, ref.post_state.rho)


class TestColumnarRecords:
    """``run_download`` keeps its ``(shots, n)`` columns and builds a shot's
    record only when it is read; the registers are built in the call."""

    @pytest.mark.parametrize("keep_states", [False, True])
    def test_indices_and_slices_match_per_shot_reference(self, keep_states):
        params = _params(cycle_graph(4), 0.5, 0.3, seed=23)
        shots = 7
        records, _ = run_download(params, shots, keep_states)
        expected, _ = _per_shot_reference(params, shots, keep_states)
        assert isinstance(records, Sequence) and not isinstance(records, list)
        assert len(records) == shots
        for k in range(-shots, shots):
            _assert_same_record(records[k], expected[k])
        for index in (slice(None), slice(2, 5), slice(None, None, -1), slice(-3, None),
                      slice(1, 6, 2), slice(5, 1), slice(-100, 100)):
            got = records[index]
            assert isinstance(got, list) and len(got) == len(expected[index])
            for rec, ref in zip(got, expected[index]):
                _assert_same_record(rec, ref)
        for k in (shots, -shots - 1, 10**6):
            with pytest.raises(IndexError):
                records[k]
        with pytest.raises(TypeError):
            records[1.0]

    def test_records_are_read_only(self):
        records, _ = run_download(_params(path_graph(3), 0.5, 0.2, seed=2), 4, keep_states=False)
        with pytest.raises(TypeError):
            records[0] = records[1]
        for column in (records.q, records.kept, records.bits, records.phi, records.gamma):
            assert column.shape == (4, 3)
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] = column[1, 1]

    def test_registers_are_built_in_the_call(self, monkeypatch):
        calls = []
        build = protocol.register_from_outcomes

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(protocol, "register_from_outcomes", counted)
        shots = 6
        records, _ = run_download(_params(path_graph(3), 0.5, 0.2, seed=4), shots, keep_states=True)
        assert len(calls) == shots
        for k in range(shots):
            assert records[k].post_state is records[k].post_state
            assert records[k].post_state is records[k - shots].post_state
        assert all(a.post_state is records[k].post_state for k, a in enumerate(records))
        assert len(calls) == shots  # reading builds no register

    def test_statistics_run_builds_no_record(self, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(1)
            return DownloadRecord(*args, **kwargs)

        monkeypatch.setattr(protocol, "DownloadRecord", counted)
        records, _ = run_download(_params(grid2d_graph(3, 3), 0.5, 0.2, seed=5), 50, keep_states=False)
        assert not built
        records[-1]
        assert len(built) == 1  # the counter sees a record that is read

    def test_statistics_run_holds_only_its_columns(self):
        params = _params(grid2d_graph(10, 10), 1.15, 0.2, seed=13)
        shots = 40 * SHOT_BLOCK
        tracemalloc.start()
        try:
            records, summary = run_download(params, shots, keep_states=False)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.shots == len(records) == shots
        # q (8 bytes a qubit-shot), kept and bits (1 byte each): 1.25x q
        assert held <= 1.5 * records.q.nbytes
        # each block is decided right after its draws, so no whole-run
        # temporary (uniforms, l, the keep law's) exists: the peak is the
        # columns plus one block's work
        assert peak <= 1.6 * records.q.nbytes

    def test_oversized_run_refused_before_allocating(self):
        # q, kept and bits would hold 10 bytes a qubit-shot, 3 TB here
        params = _params(path_graph(3), 0.5, 0.2)
        for keep_states in (False, True):
            assert_refused_before_allocating(
                lambda: run_download(params, 10**11, keep_states), r"^shots \* n must be at most"
            )
        cap = protocol._MAX_QUBIT_SHOTS
        assert_refused_before_allocating(
            lambda: run_download(_params(Graph(1000, ()), 0.5, 0.2), cap // 1000 + 1, False),
            r"^shots \* n must be at most 100000000 qubit-shots",
        )


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
        assert sum_a.deletions_histogram == sum_b.deletions_histogram


@st.composite
def _sources_within_limit(draw):
    nbar = draw(st.floats(0.0, 1e6))
    # a small margin keeps r0 = r + log1p(2 nbar)/2 inside after round-off
    r_hi = R0_LIMIT - 0.5 * math.log1p(2.0 * nbar) - 1e-9
    return SqueezedThermalParams(draw(st.floats(-R0_LIMIT, r_hi)), nbar)


class TestSqueezingRange:
    """Every source that ``SqueezedThermalParams`` accepts runs the shot loop
    without a warning or an error, with and without states."""

    @settings(max_examples=60, deadline=None)
    @given(_sources_within_limit(), st.integers(0, 2**31 - 1))
    def test_shot_loop_is_warning_free(self, source, seed):
        params = ProtocolParams(path_graph(3), source, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with_states, sum_a = run_download(params, 4, keep_states=True)
            without, sum_b = run_download(params, 4, keep_states=False)
        assert sum_a.deletions_histogram == sum_b.deletions_histogram
        assert math.isnan(sum_a.mean_kept_fidelity) or 0.0 <= sum_a.mean_kept_fidelity <= 1.0
        for a, b in zip(with_states, without):
            assert np.all(np.isfinite(a.q)) and np.all(np.isfinite(a.phi))
            assert a.outcomes == b.outcomes
            assert abs(np.trace(a.post_state.rho).real - 1.0) < 1e-12


class TestDirectOracleDomain:
    """Over every graph to n = 8 and every source ``SqueezedThermalParams``
    accepts, the direct register agrees with the equivalent circuit or is
    refused cleanly, for sampled outcomes and for the same outcomes moved
    onto the phase-scale bound, up or down.  The bound keeps every outcome
    on a vertex with edges within about 4e4 of both peaks; only an isolated
    vertex takes any finite outcome."""

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(n_max=8), _sources_within_limit(), st.integers(0, 2**31 - 1))
    def test_agrees_or_refuses(self, graph, source, seed):
        params = ProtocolParams(graph, source)
        q = sample_outcomes(params, np.random.default_rng(seed))
        _assert_agreement_or_refusal(params, q)
        if graph.edges:
            _assert_agreement_or_refusal(params, _onto_the_bound(graph, q))

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(n_max=8), _sources_within_limit(), st.integers(0, 2**31 - 1))
    def test_register_is_exactly_hermitian(self, graph, source, seed):
        # stored with no float test: its projector is mirrored from the lower
        # triangle, and the damping and the trace are real
        params = ProtocolParams(graph, source)
        q = sample_outcomes(params, np.random.default_rng(seed))
        try:
            rho = downloaded_state_direct(params, q).rho
        except ValueError as exc:
            assert "DIRECT_PHASE_SCALE_MAX" in str(exc)
            return
        assert np.array_equal(rho, rho.conj().T)
        assert abs(rho.trace().real - 1.0) <= 8 * np.finfo(float).eps

    def test_log_imbalance_beyond_the_float_range(self):
        # at r = -352 an outcome moved onto the bound has |l| above float max:
        # it is a basis state, and no overflow warning is raised
        graph = Graph(7, ((5, 6),))
        params = ProtocolParams(graph, SqueezedThermalParams(-352.0, 0.0))
        q = _onto_the_bound(graph, sample_outcomes(params, np.random.default_rng(0)))
        assert np.isinf(log_imbalance(q[5], params.mixture().r0))
        _assert_agreement_or_refusal(params, q)

    @pytest.mark.parametrize("outcome", [1e17, -1e17])
    def test_far_tail_magnitudes_agree(self, outcome):
        # no edge, so no phase scale: the register is a basis state, which a
        # sum of (q - sqrt(pi) b)^2 over bits rounds to balanced
        params = _params(Graph(1), 1.0, 0.0)
        q = np.array([outcome])
        assert trace_distance(downloaded_state_direct(params, q),
                              downloaded_state_equivalent(params, q)) < 1e-10

    @pytest.mark.parametrize(
        "r, q", [(1.0, [1e300, 0.0]), (1.0, [1e17, 0.0]), (-27.0, [1.96e8, -1.0e-4])]
    )
    def test_far_tail_refused_on_an_edge(self, r, q):
        # |q|^T A |q| is 0, 0 and 3.9e4, but the phase multiplies q - sqrt(pi) b:
        # once sqrt(pi) b_0 rounds away, so does the CZ phase pi/2 b_0 b_1
        # (trace distance 0.98 at q = (1e300, 0) were it accepted)
        params = _params(Graph(2, ((0, 1),)), r, 0.0)
        q = np.array(q)
        assert _phase_scale(params.graph, q) > DIRECT_PHASE_SCALE_MAX
        assert_refused_before_allocating(
            lambda: downloaded_state_direct(params, q), match="DIRECT_PHASE_SCALE_MAX"
        )

    @pytest.mark.parametrize("outcome", [1e300, -1e300])
    def test_isolated_vertex_accepts_any_finite_outcome(self, outcome):
        # an isolated vertex does not enter the phase scale
        params = _params(Graph(3, ((0, 1),)), 1.0, 0.5)
        q = np.array([0.3, 1.2, outcome])
        direct = downloaded_state_direct(params, q)
        assert trace_distance(direct, downloaded_state_equivalent(params, q)) < 1e-10

    def test_overflowing_phase_scale_refused(self):
        # 1e308 + 1e308 overflows: the scale is inf (nan in |q|^T A |q|,
        # where the inf meets the zero outcome)
        params = _params(path_graph(3), 1.0, 0.0)
        q = np.array([1e308, 0.0, 1e308])
        assert _phase_scale(params.graph, q) == math.inf
        assert_refused_before_allocating(
            lambda: downloaded_state_direct(params, q), match="DIRECT_PHASE_SCALE_MAX"
        )


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


class TestRunRefusals:
    """``run_download`` refuses a non-integer shot count and, with
    ``keep_states=True``, registers above ``MAX_REGISTER_BYTES``, before
    it draws."""

    @settings(max_examples=40, deadline=None)
    @given(non_integers)
    def test_non_integer_shots(self, shots):
        params = _params(path_graph(3), 1.0, 0.0)
        for keep_states in (True, False):
            assert_refused_before_allocating(
                lambda: run_download(params, shots, keep_states), match="^shots must"
            )

    def test_register_budget(self):
        # 5 registers of 12 qubits hold 1.3 GB
        params = _params(path_graph(DEFAULT_MAX_QUBITS), 1.0, 0.0)
        assert 5 * 16 * 4**DEFAULT_MAX_QUBITS > MAX_REGISTER_BYTES
        assert_refused_before_allocating(lambda: run_download(params, 5), match="MAX_REGISTER_BYTES")
        records, _ = run_download(params, 5, keep_states=False)
        assert len(records) == 5

    def test_register_budget_is_inclusive(self):
        params = _params(path_graph(2), 1.0, 0.0)
        with mock.patch.object(protocol, "MAX_REGISTER_BYTES", 3 * 16 * 4**2):
            records, _ = run_download(params, 3)
            assert len(records) == 3
            with pytest.raises(ValueError, match="4 registers of 2 qubits would hold 1024 bytes"):
                run_download(params, 4)
        one_shot = _params(path_graph(9), 1.0, 0.0)  # the largest single-shot benchmark run
        assert run_download(one_shot, 1)[0][0].post_state.n == 9


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: downloaded_state_equivalent(_params(path_graph(3), 1.0, 0.0), np.zeros(2)),
         r"^expected 3 outcomes, got shape \(2,\)$"),
        (lambda: downloaded_state_equivalent(_params(path_graph(3), 1.0, 0.0), np.zeros((3, 1))),
         r"^expected 3 outcomes, got shape \(3, 1\)$"),
    ],
)
def test_refusals_name_their_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
