"""Discretized-quadrature oracle for the hybrid download circuit."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import assert_refused_before_allocating, non_integers
from hypothesis import given, settings
from scipy import stats

from cvdownload.error_model import SQRT_PI, qubit_given_outcome, squeezed_vacuum_psi
from cvdownload.gaussian import R0_LIMIT, SqueezedThermalParams
from cvdownload.graphs import path_graph
from cvdownload.grid import (
    BOUNDARY_MASS_TOL,
    HybridGridState,
    apply_cd_grid,
    apply_cphase_grid,
    make_grid_state,
    measure_q_grid,
    mode_marginal,
    required_length,
    total_mass,
)
from cvdownload.protocol import ProtocolParams, downloaded_state_direct
from cvdownload.qubits import QubitPureState, apply_rz, fidelity, trace_distance


def _mixture_cdf(x, r0):
    sigma = math.exp(r0) / math.sqrt(2.0)
    return 0.5 * (stats.norm.cdf(x, 0.0, sigma) + stats.norm.cdf(x, SQRT_PI, sigma))


def _one_mode_pipeline(r0, k):
    state = make_grid_state(r0, 1, k=k)
    return apply_cd_grid(state, 0)


# The qubit-last layout amps[g_1, ..., g_m, b] that the plane layout
# replaced, with its own formulas, kept as a reference for the module.


def _ref_make(r0, modes, k):
    length = required_length(r0)
    dq = SQRT_PI / k
    grid = -length + dq * np.arange(int(math.ceil(2.0 * length / dq)))
    psi = squeezed_vacuum_psi(grid, r0).astype(complex)
    mode_amps = psi if modes == 1 else np.multiply.outer(psi, psi)
    amps = np.repeat(mode_amps[..., None], 2**modes, axis=-1) * 2 ** (-modes / 2)
    amps /= math.sqrt(np.sum(np.abs(amps) ** 2) * dq**modes)
    return HybridGridState(modes, k, grid, amps)


def _ref_cphase(st):
    st.amps *= np.exp(1j * np.multiply.outer(st.grid, st.grid))[..., None]


def _ref_cd(st, mode):
    k = st.k
    moved = np.moveaxis(st.amps, mode, 0)
    bit_one = [b for b in range(2**st.modes) if (b >> mode) & 1]
    mass = sum(float(np.sum(np.abs(moved[-k:, ..., b]) ** 2)) for b in bit_one)
    if mass * st.dq**st.modes >= BOUNDARY_MASS_TOL:
        raise ValueError("grid edge")
    for b in bit_one:
        shifted = np.zeros_like(moved[..., b])
        shifted[k:] = moved[:-k, ..., b]
        moved[..., b] = shifted


def _ref_measure(st, rng):
    weights = (np.abs(st.amps) ** 2).sum(axis=-1).ravel()
    cdf = np.cumsum(weights / weights.sum())
    flat_index = min(int(np.searchsorted(cdf, rng.random(), side="right")), len(cdf) - 1)
    indices = np.unravel_index(flat_index, st.amps.shape[: st.modes])
    return st.grid[np.array(indices)], QubitPureState(st.modes, st.amps[indices], normalize=True)


def _both_pipelines(r0, modes, k):
    """New and reference states after make, CPHASE (two modes) and one CD
    per mode."""
    new, ref = make_grid_state(r0, modes, k=k), _ref_make(r0, modes, k)
    if modes == 2:
        apply_cphase_grid(new)
        _ref_cphase(ref)
    for mode in range(modes):
        apply_cd_grid(new, mode)
        _ref_cd(ref, mode)
    return new, ref


def _refusal_step(make, cd, r0, modes, mode):
    """Number of displacements of ``mode`` accepted before the edge refusal."""
    st = make(r0, modes, 16)
    for step in range(20):
        try:
            cd(st, mode)
        except ValueError as err:
            assert "grid edge" in str(err)
            return step
    raise AssertionError("the boundary guard never tripped")


def _memmove_make(r0, modes, k):
    """A made state on a writable copy of its amplitudes."""
    st = make_grid_state(r0, modes, k=k)
    return HybridGridState(modes, k, st.grid, st.amps.copy())


def _memmove_cd(st, mode):
    """The one-dimensional overlapping shift that the block copies replaced."""
    k = st.k
    planes = [st.amps[b] for b in range(2**st.modes) if (b >> mode) & 1]
    mass = sum(float(np.sum(np.abs(np.moveaxis(p, mode, 0)[-k:]) ** 2)) for p in planes)
    if mass * st.dq**st.modes >= BOUNDARY_MASS_TOL:
        raise ValueError("grid edge")
    step = k * st.cells ** (st.modes - 1 - mode)
    for p in planes:
        flat = p.reshape(-1)
        flat[step:] = flat[:-step]
        np.moveaxis(p, mode, 0)[:k] = 0.0


def _draws(st, seed, count):
    rng = np.random.default_rng(seed)
    return [measure_q_grid(st, rng) for _ in range(count)]


def _same_draws(got, want):
    for (q_got, reg_got), (q_want, reg_want) in zip(got, want, strict=True):
        assert np.array_equal(q_got, q_want)
        assert reg_got.amps.tobytes() == reg_want.amps.tobytes()


def _traced_peak(call):
    """``call()`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestInitialization:
    def test_norm_one(self):
        for modes in (1, 2):
            st = make_grid_state(0.0, modes, k=16)
            assert abs(total_mass(st) - 1.0) < 1e-12

    def test_second_moment(self):
        for r0 in (0.0, 0.8):
            st = make_grid_state(r0, 1, k=32)
            prob = np.abs(st.amps[0]) ** 2 + np.abs(st.amps[1]) ** 2
            prob *= st.dq
            second = float(np.sum(prob * st.grid**2))
            assert abs(second - math.exp(2 * r0) / 2.0) < 1e-4

    def test_qubits_start_in_plus(self):
        st = make_grid_state(0.5, 2, k=16)
        # all four bitstring components identical at every grid point
        for b in range(1, 4):
            assert np.allclose(st.amps[b], st.amps[0])

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            make_grid_state(0.0, 1, k=15)

    def test_rejects_three_modes(self):
        with pytest.raises(ValueError):
            make_grid_state(0.0, 3, k=16)

    @pytest.mark.parametrize("r0, modes, k", [
        (3.0, 2, 64), (5.0, 2, 64), (12.0, 1, 16),  # 312M, 1.7e10, 35M amplitudes > 4**12
        (708.0, 1, 16), (710.0, 1, 16), (math.inf, 1, 16), (math.nan, 1, 16),
        (-400.0, 1, 16), (-math.inf, 1, 16),  # beyond +-R0_LIMIT
        (-30.0, 1, 16), (-30.0, 1, 64),  # narrower than a cell: no mass on the grid
        (-10.0, 2, 64),  # one mode's mass is 0 before the cells^2 product is built
    ])
    def test_refuses_above_the_dense_budget_before_allocating(self, r0, modes, k):
        if not abs(r0) <= R0_LIMIT:
            reason = "R0_LIMIT"
        else:
            reason = "DEFAULT_MAX_QUBITS" if r0 > 0 else "puts mass 0.0 on the grid"
        assert_refused_before_allocating(
            lambda: make_grid_state(r0, modes, k=k), match=f"^r0 = {re.escape(repr(r0))} .*{reason}"
        )

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
        assert np.allclose(st.amps[0], before[0])
        assert np.allclose(st.amps[1, st.k :], before[1, : -st.k])

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

    @pytest.mark.parametrize(
        "modes, mode, k", [(1, 0, 16), (1, 0, 64), (2, 0, 16), (2, 1, 16), (2, 0, 64), (2, 1, 64)]
    )
    def test_cd_bit_identical_to_the_flat_memmove(self, modes, mode, k):
        new, old = make_grid_state(0.5, modes, k=k), _memmove_make(0.5, modes, k)
        if modes == 2:
            apply_cphase_grid(new)
            apply_cphase_grid(old)
        for _ in range(20):
            try:
                _memmove_cd(old, mode)
            except ValueError:
                with pytest.raises(ValueError, match="grid edge"):
                    apply_cd_grid(new, mode)
                return
            apply_cd_grid(new, mode)
            assert np.array_equal(new.amps.view(np.uint64), old.amps.view(np.uint64))
        raise AssertionError("the boundary guard never tripped")

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

    def test_measurement_leaves_the_state_unchanged(self):
        st = make_grid_state(0.6, 2, k=16)
        apply_cphase_grid(st)
        apply_cd_grid(st, 0)
        before = st.amps.copy()
        rng = np.random.default_rng(4)
        for _ in range(5):
            measure_q_grid(st, rng)
        assert np.array_equal(st.amps.view(np.uint64), before.view(np.uint64))

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


class TestSlabTable:
    """The measurement's slab table is kept per prepared state, until a
    gate writes."""

    def test_draws_between_gates_match_a_fresh_state(self):
        # the displacement of mode 0 moves mass between the slabs of the
        # table, so a stale table would draw from the wrong slabs
        def prepared(*modes):
            st = make_grid_state(0.6, 2, k=16)
            apply_cphase_grid(st)
            for mode in modes:
                apply_cd_grid(st, mode)
            return st

        st = prepared(1)
        _same_draws(_draws(st, 11, 5), _draws(prepared(1), 11, 5))
        apply_cd_grid(st, 0)
        _same_draws(_draws(st, 12, 5), _draws(prepared(1, 0), 12, 5))

    def test_outside_writes_raise(self):
        st = make_grid_state(0.0, 2, k=16)
        _draws(st, 1, 2)
        apply_cd_grid(st, 0)
        with pytest.raises(ValueError, match="read-only"):
            st.amps[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            st.amps *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            st.amps[1][0] = 1.0

    def test_writable_hand_built_state_is_reread(self):
        made = make_grid_state(0.0, 1, k=16)
        st = HybridGridState(1, 16, made.grid, made.amps.copy())
        middle = st.grid[st.cells // 2]
        first = _draws(st, 5, 20)
        st.amps[:, : st.cells // 2] = 0.0  # all mass at q >= middle
        second = _draws(st, 5, 20)
        _same_draws(second, _draws(HybridGridState(1, 16, made.grid, st.amps.copy()), 5, 20))
        assert all(q[0] >= middle for q, _ in second)
        assert any(q[0] < middle for q, _ in first)

    def test_replaced_array_is_reread(self):
        st = make_grid_state(0.0, 1, k=16)
        _draws(st, 5, 1)
        amps = st.amps.copy()
        amps[:, : st.cells // 2] = 0.0
        amps.flags.writeable = False
        st.amps = amps
        assert all(q[0] >= st.grid[st.cells // 2] for q, _ in _draws(st, 5, 20))


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


class TestAgainstQubitLastLayout:
    def test_pipeline_amplitudes_match_after_transpose(self):
        new, ref = make_grid_state(0.6, 2, k=64), _ref_make(0.6, 2, 64)
        steps = (
            (lambda: None, lambda: None),
            (lambda: apply_cphase_grid(new), lambda: _ref_cphase(ref)),
            (lambda: apply_cd_grid(new, 0), lambda: _ref_cd(ref, 0)),
            (lambda: apply_cd_grid(new, 1), lambda: _ref_cd(ref, 1)),
        )
        for step_new, step_ref in steps:
            step_new()
            step_ref()
            assert np.array_equal(new.grid, ref.grid)
            assert np.max(np.abs(new.amps - np.moveaxis(ref.amps, -1, 0))) < 1e-14

    def test_seeded_outcomes_identical(self):
        # 1000 draws on one mode and 20 on the two-mode pipeline, at k=64
        for r0, modes, draws in ((0.8, 1, 1000), (0.6, 2, 20)):
            new, ref = _both_pipelines(r0, modes, 64)
            rng_new, rng_ref = np.random.default_rng(99), np.random.default_rng(99)
            for _ in range(draws):
                q_new, reg_new = measure_q_grid(new, rng_new)
                q_ref, reg_ref = _ref_measure(ref, rng_ref)
                assert np.array_equal(q_new, q_ref)
                assert np.max(np.abs(reg_new.amps - reg_ref.amps)) < 1e-14

    @pytest.mark.parametrize(
        "r0, modes, mode", [(0.0, 1, 0), (-0.5, 1, 0), (0.5, 2, 0), (0.5, 2, 1), (1.2, 2, 1)]
    )
    def test_boundary_refusal_on_the_same_step(self, r0, modes, mode):
        new = _refusal_step(make_grid_state, apply_cd_grid, r0, modes, mode)
        assert new == _refusal_step(_ref_make, _ref_cd, r0, modes, mode)


class TestAllocation:
    """Temporary peak of each operation on the two-mode k=64 state, in
    planes (one bitstring component, ``amps.nbytes / 2**modes``)."""

    def test_temporary_peaks(self):
        st, peak = _traced_peak(lambda: make_grid_state(0.6, 2, k=64))
        plane = st.amps.nbytes / 2**st.modes
        planes = {"make": (peak - st.amps.nbytes) / plane}
        calls = {
            "cphase": lambda: apply_cphase_grid(st),
            "cd 0": lambda: apply_cd_grid(st, 0),
            "cd 1": lambda: apply_cd_grid(st, 1),
            "measure": lambda: measure_q_grid(st, np.random.default_rng(1)),
            "measure again": lambda: measure_q_grid(st, np.random.default_rng(2)),
            "total_mass": lambda: total_mass(st),
        }
        for name, call in calls.items():
            planes[name] = _traced_peak(call)[1] / plane
        bounds = {
            "make": 2.0, "cphase": 1.5, "cd 0": 0.1, "cd 1": 0.01,
            "measure": 0.01, "measure again": 0.01, "total_mass": 0.01,
        }
        over = {name: planes[name] for name in bounds if planes[name] > bounds[name]}
        assert not over, f"temporary peaks in planes above {bounds}: {over}"


@settings(max_examples=40, deadline=None)
@given(non_integers)
def test_non_integer_sizes_refused(value):
    assert_refused_before_allocating(lambda: make_grid_state(0.5, 1, k=value), match="^k must")
    assert_refused_before_allocating(lambda: make_grid_state(0.5, value), match="^grid simulator")


@pytest.mark.parametrize(
    "modes, mode, match",
    [
        (1, 1, r"^mode 1 out of range for 1 modes$"),
        (1, -1, r"^mode -1 out of range for 1 modes$"),
        (2, 2, r"^mode 2 out of range for 2 modes$"),
    ],
)
def test_refusals_name_their_input(modes, mode, match):
    state = make_grid_state(0.5, modes, k=16)
    with pytest.raises(ValueError, match=match):
        mode_marginal(state, mode)
