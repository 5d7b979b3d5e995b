"""Decorrelation planner: closed-form recipe, forward verification, networks."""

import dataclasses
import json
import math
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PLAN_CACHES,
    assert_refused_before_allocating,
    clear_plan_caches,
    dense_adjacency,
    graph_caches,
    planner_caches,
    random_orthogonal,
    small_graphs,
)
from cvdownload import cli, gaussian, graphs, planner, qubits
from cvdownload.gaussian import (
    SqueezedThermalParams,
    mode_diag_state,
    symplectic_eigenvalues,
    thermal_cvcs,
)
from cvdownload.graphs import (
    Graph,
    _grid_shape,
    a_squared_spectrum,
    complete_graph,
    cycle_graph,
    grid2d_graph,
    path_graph,
    random_graph,
    star_graph,
)
from cvdownload.planner import (
    MAX_PLAN_MODES,
    NETWORK_DTYPE,
    R_PRIME_LIMIT,
    VERIFY_TOL,
    NoiseParams,
    compose_network,
    givens_network,
    linearized_plan,
    plan,
    verify_plan,
)


@st.composite
def _networks(draw):
    """A recipe of up to 300 rotations on 2 to 12 modes, any angle in
    [-1000, 1000], and a sign layer of exact +-1."""
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    steps = draw(st.lists(st.tuples(pairs, st.floats(-1e3, 1e3)), max_size=300))
    network = np.array([(i, j, angle) for (i, j), angle in steps], NETWORK_DTYPE)
    return network, np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))


_eps = st.floats(0.0, 0.99)


def _basis(graph):
    """The eigenbasis ``kron(*factors)`` of ``A^2`` that a plan's network realizes."""
    return reduce(np.kron, planner._spectrum(graph)[1])


def _random_noise(rng, eps_hi=0.05, r_lo=0.3, r_hi=1.5):
    return NoiseParams(
        eps1=float(rng.uniform(0.0, eps_hi)),
        eps2=float(rng.uniform(0.0, eps_hi)),
        r_prime=float(rng.uniform(r_lo, r_hi)),
    )


class TestNoiseParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(eps1=-0.1, eps2=0.0, r_prime=1.0)
        with pytest.raises(ValueError):
            NoiseParams(eps1=0.0, eps2=1.0, r_prime=1.0)

    @pytest.mark.parametrize("r_prime", [356.0, -400.0, 1e6, -1e6, math.nan, math.inf, -math.inf])
    def test_refuses_r_prime_beyond_float_range(self, r_prime):
        # one comparison holds the domain: NaN and +-inf fail it too
        with pytest.raises(ValueError, match=repr(R_PRIME_LIMIT)):
            NoiseParams(0.01, 0.01, r_prime)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_limit_is_where_exp_leaves_float_range(self, sign):
        r_prime = sign * R_PRIME_LIMIT
        NoiseParams(0.01, 0.01, r_prime)
        assert 0.0 < math.exp(2.0 * r_prime) < math.inf
        assert 0.0 < math.exp(-2.0 * r_prime) < math.inf
        with pytest.raises(ValueError):
            NoiseParams(0.01, 0.01, math.nextafter(r_prime, sign * math.inf))

    @pytest.mark.parametrize("r_prime", [-25.0, -100.0, -R_PRIME_LIMIT])
    def test_negligible_squeezing_stays_physical(self, r_prime):
        # B1 = C1 + (1 - eps1) e^{2 r'} / 2 rounds to C1, yet
        # k = B1 - C1 = (1 - eps1) e^{2 r'} / 2 > 0 keeps g' = B1 / k finite
        p = plan(path_graph(3), NoiseParams(0.01, 0.01, r_prime))
        assert p.physical and p.violated is None
        assert 1.0 < p.g_prime < math.inf

    @pytest.mark.parametrize("r_prime", [-300.0, -R_PRIME_LIMIT, 300.0])
    def test_noiseless_extreme_r_prime_passes_through(self, r_prime):
        p = plan(path_graph(3), NoiseParams(0.0, 0.0, r_prime))
        assert p.physical
        assert abs(p.r_eff - r_prime) <= 1e-12 * abs(r_prime)

    def test_refuses_underflowing_gain(self):
        # (1 - eps1) e^{2 r'} / 2 = B1 - C1 underflows to 0, so g' would be infinite
        noise = NoiseParams(math.nextafter(1.0, 0.0), 0.01, -R_PRIME_LIMIT)
        with pytest.raises(ValueError, match="underflows to 0"):
            plan(path_graph(3), noise)

    @pytest.mark.parametrize("r_prime", [-346.0, -350.0, -R_PRIME_LIMIT])
    def test_refuses_overflowing_b2_and_gain(self, r_prime):
        # 2 C1^2 D_max / ((1 - eps1) e^{2 r'}) overflows B2 from r' = -346 on,
        # and g' = B1 / (B1 - C1) from r' = -350; r_eff was -inf there
        noise = NoiseParams(0.99, 0.99, r_prime)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="B2 = inf .* float range"):
                plan(complete_graph(7), noise)

    @pytest.mark.parametrize("eps2", [0.01, 0.3])
    def test_noisy_plan_at_the_limit_stays_finite(self, eps2):
        # 2 C1 delta (1 - eps1) e^{2 r'} exceeds the float range here
        p = plan(path_graph(3), NoiseParams(0.01, eps2, R_PRIME_LIMIT))
        assert p.mode_squeezing[0] == R_PRIME_LIMIT  # the D_max mode, delta = 0
        assert np.all(np.isfinite(p.mode_squeezing))
        assert np.all(np.isfinite(p.mode_thermal))
        assert math.isfinite(p.r_eff) and math.isfinite(p.nbar_eff)

    def test_noise_constants(self):
        noise = NoiseParams(eps1=0.08, eps2=0.03, r_prime=1.0)
        assert abs(noise.c1 - (0.04 + 0.03 / 0.97)) < 1e-15
        assert abs(noise.c2 - 0.04) < 1e-15


class TestPlanValues:
    def test_noiseless_limit(self):
        g = path_graph(3)
        p = plan(g, NoiseParams(0.0, 0.0, 1.0))
        assert p.c1 == 0.0 and p.c2 == 0.0
        assert p.g_prime == 1.0
        assert np.allclose(p.mode_squeezing, 1.0)
        assert np.allclose(p.mode_thermal, 0.0)
        assert abs(p.r_eff - 1.0) < 1e-12
        assert abs(p.nbar_eff) < 1e-12
        assert len(p.network) == 0 and p.network.dtype == NETWORK_DTYPE
        assert np.array_equal(compose_network(p.network, p.sign_layer), np.eye(3))
        assert p.physical

    def test_principal_mode_exact(self, rng):
        for _ in range(20):
            g = random_graph(int(rng.integers(2, 7)), 0.6, rng)
            noise = _random_noise(rng)
            p = plan(g, noise)
            assert abs(p.mode_squeezing[0] - noise.r_prime) < 1e-10
            assert abs(p.mode_thermal[0]) < 1e-10

    def test_mode_ordering(self, rng):
        # remaining modes never beat the principal mode's preparation
        for _ in range(20):
            g = random_graph(int(rng.integers(2, 7)), 0.6, rng)
            p = plan(g, _random_noise(rng))
            assert np.all(p.mode_squeezing <= p.mode_squeezing[0] + 1e-12)
            assert np.all(p.mode_thermal >= p.mode_thermal[0] - 1e-12)
            assert np.all(p.mode_thermal >= 0.0)

    def test_gain_at_least_one(self, rng):
        for _ in range(20):
            p = plan(random_graph(4, 0.5, rng), _random_noise(rng, eps_hi=0.2))
            assert p.g_prime >= 1.0

    def test_effective_params_consistent_with_b(self):
        g = complete_graph(3)
        noise = NoiseParams(0.02, 0.01, 0.8)
        p = plan(g, noise)
        nu = p.nbar_eff + 0.5
        assert abs(math.exp(2 * p.r_eff) * nu - p.b1) < 1e-12
        assert abs(math.exp(-2 * p.r_eff) * nu - p.b2) < 1e-12

    def test_thermalization_monotone_in_noise(self):
        g = path_graph(4)
        base = plan(g, NoiseParams(0.01, 0.01, 1.0)).nbar_eff
        more_loss = plan(g, NoiseParams(0.02, 0.01, 1.0)).nbar_eff
        more_detector = plan(g, NoiseParams(0.01, 0.02, 1.0)).nbar_eff
        assert more_loss > base
        assert more_detector > base

    def test_squeezing_shrinks_under_noise(self):
        g = cycle_graph(5)
        p = plan(g, NoiseParams(0.03, 0.02, 1.2))
        assert p.r_eff < 1.2

    def test_mode_states_physical(self, rng):
        for _ in range(10):
            g = random_graph(5, 0.5, rng)
            p = plan(g, _random_noise(rng))
            q_vars = np.exp(2.0 * p.mode_squeezing) * (p.mode_thermal + 0.5)
            p_vars = np.exp(-2.0 * p.mode_squeezing) * (p.mode_thermal + 0.5)
            nu = symplectic_eigenvalues(mode_diag_state(q_vars, p_vars))
            assert np.all(nu >= 0.5 - 1e-10)


class TestVerifyPlan:
    def test_noiseless_residual(self):
        g = path_graph(3)
        noise = NoiseParams(0.0, 0.0, 1.0)
        assert verify_plan(plan(g, noise), g, noise) < 1e-12

    def test_reference_case(self):
        g = path_graph(3)
        noise = NoiseParams(0.01, 0.01, 1.0)
        assert verify_plan(plan(g, noise), g, noise) < 1e-10

    def test_random_plans(self, rng):
        for _ in range(20):
            g = random_graph(int(rng.integers(1, 7)), 0.5, rng)
            noise = _random_noise(rng)
            p = plan(g, noise)
            assert p.physical
            assert verify_plan(p, g, noise) < 1e-9

    def test_perturbed_gain_detected(self):
        g = path_graph(3)
        noise = NoiseParams(0.01, 0.01, 1.0)
        p = plan(g, noise)
        broken = dataclasses.replace(p, g_prime=p.g_prime + 1e-3)
        assert verify_plan(broken, g, noise) > 1e-5

    @pytest.mark.parametrize(
        "eps, r_prime",
        [(0.01, 354.0), (0.9, 354.0), (0.99, 354.0), (0.9, -348.0), (0.99, -346.0)],
    )
    def test_refuses_replay_beyond_float_range(self, eps, r_prime):
        # the replay overflowed here with RuntimeWarnings; at r' = -346 B2
        # itself overflows, and plan refuses before verify_plan sees it
        g = complete_graph(7)
        noise = NoiseParams(eps, eps, r_prime)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float range|must be finite"):
                verify_plan(plan(g, noise), g, noise)

    @pytest.mark.parametrize("eps, r_prime", [(0.01, 352.0), (0.01, -354.0), (0.99, -340.0)])
    def test_replay_runs_inside_float_range(self, eps, r_prime):
        g = complete_graph(7)
        noise = NoiseParams(eps, eps, r_prime)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(verify_plan(plan(g, noise), g, noise))

    @settings(max_examples=200, deadline=None)
    @given(
        graph=small_graphs(),
        eps1=_eps,
        eps2=_eps,
        r_prime=st.floats(-R_PRIME_LIMIT, R_PRIME_LIMIT),
    )
    def test_replay_is_finite_or_refused(self, graph, eps1, eps2, r_prime):
        noise = NoiseParams(eps1, eps2, r_prime)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                residual = verify_plan(plan(graph, noise), graph, noise)
            except ValueError as exc:
                # plan's overflowing B2 or g', the replay's bound or the
                # target's R0_LIMIT: each names the float range
                assert "float range" in str(exc)
            else:
                assert math.isfinite(residual)

    def test_replay_memory_bound(self):
        # the replay holds a few n x n blocks per state and never a 2n x 2n
        # copy, CPHASE no dense adjacency, and the residual no dense target:
        # about 8.32 n^2 float64 at its peak
        g = grid2d_graph(20, 20)
        noise = NoiseParams(0.01, 0.02, 1.0)
        p = plan(g, noise)
        tracemalloc.start()
        try:
            residual = verify_plan(p, g, noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert residual < 1e-12
        assert peak <= 8.5 * g.n**2 * 8

    @settings(max_examples=300, deadline=None)
    @given(
        graph=st.one_of(
            small_graphs(n_max=14),
            st.integers(1, 14).map(star_graph),
            st.integers(1, 14).map(complete_graph),
        ),
        eps1=st.floats(0.0, 0.5, exclude_max=True),
        eps2=st.floats(0.0, 0.5, exclude_max=True),
        r_prime=st.floats(-3.0, 12.0),
    )
    @example(graph=Graph(1), eps1=0.1, eps2=0.2, r_prime=1.0)
    @example(graph=Graph(5), eps1=0.0, eps2=0.3, r_prime=-3.0)
    @example(graph=Graph(7, ((0, 1), (1, 2), (4, 5))), eps1=0.2, eps2=0.1, r_prime=12.0)
    @example(graph=star_graph(14), eps1=0.3, eps2=0.0, r_prime=2.0)
    @example(graph=complete_graph(14), eps1=0.49, eps2=0.49, r_prime=0.5)
    def test_residual_is_the_dense_targets_bit_for_bit(self, graph, eps1, eps2, r_prime):
        # the closed-form target, read off the patterns of A and A^2, is
        # thermal_cvcs entry for entry, so the residual is the one against
        # the dense target; star and complete graphs hold walk counts >= 4,
        # where count * B1 / 2 is not CPHASE's running sum
        noise = NoiseParams(eps1, eps2, r_prime)
        p = plan(graph, noise)
        source = SqueezedThermalParams(p.r_eff, p.nbar_eff)
        replays = []
        target_residual = planner._target_residual

        def keep_replay(state, graph, source):
            replays.append(state)
            return target_residual(state, graph, source)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(planner, "_target_residual", keep_replay)
            residual = verify_plan(p, graph, noise)
        (state,) = replays
        target = thermal_cvcs(graph, source)
        pairs = ((state.qq, target.qq), (state.qp, target.qp), (state.pp, target.pp))
        dense = max(float(np.abs(got - want).max()) for got, want in pairs)
        assert residual.hex() == dense.hex()
        assert target_residual(target, graph, source) == 0.0

    @pytest.mark.parametrize("entry", [(0, 0), (5, 5), (1, 2)])
    def test_target_an_ulp_off_changes_the_residual(self, entry):
        # K_12 has walk counts 10 and 11, where the running sum of B1 / 2
        # and the product count * B1 / 2 differ; (0, 0) and (5, 5) carry
        # B2, (1, 2) an A^2 entry off the diagonal
        g = complete_graph(12)
        source = SqueezedThermalParams(0.3, 0.1)
        target = thermal_cvcs(g, source)
        assert planner._target_residual(target, g, source) == 0.0
        i, j = entry
        pp = target.pp.copy()
        pp[i, j] = pp[j, i] = np.nextafter(pp[i, j], math.inf)
        off = gaussian._from_blocks(target.qq, target.qp, pp)
        assert planner._target_residual(off, g, source) == pp[i, j] - target.pp[i, j] > 0.0
        x = 0.5 * source.q_variance
        count = dense_adjacency(g) @ dense_adjacency(g)
        product = np.diag(np.full(g.n, source.p_variance)) + 2.0 * (count * x)
        assert not np.array_equal(product, target.pp)
        by_product = gaussian._from_blocks(target.qq, target.qp, product)
        assert planner._target_residual(by_product, g, source) > 0.0

    @pytest.mark.parametrize("bad", [-0.4, -0.6, math.nan])
    def test_negative_or_nan_occupation_refused(self, bad):
        # replayed as given: a clip to 0 verified these recipes at the honest
        # plan's residual
        g = grid2d_graph(3, 3)
        noise = NoiseParams(0.0, 0.0, 1.0)
        p = plan(g, noise)
        thermal = p.mode_thermal.copy()
        thermal[3] = bad
        broken = dataclasses.replace(p, mode_thermal=thermal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^mode_thermal\[3\] = .* is not an occupation >= 0$"):
                verify_plan(broken, g, noise)

    def test_unphysical_plan_rejected(self):
        g = path_graph(2)
        noise = NoiseParams(0.01, 0.01, 1.0)
        broken = dataclasses.replace(plan(g, noise), physical=False, violated="forced")
        with pytest.raises(ValueError):
            verify_plan(broken, g, noise)


def _angle_shifted(network, k):
    out = network.copy()
    out["angle"][k] += 0.3
    return out


def _modes_swapped(network, k):
    out = network.copy()
    out[k] = (out[k]["j"], out[k]["i"], out[k]["angle"])
    return out


class TestPrintedRecipe:
    """verify_plan replays the network and sign layer the plan prints, and
    memoises their composition on the recipe's bytes."""

    NOISE = NoiseParams(0.01, 0.02, 1.0)

    @pytest.mark.parametrize("graph", [grid2d_graph(4, 4), star_graph(9)])
    @pytest.mark.parametrize(
        "mutate",
        [_angle_shifted, lambda network, k: np.delete(network, k), _modes_swapped],
        ids=["angle", "dropped", "swapped"],
    )
    def test_mutated_network_fails_verification(self, graph, mutate):
        # a sign flip is left out: it scales a column of O by -1, which
        # commutes with the mode-diagonal input, so no replay can see it
        p = plan(graph, self.NOISE)
        assert verify_plan(p, graph, self.NOISE) < VERIFY_TOL
        broken = dataclasses.replace(p, network=mutate(p.network, 5))
        assert verify_plan(broken, graph, self.NOISE) >= VERIFY_TOL

    def test_refused_network_is_not_replayed(self):
        g = path_graph(3)
        p = plan(g, self.NOISE)
        broken = dataclasses.replace(p, network=np.array([(-1, 0, 0.4)], NETWORK_DTYPE))
        with pytest.raises(ValueError, match=r"^rotation 0 acts on modes \(-1, 0\)"):
            verify_plan(broken, g, self.NOISE)
        assert planner._composed_network.cache_info().currsize == 0

    def test_equal_bytes_hit_the_memo(self):
        g = grid2d_graph(4, 4)
        p = plan(g, self.NOISE)
        residual = verify_plan(p, g, self.NOISE)
        copy = dataclasses.replace(p, network=p.network.copy(), sign_layer=p.sign_layer.copy())
        assert copy.network.flags.writeable and copy.sign_layer.flags.writeable
        assert verify_plan(copy, g, self.NOISE).hex() == residual.hex()
        info = planner._composed_network.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        composed = planner._composed_network(copy.network.tobytes(), copy.sign_layer.tobytes())
        with pytest.raises(ValueError, match="read-only"):
            composed[0, 0] = 0.0

    @settings(max_examples=200, deadline=None)
    @given(_networks())
    def test_composed_network_is_orthogonal_to_rounding(self, recipe):
        # the replay takes compose_network's product of plane rotations and
        # exact signs as orthogonal with no float test: each rotation moves
        # O O^T off the identity by under an ulp (0.4 ulp per rotation at
        # worst over 2000 random networks of up to 300 rotations)
        network, signs = recipe
        o = compose_network(network, signs)
        dev = np.abs(o @ o.T - np.eye(len(signs))).max()
        assert dev <= (len(network) + len(signs)) * np.finfo(float).eps

    def test_replay_runs_no_orthogonality_test(self, monkeypatch):
        # givens_network checks the basis it is given; the replay checks nothing
        def refuse(o):
            raise AssertionError("the composed network was re-tested")

        g = grid2d_graph(4, 4)
        p = plan(g, self.NOISE)
        monkeypatch.setattr(planner, "_check_orthogonal", refuse)
        assert verify_plan(p, g, self.NOISE) < VERIFY_TOL

    def test_memo_is_bounded(self):
        size = planner._GRAPH_CACHE_SIZE
        for n in range(2, size + 5):
            g = path_graph(n)
            verify_plan(plan(g, self.NOISE), g, self.NOISE)
        info = planner._composed_network.cache_info()
        assert (info.maxsize, info.misses, info.currsize) == (size, size + 3, size)

    def test_fixture_clears_every_planner_cache(self):
        caches = planner_caches()
        assert {*PLAN_CACHES, planner._composed_network} <= set(caches)
        # the autouse fixture ran before this test ...
        assert all(cache.cache_info().currsize == 0 for cache in caches)
        g = star_graph(5)
        verify_plan(plan(g, self.NOISE), g, self.NOISE)
        assert all(cache.cache_info().currsize == 1 for cache in caches)
        # ... and what it runs empties every cache a plan and a replay fill
        clear_plan_caches()
        assert all(cache.cache_info().currsize == 0 for cache in caches)


def _exactly_feasible(p, noise):
    """The three input conditions in exact rational arithmetic.

    B1 and B2 are rebuilt from the plan's own inputs (eps1, C1, C2,
    e^{2 r'} and the spectrum of A^2, each taken exactly as the float it
    is), so the verdict carries no round-off of the planner's.
    """
    one = 1 - Fraction(noise.eps1)
    c1, c2 = Fraction(noise.c1), Fraction(noise.c2)
    e2rp = Fraction(math.exp(2.0 * noise.r_prime))
    d_vals = [Fraction(float(d)) for d in p.eig_a2]
    d_max = d_vals[0]
    b1 = c1 + one * e2rp / 2
    b2 = c2 + c1 * d_max + 2 * c1 * c1 * d_max / (one * e2rp) + one / (2 * e2rp)
    if not b1 > c1:
        return False
    for d in d_vals:
        margin = b2 - c2 - b1 * c1 * d / (b1 - c1)
        if not margin > 0 or (b1 - c1) * margin / one**2 < Fraction(1, 4):
            return False
    return True


class TestPhysicalByConstruction:
    @settings(max_examples=200, deadline=None)
    @given(
        graph=small_graphs(),
        eps1=_eps,
        eps2=_eps,
        r_prime=st.floats(-40.0, 40.0),
    )
    def test_exact_conditions_hold_and_replay_matches(self, graph, eps1, eps2, r_prime):
        noise = NoiseParams(eps1, eps2, r_prime)
        p = plan(graph, noise)
        assert _exactly_feasible(p, noise)
        assert p.physical and p.violated is None
        target = thermal_cvcs(graph, SqueezedThermalParams(p.r_eff, p.nbar_eff)).cov
        assert verify_plan(p, graph, noise) <= 1e-12 * np.abs(target).max()

    @settings(max_examples=200, deadline=None)
    @given(
        graph=small_graphs(),
        eps1=_eps,
        eps2=_eps,
        r_prime=st.one_of(
            st.sampled_from([-R_PRIME_LIMIT, R_PRIME_LIMIT]),
            st.floats(-R_PRIME_LIMIT, R_PRIME_LIMIT),
        ),
    )
    def test_whole_r_prime_range(self, graph, eps1, eps2, r_prime):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                p = plan(graph, NoiseParams(eps1, eps2, r_prime))
            except ValueError as exc:
                # only heavy noise at strongly negative r' overflows B2 or g'
                assert r_prime < 0.0 and "float range" in str(exc)
                return
        assert p.physical and p.violated is None
        values = [p.b2, p.g_prime, p.r_eff, p.nbar_eff, *p.mode_squeezing, *p.mode_thermal]
        assert all(math.isfinite(v) for v in values)
        assert p.g_prime >= 1.0
        assert p.nbar_eff >= 0.0


class TestLinearized:
    def test_noiseless_exact(self):
        lin = linearized_plan(path_graph(3), NoiseParams(0.0, 0.0, 0.9))
        assert abs(lin.e2r_eff - math.exp(1.8)) < 1e-12
        assert lin.nbar_eff == 0.0
        assert lin.g_prime == 1.0

    def test_small_noise_agreement(self):
        # complete graph n=2 has D_max = 1
        g = complete_graph(2)
        noise = NoiseParams(1e-3, 0.0, 0.5)
        exact = plan(g, noise)
        lin = linearized_plan(g, noise)
        assert abs(lin.nbar_eff - exact.nbar_eff) < 1e-5

    def test_quadratic_convergence(self):
        # first-order recipe: the residual against plan() must fall off
        # as eps^2; fit the slope per quantity over two decades
        g = complete_graph(3)
        eps_grid = (1e-2, 1e-3, 1e-4)
        errors = {"e2r": [], "nbar": [], "g": []}
        for eps in eps_grid:
            noise = NoiseParams(eps, eps, 1.0)
            exact = plan(g, noise)
            lin = linearized_plan(g, noise)
            errors["e2r"].append(abs(lin.e2r_eff - math.exp(2 * exact.r_eff)))
            errors["nbar"].append(abs(lin.nbar_eff - exact.nbar_eff))
            errors["g"].append(abs(lin.g_prime - exact.g_prime))
        for name, errs in errors.items():
            slope = math.log10(errs[0] / errs[-1]) / 2.0
            assert slope >= 1.8, (name, errs)

    def test_refuses_r_prime_where_e4rp_overflows(self):
        with pytest.raises(ValueError, match=r"float max / \(2 \(1 \+ D\)\)"):
            linearized_plan(path_graph(3), NoiseParams(0.0, 0.01, 200.0))
        # no graph, however sparse, is linearized above log(float max) / 4
        r_prime = math.nextafter(0.25 * math.log(sys.float_info.max), math.inf)
        with pytest.raises(ValueError, match="float range"):
            linearized_plan(Graph(1), NoiseParams(0.0, 0.0, r_prime))

    @settings(max_examples=200, deadline=None)
    @given(
        graph=small_graphs(),
        eps1=_eps,
        eps2=_eps,
        r_prime=st.floats(-R_PRIME_LIMIT, R_PRIME_LIMIT),
    )
    def test_whole_r_prime_range(self, graph, eps1, eps2, r_prime):
        noise = NoiseParams(eps1, eps2, r_prime)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                lin = linearized_plan(graph, noise)
            except ValueError as exc:
                # D e^{4 r'} above the bound, or e^{-2 r'} terms at strongly
                # negative r' with heavy noise
                assert "float range" in str(exc)
                return
        assert all(math.isfinite(v) for v in lin)

    def test_refuses_overflowing_gain(self):
        # g' = 1 + (eps1 + 2 eps2) e^{-2 r'} was inf here
        noise = NoiseParams(0.99, 0.99, -R_PRIME_LIMIT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="g_prime=inf.* float range"):
                linearized_plan(complete_graph(7), noise)
            lin = linearized_plan(complete_graph(7), NoiseParams(0.99, 0.99, -300.0))
        assert all(math.isfinite(v) for v in lin)

    @pytest.mark.parametrize("graph", [Graph(1), path_graph(3), complete_graph(7)])
    def test_finite_up_to_its_bound(self, graph):
        d = float(a_squared_spectrum(graph)[0][0])
        limit = 0.25 * math.log(sys.float_info.max / (2.0 * (1.0 + d)))
        for eps1, eps2 in [(0.0, 0.0), (0.0, 0.99), (0.99, 0.0), (0.99, 0.99)]:
            lin = linearized_plan(graph, NoiseParams(eps1, eps2, limit))
            assert all(math.isfinite(v) for v in lin)
            with pytest.raises(ValueError, match="float range"):
                linearized_plan(graph, NoiseParams(eps1, eps2, math.nextafter(limit, math.inf)))


def _rotation_matrix(n, i, j, angle):
    """Plane rotation by ``angle`` in the ``(i, j)`` coordinate plane."""
    r = np.eye(n)
    c, s = math.cos(angle), math.sin(angle)
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


def _dense_compose(n, network, signs):
    """Oracle for compose_network: the explicit product of n x n matrices."""
    out = np.diag(np.asarray(signs, dtype=float))
    for i, j, angle in network[::-1].tolist():
        out = _rotation_matrix(n, i, j, angle) @ out
    return out


def _sequential_givens(o):
    """Oracle for givens_network: the Reck elimination one rotation at a
    time, each rotation applied to the two rows it touches."""
    work = np.array(o, dtype=float)
    n = work.shape[0]
    rotations = []
    for col in range(n - 1):
        for row in range(col + 1, n):
            if abs(work[row, col]) < 1e-14:
                continue
            angle = math.atan2(work[row, col], work[col, col])
            c, s = math.cos(angle), math.sin(angle)
            pivot = work[col, col:].copy()
            work[col, col:] = c * pivot + s * work[row, col:]
            work[row, col:] = c * work[row, col:] - s * pivot
            work[row, col] = 0.0
            rotations.append((col, row, angle))
    return np.array(rotations, dtype=NETWORK_DTYPE), np.sign(np.diagonal(work))


def _test_orthogonal(kind, n, rng):
    if kind == "haar":
        return random_orthogonal(n, rng)
    o = np.eye(n)[rng.permutation(n)]
    if kind == "signed_permutation":
        o = o * rng.choice([-1.0, 1.0], size=n)
    return o


class TestGivensNetwork:
    def test_identity_empty(self):
        network, signs = givens_network(np.eye(4))
        assert network.shape == (0,) and network.dtype == NETWORK_DTYPE
        assert np.array_equal(signs, np.ones(4))
        assert np.array_equal(compose_network(network, signs), np.eye(4))

    def test_single_rotation(self):
        th = 0.6
        o = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        rotations, signs = givens_network(o)
        assert len(rotations) == 1
        recomposed = compose_network(rotations, signs)
        assert np.max(np.abs(recomposed - o)) < 1e-12

    def test_sign_layer(self):
        o = np.diag([1.0, -1.0, 1.0])
        rotations, signs = givens_network(o)
        assert len(rotations) == 0
        assert np.array_equal(signs, np.array([1.0, -1.0, 1.0]))

    def test_random_recomposition(self, rng):
        for n in (2, 3, 5, 8):
            o = random_orthogonal(n, rng)
            rotations, signs = givens_network(o)
            assert len(rotations) <= n * (n - 1) // 2
            recomposed = compose_network(rotations, signs)
            assert np.max(np.abs(recomposed - o)) < 1e-9

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["haar", "permutation", "signed_permutation"]),
        n=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_recomposition_property(self, kind, n, seed):
        o = _test_orthogonal(kind, n, np.random.default_rng(seed))
        rotations, signs = givens_network(o)
        assert len(rotations) <= n * (n - 1) // 2
        i, j = rotations["i"], rotations["j"]
        assert np.all((0 <= i) & (i < j) & (j < n))
        assert set(np.abs(signs)) <= {1.0}
        recomposed = compose_network(rotations, signs)
        assert np.max(np.abs(recomposed - o)) < 1e-9
        assert np.max(np.abs(recomposed - _dense_compose(n, rotations, signs))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["haar", "permutation", "signed_permutation"]),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_elimination(self, kind, n, seed):
        o = _test_orthogonal(kind, n, np.random.default_rng(seed))
        rotations, signs = givens_network(o)
        expected, expected_signs = _sequential_givens(o)
        assert np.array_equal(rotations["i"], expected["i"])
        assert np.array_equal(rotations["j"], expected["j"])
        assert np.all(np.abs(rotations["angle"] - expected["angle"]) <= 1e-12)
        assert np.array_equal(signs, expected_signs)
        assert np.max(np.abs(compose_network(rotations, signs) - o), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("side", [10, 12])
    def test_grid2d_spectrum_basis(self, side):
        _, o = a_squared_spectrum(grid2d_graph(side, side))
        n = o.shape[0]
        rotations, signs = givens_network(o)
        assert len(rotations) <= n * (n - 1) // 2
        assert np.max(np.abs(compose_network(rotations, signs) - o)) < 1e-9

    def test_compose_matches_dense_product(self, rng):
        # arbitrary plane pairs in either order, not only synthesis output
        for n in (2, 3, 6, 11):
            rotations = np.empty(3 * n, NETWORK_DTYPE)
            for k in range(3 * n):
                i, j = rng.choice(n, size=2, replace=False)
                rotations[k] = (i, j, rng.uniform(-math.pi, math.pi))
            signs = rng.choice([-1.0, 1.0], size=n)
            got = compose_network(rotations, signs)
            assert np.max(np.abs(got - _dense_compose(n, rotations, signs))) < 1e-12

    def test_compose_rejects_wrong_sign_count(self):
        # the sign layer sets the mode count: too few signs leave mode 2 out
        network = np.array([(0, 2, 0.4)], NETWORK_DTYPE)
        with pytest.raises(ValueError, match=r"^rotation 0 acts on modes \(0, 2\)"):
            compose_network(network, np.ones(2))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            givens_network(np.array([[1.0, 0.2], [0.0, 1.0]]))
        # a NaN used to pass as sign layer [1, nan, 1], an inf to warn in matmul
        for bad in (np.nan, np.inf, -np.inf):
            o = np.eye(3)
            o[1, 1] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^matrix is not orthogonal"):
                    givens_network(o)

    @pytest.mark.parametrize("rows, cols", [(8, 8), (10, 10), (12, 12), (9, 16), (20, 20)])
    def test_grid_rotation_ceiling(self, rows, cols):
        # one path network per row and one per column: n (r + c - 2) / 2
        # rotations, below the n^2 / 4 + n of the block-diagonal general path
        n = rows * cols
        p = plan(grid2d_graph(rows, cols), NoiseParams(0.02, 0.01, 1.0))
        assert len(p.network) == n * (rows + cols - 2) // 2 <= n * n / 4 + n
        if (rows, cols) == (12, 12):  # the rotation count the benchmark reads
            assert len(p.network) == 1584

    def test_balanced_bipartite_rotation_ceiling(self, rng):
        for _ in range(10):
            half = int(rng.integers(2, 13))
            density = float(rng.uniform(0.1, 0.9))
            edges = tuple(
                (i, half + j)
                for i in range(half)
                for j in range(half)
                if rng.random() < density
            )
            g = Graph(2 * half, edges)
            p = plan(g, _random_noise(rng))
            assert len(p.network) <= g.n * g.n / 4 + g.n

    def test_plan_network_matches_orthogonal(self, rng):
        g = random_graph(5, 0.6, rng)
        p = plan(g, NoiseParams(0.02, 0.01, 1.0))
        assert p.network.dtype == NETWORK_DTYPE and not p.network.dtype.hasobject
        assert p.network["angle"].dtype == np.float64
        recomposed = compose_network(p.network, p.sign_layer)
        assert np.max(np.abs(recomposed - _basis(g))) < 1e-9


class TestComposeRefusals:
    """compose_network refuses a recipe from outside before it allocates."""

    @pytest.mark.parametrize(
        "rotation, match",
        [
            ((-1, 0, 0.4), r"^rotation 0 acts on modes \(-1, 0\), not two distinct modes in \[0, 3\)$"),
            ((1, 1, 0.4), r"^rotation 0 acts on modes \(1, 1\)"),
            ((0, 5, 0.4), r"^rotation 0 acts on modes \(0, 5\)"),
            ((0, 1, math.nan), r"^rotation 0 has a non-finite angle nan$"),
            ((0, 1, math.inf), r"^rotation 0 has a non-finite angle inf$"),
        ],
        ids=["negative-mode", "same-mode", "mode-beyond-n", "nan-angle", "inf-angle"],
    )
    def test_bad_rotation(self, rotation, match):
        # (-1, 0) rotated mode 2, (1, 1) wrote 1.31 on the diagonal and
        # (0, 5) raised IndexError
        network = np.array([rotation, (0, 1, 0.2)], NETWORK_DTYPE)
        with pytest.raises(ValueError, match=match):
            compose_network(network, np.ones(3))

    @pytest.mark.parametrize(
        "network",
        [
            [(0, 1, 0.4)],
            np.array([[0.0, 1.0, 0.4]]),
            np.array([[(0, 1, 0.4)]], NETWORK_DTYPE),
            np.array([(0, 1, 0.4)], [("i", np.int32), ("j", np.int32), ("angle", np.float64)]),
        ],
        ids=["list", "float-array", "2-d", "other-dtype"],
    )
    def test_network_not_a_1d_network_dtype_array(self, network):
        with pytest.raises(ValueError, match="^network must be a 1-d array of NETWORK_DTYPE"):
            compose_network(network, np.ones(3))

    @pytest.mark.parametrize(
        "signs, match",
        [
            (np.ones((1, 3)), r"^signs must be 1-d, got shape \(1, 3\)$"),
            (np.array([1.0, 0.5, -1.0]), r"^sign 1 is 0.5, not \+1 or -1$"),
            (np.array([1.0, -1.0, math.nan]), r"^sign 2 is nan, not \+1 or -1$"),
        ],
        ids=["2-d", "half", "nan"],
    )
    def test_bad_signs(self, signs, match):
        with pytest.raises(ValueError, match=match):
            compose_network(np.array([(0, 1, 0.4)], NETWORK_DTYPE), signs)

    @pytest.mark.parametrize(
        "rotation, sign, match",
        [
            ((-1, 0, 0.4), 1.0, "^rotation 0 acts"),
            ((0, 0, 0.4), 1.0, "^rotation 0 acts"),
            ((0, 1, math.nan), 1.0, "^rotation 0 has"),
            ((0, 1, 0.4), 2.0, "^sign 1023 is 2.0"),
        ],
        ids=["negative-mode", "same-mode", "nan-angle", "sign-two"],
    )
    def test_refused_before_allocating(self, rotation, sign, match):
        n = 1024  # the product alone would take 8 MB
        network = np.array([rotation], NETWORK_DTYPE)
        signs = np.ones(n)
        signs[-1] = sign
        assert_refused_before_allocating(lambda: compose_network(network, signs), match)


def _relabelled(graph, rng):
    """``graph`` under a random relabelling that takes it off the grid path."""
    while True:
        perm = rng.permutation(graph.n)
        other = Graph(graph.n, tuple((perm[i], perm[j]) for i, j in graph.edges))
        if _grid_shape(other) is None:
            return other


class TestGridPlans:
    """Grids are planned from their two path factors; the general path on a
    relabelled copy of the same grid is the oracle."""

    def test_every_grid_up_to_12x12(self, rng):
        for rows in range(2, 13):
            for cols in range(2, 13):
                g, n = grid2d_graph(rows, cols), rows * cols
                noise = _random_noise(rng)
                p = plan(g, noise)
                assert len(p.network) == n * (rows + cols - 2) // 2
                basis = _basis(g)
                recomposed = compose_network(p.network, p.sign_layer)
                assert np.max(np.abs(recomposed - basis)) <= 1e-12
                a = dense_adjacency(g)
                a2_diag = basis.T @ (a @ a) @ basis
                assert np.max(np.abs(a2_diag - np.diag(p.eig_a2))) <= 1e-12 * p.eig_a2[0]
                assert p.eig_a2[0] == p.eig_a2.max()
                general = plan(_relabelled(g, rng), noise)
                d_sorted = np.sort(p.eig_a2)[::-1]
                assert np.max(np.abs(d_sorted - general.eig_a2)) <= 1e-12 * general.eig_a2[0]
                for field in ("g_prime", "r_eff", "nbar_eff"):
                    want = getattr(general, field)
                    assert abs(getattr(p, field) - want) <= 1e-12 * abs(want)
                target = thermal_cvcs(g, SqueezedThermalParams(p.r_eff, p.nbar_eff)).cov
                assert verify_plan(p, g, noise) <= 1e-12 * np.abs(target).max()

    def test_no_dense_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid plan ran a dense eigendecomposition")

        monkeypatch.setattr(graphs, "a_squared_spectrum", refuse)
        monkeypatch.setattr(planner, "a_squared_spectrum", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        g, noise = grid2d_graph(20, 20), NoiseParams(0.02, 0.01, 1.0)
        p = plan(g, noise)
        for cache in PLAN_CACHES:
            assert cache.cache_info().misses == 1  # planned here, not read back
        assert len(p.network) == 400 * 38 // 2
        assert verify_plan(p, g, noise) < VERIFY_TOL
        assert all(math.isfinite(v) for v in linearized_plan(g, noise))

    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 5), (8, 8), (12, 7), (30, 30)])
    def test_linearized_matches_spectrum(self, rows, cols, rng):
        g = grid2d_graph(rows, cols)
        noise = NoiseParams(0.02, 0.01, 1.0)
        d_max = float(a_squared_spectrum(g)[0][0])
        assert abs(plan(g, noise).eig_a2[0] - d_max) <= 1e-12 * d_max
        got = linearized_plan(g, noise)
        want = linearized_plan(_relabelled(g, rng), noise)
        for x, y in zip(got, want):
            assert abs(x - y) <= 1e-12 * abs(y)

    def test_noiseless_grid_network_is_trivial(self):
        g = grid2d_graph(3, 4)
        p = plan(g, NoiseParams(0.0, 0.0, 1.0))
        assert len(p.network) == 0 and np.array_equal(p.sign_layer, np.ones(12))
        assert np.array_equal(compose_network(p.network, p.sign_layer), np.eye(12))
        assert verify_plan(p, g, NoiseParams(0.0, 0.0, 1.0)) < 1e-12


def _plan_bits(p):
    """Every field of a plan, arrays as (dtype, shape, bytes), floats by repr."""
    return {
        f.name: (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)
        for f in dataclasses.fields(p)
        for v in [getattr(p, f.name)]
    }


def _counting(counts, name, func):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)

    return wrapper


class TestGraphCache:
    """The graph half of a plan (spectrum, basis, network) is computed once
    per graph and kept in bounded caches; plans share it read-only."""

    NOISES = (
        NoiseParams(0.0, 0.0, 1.0),
        NoiseParams(0.02, 0.01, 1.0),
        NoiseParams(0.0, 0.0, -0.5),
        NoiseParams(0.01, 0.03, 0.7),
        NoiseParams(0.0, 0.0, 1.0),
    )

    @pytest.mark.parametrize("graph", [grid2d_graph(3, 4), star_graph(7), complete_graph(5)])
    def test_plans_do_not_depend_on_cache_order(self, graph):
        cold = []
        for noise in self.NOISES:
            clear_plan_caches()
            cold.append(_plan_bits(plan(graph, noise)))
        clear_plan_caches()
        for order in (range(5), reversed(range(5)), [1, 0, 1, 2, 3, 0]):
            for k in order:
                assert _plan_bits(plan(graph, self.NOISES[k])) == cold[k]
        for cache in PLAN_CACHES:
            info = cache.cache_info()
            assert (info.misses, info.currsize) == (1, 1)

    @pytest.mark.parametrize("graph", [grid2d_graph(3, 4), star_graph(7)])
    def test_plan_arrays_are_fresh_or_read_only(self, graph):
        want = {noise: _plan_bits(plan(graph, noise)) for noise in self.NOISES}
        for noise in self.NOISES:
            p = plan(graph, noise)
            for f in dataclasses.fields(p):
                array = getattr(p, f.name)
                if not isinstance(array, np.ndarray):
                    continue
                if array.flags.writeable:
                    array[...] = np.zeros((), array.dtype)
                elif array.size:
                    with pytest.raises(ValueError, match="read-only"):
                        array[:1] = np.zeros((), array.dtype)
            if noise.c1:  # the graph half, shared between plans
                for name in ("eig_a2", "network", "sign_layer"):
                    assert not getattr(p, name).flags.writeable
            for later in self.NOISES:
                assert _plan_bits(plan(graph, later)) == want[later]

    @pytest.mark.parametrize("graph", [grid2d_graph(3, 4), star_graph(7)])
    def test_every_cached_graph_array_is_read_only(self, graph):
        # each is shared by every caller of an equal graph
        op = graphs._adjacency_operator(graph)
        assert graphs._adjacency_operator(Graph(graph.n, graph.edges)) is op
        d_vals, factors = planner._spectrum(graph)
        square = graphs._adjacency_square(graph)
        assert graphs._adjacency_square(Graph(graph.n, graph.edges)) is square
        cached = [graph._edge_array, op.data, op.indices, op.indptr, square.data,
                  square.indices, square.indptr, qubits.graph_phases(graph), d_vals, *factors,
                  *planner._passive_network(graph)]
        for array in cached:
            assert array.size
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0

    def test_cache_is_bounded(self):
        size = planner._GRAPH_CACHE_SIZE
        for n in range(2, size + 5):
            plan(path_graph(n), NoiseParams(0.01, 0.01, 1.0))
        for cache in PLAN_CACHES:
            info = cache.cache_info()
            assert (info.maxsize, info.misses, info.currsize) == (size, size + 3, size)

    def test_every_graph_cache_starts_empty_and_shares_one_size(self):
        caches = graph_caches()
        assert {graphs._adjacency_operator, graphs._adjacency_square, qubits.graph_phases,
                *planner_caches()} == set(caches)
        assert len(caches) == 6
        for cache in caches:
            info = cache.cache_info()
            assert (info.maxsize, info.currsize) == (graphs._GRAPH_CACHE_SIZE, 0)

    def test_only_noisy_plans_synthesise(self, monkeypatch):
        # a noiseless plan and linearized_plan read only the spectrum
        counts = Counter()
        monkeypatch.setattr(
            planner, "givens_network",
            _counting(counts, "givens_network", planner.givens_network),
        )
        g = star_graph(20)
        plan(g, NoiseParams(0.0, 0.0, 1.0))
        linearized_plan(g, NoiseParams(0.01, 0.01, 1.0))
        assert counts == {}
        plan(g, NoiseParams(0.01, 0.0, 1.0))
        plan(g, NoiseParams(0.0, 0.01, 1.0))
        assert counts == {"givens_network": 1}

    def test_sweep_synthesises_once(self, monkeypatch, capsys):
        counts = Counter()
        for name in ("a_squared_spectrum", "givens_network"):
            monkeypatch.setattr(planner, name, _counting(counts, name, getattr(planner, name)))
        assert cli.main([
            "sweep", "--graph", "star:200", "--eps1", "0.01,0.02,0.03",
            "--eps2", "0.005,0.01,0.02", "--r-prime", "0.5,1.0,1.5",
        ]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if line[:1].isdigit()]
        assert len(rows) == 27
        assert counts == {"a_squared_spectrum": 1, "givens_network": 1}

    def test_plan_command_computes_the_spectrum_once(self, monkeypatch, capsys):
        # plan and its verification from one spectrum
        counts = Counter()
        monkeypatch.setattr(
            planner, "a_squared_spectrum",
            _counting(counts, "a_squared_spectrum", planner.a_squared_spectrum),
        )
        assert cli.main(["plan", "--graph", "star:9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"meta", "plan", "verification"}
        assert counts == {"a_squared_spectrum": 1}


class TestPlanSerialization:
    def test_json_fields(self):
        # the three written columns alone rebuild the eigenbasis they realize,
        # on the general path and on a grid
        for graph in (path_graph(3), star_graph(5), grid2d_graph(3, 4)):
            p = plan(graph, NoiseParams(0.01, 0.02, 1.1))
            doc = json.loads(cli._json_text(p))
            assert set(doc) == {field.name for field in dataclasses.fields(p)}
            assert set(doc["network"]) == {"i", "j", "angle"}
            columns = [doc["network"][name] for name in NETWORK_DTYPE.names]
            network = np.array(list(zip(*columns)), NETWORK_DTYPE)
            assert len(network) == len(p.network) > 0
            recomposed = compose_network(network, doc["sign_layer"])
            assert np.max(np.abs(recomposed - _basis(graph))) < 1e-9


class TestModeCap:
    """``plan``, ``linearized_plan`` and ``verify_plan`` refuse a graph above
    ``MAX_PLAN_MODES`` before any n x n or network array exists."""

    def test_refused_before_allocating(self):
        # a relabelled grid2d:30x30 takes the general path and stays accepted
        assert MAX_PLAN_MODES >= grid2d_graph(30, 30).n
        big = Graph(MAX_PLAN_MODES + 1)
        noise = NoiseParams(0.01, 0.01, 1.0)
        small = plan(path_graph(3), noise)
        for call in (
            lambda: plan(big, noise),
            lambda: linearized_plan(big, noise),
            lambda: verify_plan(small, big, noise),
        ):
            assert_refused_before_allocating(call, match="MAX_PLAN_MODES")

    def test_cap_is_inclusive(self, monkeypatch):
        noise = NoiseParams(0.01, 0.01, 1.0)
        monkeypatch.setattr(planner, "MAX_PLAN_MODES", 4)
        recipe = plan(path_graph(4), noise)
        assert verify_plan(recipe, path_graph(4), noise) < VERIFY_TOL
        with pytest.raises(ValueError, match="at most MAX_PLAN_MODES = 4 modes, got a graph of 5"):
            plan(path_graph(5), noise)

    def test_cli_exits_cleanly(self, capsys):
        assert cli.main(["plan", "--graph", "grid2d:100x100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cvdownload plan: the planner takes at most")


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: givens_network(np.eye(3)[:2]), r"^expected a square matrix, got \(2, 3\)$"),
        (lambda: givens_network(np.eye(3)[:, :2]), r"^expected a square matrix, got \(3, 2\)$"),
    ],
)
def test_refusals_name_their_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
