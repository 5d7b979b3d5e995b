"""Decorrelation planner: closed-form recipe, forward verification, networks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthogonal
from cvdownload.gaussian import symplectic_eigenvalues, mode_diag_state
from cvdownload.graphs import (
    a_squared_spectrum,
    complete_graph,
    cycle_graph,
    grid2d_graph,
    path_graph,
    random_graph,
)
from cvdownload.planner import (
    _PHYSICALITY_TOL,
    R_PRIME_LIMIT,
    GivensRotation,
    NoiseParams,
    _physicality,
    compose_network,
    givens_network,
    linearized_plan,
    plan,
    verify_plan,
)


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

    @pytest.mark.parametrize("r_prime", [356.0, -400.0, 1e6, -1e6])
    def test_refuses_r_prime_beyond_float_range(self, r_prime):
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
    def test_negligible_squeezing_is_unphysical_not_an_error(self, r_prime):
        # B1 = C1 + (1 - eps1) e^{2 r'} / 2 rounds to C1
        p = plan(path_graph(3), NoiseParams(0.01, 0.01, r_prime))
        assert not p.physical
        assert p.violated == "B1 > C1"
        assert p.g_prime == math.inf

    @pytest.mark.parametrize("r_prime", [-300.0, -R_PRIME_LIMIT, 300.0])
    def test_noiseless_extreme_r_prime_passes_through(self, r_prime):
        p = plan(path_graph(3), NoiseParams(0.0, 0.0, r_prime))
        assert p.physical
        assert abs(p.r_eff - r_prime) <= 1e-12 * abs(r_prime)

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
        assert p.network == ()
        assert np.array_equal(p.orthogonal, np.eye(3))
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

    def test_unphysical_plan_rejected(self):
        g = path_graph(2)
        noise = NoiseParams(0.01, 0.01, 1.0)
        broken = dataclasses.replace(plan(g, noise), physical=False, violated="forced")
        with pytest.raises(ValueError):
            verify_plan(broken, g, noise)


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

    def test_degree_bound_variant(self):
        # path n=3: D_max = 2 but d^2 = 4, so the degree-bound form is
        # more pessimistic about thermalization.
        g = path_graph(3)
        noise = NoiseParams(0.01, 0.01, 0.8)
        spectral = linearized_plan(g, noise)
        degree = linearized_plan(g, noise, use_degree_bound=True)
        assert degree.nbar_eff > spectral.nbar_eff
        # on a cycle every vertex has degree 2 and D_max = 4: identical
        g2 = cycle_graph(5)
        a = linearized_plan(g2, noise)
        b = linearized_plan(g2, noise, use_degree_bound=True)
        assert abs(a.nbar_eff - b.nbar_eff) < 1e-15


def _physicality_loop(b1, b2, c1, c2, eps1, d_vals):
    """Reference: check the eigenvalues one at a time, stop at the first failure."""
    if b1 - c1 <= 0.0:
        return False, "B1 > C1"
    for d in d_vals:
        margin = b2 - c2 - (b1 * c1 / (b1 - c1)) * d
        if margin <= 0.0:
            return False, "B2 > C2 + B1 C1 D / (B1 - C1)"
        lhs = (b1 - c1) * margin / (1.0 - eps1) ** 2
        if lhs < 0.25 - _PHYSICALITY_TOL:
            return False, "input purity bound"
    return True, None


_maybe_nan = st.one_of(st.floats(-0.5, 3.0), st.floats(0.0, 10.0), st.just(math.nan))


class TestPhysicality:
    @settings(max_examples=300, deadline=None)
    @given(
        b1=_maybe_nan,
        b2=_maybe_nan,
        c1=_maybe_nan,
        c2=_maybe_nan,
        eps1=st.floats(0.0, 0.99),
        d_vals=st.lists(_maybe_nan, max_size=6),
    )
    def test_matches_loop_on_arbitrary_inputs(self, b1, b2, c1, c2, eps1, d_vals):
        d_vals = np.array(d_vals, dtype=float)
        with np.errstate(all="ignore"):
            expected = _physicality_loop(b1, b2, c1, c2, eps1, d_vals)
            assert _physicality(b1, b2, c1, c2, eps1, d_vals) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        scales=st.lists(
            st.sampled_from([0.5, 1 - 1e-6, 1.0, 1 + 1e-11, 1 + 1e-9, 1 + 1e-6, 3.0]),
            max_size=6,
        ),
    )
    def test_matches_loop_near_saturation(self, n, seed, scales):
        # the planner's own (B1, B2) put D_max on the purity bound; scaled
        # copies of D_max land on either side of it or past the margin
        # bound, in every order
        rng = np.random.default_rng(seed)
        g = random_graph(n, 0.6, rng)
        noise = _random_noise(rng)
        p = plan(g, noise)
        d_vals = p.eig_a2[0] * np.array(scales, dtype=float)
        args = (p.b1, p.b2, p.c1, p.c2, noise.eps1, d_vals)
        assert _physicality(*args) == _physicality_loop(*args)


def _rotation_matrix(n, i, j, angle):
    """Plane rotation by ``angle`` in the ``(i, j)`` coordinate plane."""
    r = np.eye(n)
    c, s = math.cos(angle), math.sin(angle)
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


def _dense_compose(n, rotations, signs):
    """Oracle for compose_network: the explicit product of n x n matrices."""
    out = np.diag(np.asarray(signs, dtype=float))
    for rot in reversed(rotations):
        out = _rotation_matrix(n, rot.i, rot.j, rot.angle) @ out
    return out


def _test_orthogonal(kind, n, rng):
    if kind == "haar":
        return random_orthogonal(n, rng)
    o = np.eye(n)[rng.permutation(n)]
    if kind == "signed_permutation":
        o = o * rng.choice([-1.0, 1.0], size=n)
    return o


class TestGivensNetwork:
    def test_identity_empty(self):
        rotations, signs = givens_network(np.eye(4))
        assert rotations == ()
        assert np.array_equal(signs, np.ones(4))

    def test_single_rotation(self):
        th = 0.6
        o = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        rotations, signs = givens_network(o)
        assert len(rotations) == 1
        recomposed = compose_network(2, rotations, signs)
        assert np.max(np.abs(recomposed - o)) < 1e-12

    def test_sign_layer(self):
        o = np.diag([1.0, -1.0, 1.0])
        rotations, signs = givens_network(o)
        assert rotations == ()
        assert np.array_equal(signs, np.array([1.0, -1.0, 1.0]))

    def test_random_recomposition(self, rng):
        for n in (2, 3, 5, 8):
            o = random_orthogonal(n, rng)
            rotations, signs = givens_network(o)
            assert len(rotations) <= n * (n - 1) // 2
            recomposed = compose_network(n, rotations, signs)
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
        assert all(0 <= rot.i < rot.j < n for rot in rotations)
        assert set(np.abs(signs)) <= {1.0}
        recomposed = compose_network(n, rotations, signs)
        assert np.max(np.abs(recomposed - o)) < 1e-9
        assert np.max(np.abs(recomposed - _dense_compose(n, rotations, signs))) < 1e-12

    @pytest.mark.parametrize("side", [10, 12])
    def test_grid2d_spectrum_basis(self, side):
        _, o = a_squared_spectrum(grid2d_graph(side, side))
        n = o.shape[0]
        rotations, signs = givens_network(o)
        assert len(rotations) <= n * (n - 1) // 2
        assert np.max(np.abs(compose_network(n, rotations, signs) - o)) < 1e-9

    def test_compose_matches_dense_product(self, rng):
        # arbitrary plane pairs in either order, not only synthesis output
        for n in (2, 3, 6, 11):
            rotations = []
            for _ in range(3 * n):
                i, j = rng.choice(n, size=2, replace=False)
                rotations.append(
                    GivensRotation(int(i), int(j), float(rng.uniform(-math.pi, math.pi)))
                )
            signs = rng.choice([-1.0, 1.0], size=n)
            got = compose_network(n, tuple(rotations), signs)
            assert np.max(np.abs(got - _dense_compose(n, rotations, signs))) < 1e-12

    def test_compose_rejects_wrong_sign_count(self):
        with pytest.raises(ValueError):
            compose_network(3, (), np.ones(2))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            givens_network(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_plan_network_matches_orthogonal(self, rng):
        g = random_graph(5, 0.6, rng)
        p = plan(g, NoiseParams(0.02, 0.01, 1.0))
        recomposed = compose_network(g.n, p.network, p.sign_layer)
        assert np.max(np.abs(recomposed - p.orthogonal)) < 1e-9


class TestPlanSerialization:
    def test_json_fields(self):
        p = plan(path_graph(3), NoiseParams(0.01, 0.02, 1.1))
        doc = p.to_json()
        assert doc["physical"] is True
        assert len(doc["orthogonal"]) == 3
        assert all(set(entry) == {"modes", "angle"} for entry in doc["network"])
        assert doc["g_prime"] >= 1.0
        assert len(doc["mode_squeezing"]) == 3
