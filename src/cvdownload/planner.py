"""Decorrelation planner for lossy, inefficiently measured hardware.

Uniform photon loss ``eps1`` and homodyne inefficiency ``eps2`` acting on
a CPHASE network correlate the noise between modes.  This module solves
the inverse problem: choose per-mode squeezed-thermal inputs, a passive
orthogonal pre-network, and a boosted CPHASE strength so that the state
*after* the noisy channel equals an ideal CPHASE network (unit strength)
applied to i.i.d. squeezed-thermal modes with effective parameters
``(r_eff, nbar_eff)``.  Downstream, the downloaded qubit errors then stay
uncorrelated from qubit to qubit.

Writing ``C1 = eps1/2 + eps2/(1 - eps2)`` and ``C2 = eps1/2`` for the
additive q/p noise of the channel, the target covariance has per-mode
constants

    B1 = C1 + (1 - eps1) e^{2 r'} / 2,
    B2 = C2 + C1 D_max + 2 C1^2 D_max e^{-2 r'} / (1 - eps1)
         + (1 - eps1) e^{-2 r'} / 2,

where ``D_max`` is the largest eigenvalue of ``A^2`` and ``r'`` the
available hardware squeezing.  The compensating CPHASE strength is
``g' = B1 / (B1 - C1)``, the effective downloaded source has
``e^{2 r_eff} = sqrt(B1 / B2)`` and ``nbar_eff = sqrt(B1 B2) - 1/2``, and
each eigenmode of ``A^2`` (eigenvalue ``D_i``, shortfall
``Delta_i = D_max - D_i``) is prepared with

    e^{2 r_i'} = (1 - eps1) e^{2 r'} / s_i,
    nbar_i'    = (s_i / (1 - eps1) - 1) / 2,
    s_i = sqrt(4 C1^2 Delta_i + 2 C1 Delta_i (1 - eps1) e^{2 r'}
               + (1 - eps1)^2).

The principal mode (``Delta = 0``) needs exactly ``(r', 0)``: the full
hardware squeezing, no added thermal noise.  Index 0 of every plan is a
principal mode.  The spectrum ``D`` is sorted descending only on the
general path; a grid graph is planned from its two path factors and keeps
their Kronecker order.  The passive network is printed once, as two-mode
rotations plus a sign layer.  ``verify_plan`` multiplies out exactly that
printed network, replays the whole pipeline forward through the Gaussian
channel engine and reports the worst covariance residual against the
ideal target.  That target, the cluster state of i.i.d. ``(r_eff,
nbar_eff)`` modes, has the closed form ``[[B1 I, B1 A], [B1 A, B2 I + B1
A^2]]`` in the source's q and p variances; it is read off the graph's
cached patterns of A and A^2, each ``B1 (A^2)_ij`` as the running sum of
``B1 / 2`` that CPHASE computes, and never formed.

Every plan is physical by construction.  With ``k = B1 - C1 =
(1 - eps1) e^{2 r'} / 2 > 0`` (so ``g' = B1 / k``) the input conditions
are identities: ``B2 - C2 - B1 C1 D_i / k = C1 Delta_i (1 + C1 / k)
+ (1 - eps1)^2 / (4 k) > 0``, and the input purity ``k (B2 - C2 - B1 C1
D_i / k) / (1 - eps1)^2 = 1/4 + C1 Delta_i (k + C1) / (1 - eps1)^2 >= 1/4``.
As ``C1 >= eps1 / 2 = C2``, ``B1 B2 >= ((1 - eps1) / 2 + sqrt(C1 C2))^2
>= 1/4``, so ``nbar_eff >= 0``.  None of this is re-tested in floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import graphs  # its cached A and A^2: this namespace holds only the planner's caches
from .gaussian import (
    GaussianState,
    SqueezedThermalParams,
    _check_orthogonal,
    _rotated_mode_diag_state,
    apply_cphase,
    apply_detector_noise,
    apply_loss,
)
from .graphs import (
    _GRAPH_CACHE_SIZE,
    Graph,
    _grid_shape,
    _path_spectrum,
    a_squared_spectrum,
    degrees,
    max_degree,
)

__all__ = [
    "NoiseParams",
    "NETWORK_DTYPE",
    "DecorrelationPlan",
    "LinearizedPlan",
    "plan",
    "linearized_plan",
    "verify_plan",
    "givens_network",
    "compose_network",
]

# Largest |r'| for which exp(2 r') and exp(-2 r') are both finite and nonzero.
R_PRIME_LIMIT = 0.5 * math.log(sys.float_info.max)
# A plan counts as verified while its verify_plan residual stays below this.
VERIFY_TOL = 1e-9
#: The most modes that :func:`plan`, :func:`linearized_plan` and
#: :func:`verify_plan` take; a larger graph is refused before any n x n or
#: network array exists.  A replay holds about 8.3 n^2 float64 at its peak,
#: 0.60 GB at the cap (and the general path's dense A^2 n^2 more).
MAX_PLAN_MODES = 3000
# verify_plan refuses a replay whose covariance entries could exceed a
# quarter of the largest float: each congruence adds its product to its
# transpose, and the residual subtracts two such covariances.
_REPLAY_LOG_LIMIT = math.log(sys.float_info.max / 4.0)
# :func:`_spectrum` and :func:`_passive_network` keep the noise-independent
# half of a plan for the last ``_GRAPH_CACHE_SIZE`` graphs, and
# :func:`_composed_network` the composed network of as many recipes.  A
# graph's entries hold one basis of at most n^2 floats and n (n - 1) / 2 beam
# splitters of 24 bytes, under 20 n^2 bytes.  A plan's recipe holds its n x n
# composition and, as its key, its network and signs: under 20 n^2 + 8 n
# bytes too (each about 16 MB at n = 900).


@dataclass(frozen=True)
class NoiseParams:
    """Channel model: photon loss ``eps1``, detector inefficiency ``eps2``,
    and the hardware squeezing budget ``r_prime`` (per mode, in nepers)."""

    eps1: float
    eps2: float
    r_prime: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps1 < 1.0:
            raise ValueError(f"eps1 must be in [0, 1), got {self.eps1}")
        if not 0.0 <= self.eps2 < 1.0:
            raise ValueError(f"eps2 must be in [0, 1), got {self.eps2}")
        if not abs(self.r_prime) <= R_PRIME_LIMIT:  # NaN fails too
            raise ValueError(
                f"|r_prime| must be at most R_PRIME_LIMIT = {R_PRIME_LIMIT!r}, beyond which "
                f"exp(+-2 r_prime) leaves the float range; got {self.r_prime}"
            )

    @property
    def c1(self) -> float:
        return 0.5 * self.eps1 + self.eps2 / (1.0 - self.eps2)

    @property
    def c2(self) -> float:
        return 0.5 * self.eps1


#: One beam splitter per element: the plane rotation by ``angle`` in the
#: ``(i, j)`` mode plane.  A network is a 1-d array of this dtype.
NETWORK_DTYPE = np.dtype([("i", np.intp), ("j", np.intp), ("angle", np.float64)])


@dataclass(frozen=True)
class DecorrelationPlan:
    """Complete hardware recipe plus diagnostics.

    ``mode_squeezing[k]`` / ``mode_thermal[k]`` prepare the mode that the
    passive network maps onto eigenvector ``k`` of ``A^2`` (column ``k`` of
    ``compose_network(network, sign_layer)``, eigenvalue ``eig_a2[k]``).
    Index 0 is a principal mode, ``eig_a2[0] = max(eig_a2)``.  ``eig_a2``
    is sorted descending only on the general path; a grid keeps the
    Kronecker order of its two path factors (see :func:`plan`).  The
    network is two-mode rotations followed by per-mode sign flips: at most
    ``n (n - 1) / 2`` rotations, and on a grid ``grid2d:r x c`` exactly
    ``n (r + c - 2) / 2``.  ``network`` is one array of
    :data:`NETWORK_DTYPE`, with fields ``i``, ``j`` and ``angle``, and
    ``sign_layer`` holds the n signs.  A noiseless plan has no rotations
    and all signs +1.  ``eig_a2``, ``network`` and ``sign_layer`` are
    read-only: plans of one graph share them.

    :func:`plan` always sets ``physical=True, violated=None``; only a
    hand-built recipe can be unphysical, and :func:`verify_plan` refuses it.
    """

    c1: float
    c2: float
    b1: float
    b2: float
    g_prime: float
    eig_a2: np.ndarray
    mode_squeezing: np.ndarray
    mode_thermal: np.ndarray
    r_eff: float
    nbar_eff: float
    physical: bool
    violated: str | None
    network: np.ndarray
    sign_layer: np.ndarray


def _check_plan_modes(graph: Graph) -> None:
    if graph.n > MAX_PLAN_MODES:
        raise ValueError(f"the planner takes at most MAX_PLAN_MODES = {MAX_PLAN_MODES} modes, "
                         f"got a graph of {graph.n}")


def plan(graph: Graph, noise: NoiseParams) -> DecorrelationPlan:
    """Solve the decorrelation problem for ``graph`` under ``noise``.

    A grid takes its spectrum and its network from its two path factors
    (:func:`_spectrum`, :func:`_kron_network`), with no n x n
    eigendecomposition or synthesis; any other graph takes
    :func:`graphs.a_squared_spectrum` and one n x n synthesis.  That half
    depends on the graph alone and is computed once per graph
    (:func:`_spectrum`, :func:`_passive_network`); each call adds only the
    noise arithmetic.

    Refused with a ``ValueError`` above :data:`MAX_PLAN_MODES` modes, and
    where ``(1 - eps1) e^{2 r'} / 2`` underflows or ``B2`` or ``g'``
    overflows, so every plan is finite.
    """
    _check_plan_modes(graph)
    d_vals = _spectrum(graph)[0]
    eps1, r_prime = noise.eps1, noise.r_prime
    c1, c2 = noise.c1, noise.c2
    one = 1.0 - eps1
    e2rp = math.exp(2.0 * r_prime)
    d_max = float(d_vals.max())

    k = 0.5 * one * e2rp  # B1 - C1, formed directly: b1 - c1 loses digits
    if k == 0.0:
        raise ValueError(
            f"(1 - eps1) e^(2 r_prime) / 2 underflows to 0 at eps1 = {eps1!r}, "
            f"r_prime = {r_prime!r}, so the CPHASE gain g' = B1 / (B1 - C1) is infinite"
        )
    b1 = c1 + k
    b2 = c2 + c1 * d_max + 2.0 * c1 * c1 * d_max / (one * e2rp) + 0.5 * one / e2rp
    g_prime = b1 / k
    if not (math.isfinite(b2) and math.isfinite(g_prime)):
        raise ValueError(
            f"B2 = {b2!r} and g' = B1 / (B1 - C1) = {g_prime!r} must stay within the "
            f"float range; their e^(-2 r_prime) terms overflow at eps1 = {eps1!r}, "
            f"eps2 = {noise.eps2!r}, r_prime = {r_prime!r}"
        )

    delta = d_max - d_vals
    # s = sqrt(4 C1^2 delta + 2 C1 delta (1 - eps1) e^{2r'} + (1 - eps1)^2),
    # summed by hypot so no term overflows where s itself is finite.
    s = np.hypot(
        np.hypot(2.0 * c1 * np.sqrt(delta), np.sqrt(2.0 * c1 * delta * one) * math.exp(r_prime)),
        one,
    )
    mode_squeezing = r_prime + 0.5 * np.log(one / s)  # e^{2 r_k} = (1 - eps1) e^{2r'} / s
    mode_thermal = np.maximum(0.5 * (s / one - 1.0), 0.0)
    if c1 == 0.0:
        # Noiseless channel: every mode gets the identical preparation
        # (s = 1 above), so the passive network is reported as trivial.
        network, signs = np.empty(0, NETWORK_DTYPE), np.ones(len(d_vals))
    else:
        network, signs = _passive_network(graph)

    r_eff = 0.25 * (math.log(b1) - math.log(b2))
    # B1 B2 >= 1/4 exactly; the clamp absorbs round-off at large |r'|
    nbar_eff = max(math.sqrt(b1) * math.sqrt(b2) - 0.5, 0.0)

    return DecorrelationPlan(
        c1=c1,
        c2=c2,
        b1=b1,
        b2=b2,
        g_prime=g_prime,
        eig_a2=d_vals,
        mode_squeezing=mode_squeezing,
        mode_thermal=mode_thermal,
        r_eff=r_eff,
        nbar_eff=nbar_eff,
        physical=True,
        violated=None,
        network=network,
        sign_layer=signs,
    )


@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def _passive_network(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(network, signs)`` realizing the basis ``O = kron(*factors)`` of
    :func:`_spectrum` (see :func:`_kron_network`), kept for the last
    ``_GRAPH_CACHE_SIZE`` graphs.  The arrays are read-only: plans of one
    graph share them, and no caller can write into another plan's."""
    arrays = _kron_network(_spectrum(graph)[1])
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def _spectrum(graph: Graph) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``(D, factors)`` with ``A^2 = O diag(D) O^T`` for ``O = kron(*factors)``,
    kept read-only for the last ``_GRAPH_CACHE_SIZE`` graphs.

    A grid (its edges exactly those of ``grid2d_graph(r, c)``, ``r, c >= 2``)
    has ``A = A_r (x) I + I (x) A_c``, so the closed-form path bases
    ``(O_r, O_c)`` diagonalise A and A^2, with ``D = (lam_r + lam_c)^2`` in
    Kronecker order; index 0 holds ``max(D)`` exactly.  Every other graph has
    the one factor of :func:`graphs.a_squared_spectrum`, with D sorted.
    """
    shape = _grid_shape(graph)
    if shape is None:
        d_vals, o = a_squared_spectrum(graph)
        factors = (o,)
    else:
        (lam_r, o_r), (lam_c, o_c) = map(_path_spectrum, shape)
        d_vals, factors = np.square(np.add.outer(lam_r, lam_c)).ravel(), (o_r, o_c)
    for array in (d_vals, *factors):
        array.flags.writeable = False
    return d_vals, factors


class LinearizedPlan(NamedTuple):
    """First order in ``(eps1, eps2)`` at fixed ``r'``."""

    e2r_eff: float
    nbar_eff: float
    g_prime: float


def linearized_plan(graph: Graph, noise: NoiseParams) -> LinearizedPlan:
    """Small-noise expansion of the effective downloaded source.

    With ``D`` the top eigenvalue of ``A^2``,
    ``W+- = (D e^{4 r'} + e^{4 r'} +- 1) / 2`` and ``V+- = D e^{4 r'} +- 1``:

        e^{2 r_eff} ~ e^{2 r'} - eps1 W- - eps2 V-,
        nbar_eff    ~ (eps1 / 2) (W+ e^{-2 r'} - 1)
                      + (eps2 / 2) V+ e^{-2 r'},
        g'          ~ 1 + e^{-2 r'} (eps1 + 2 eps2).

    Valid only while ``eps (1 + D) e^{2 r'} << 1`` (beyond, ``e2r_eff`` can
    turn negative), it is the oracle :func:`plan` converges to at second order
    in eps, and no command prints it.

    ``r'`` above ``log(float max / (2 (1 + D))) / 4``, which is at most
    ``log(float max) / 4`` (about 177.4), is refused with a ``ValueError``:
    ``D e^{4 r'}`` would leave the float range there.  Below it the
    ``e^{4 r'}`` terms stay under half the largest float; the ``e^{-2 r'}``
    terms overflow only under heavy noise at strongly negative ``r'``,
    which is refused too, so every result is finite.  A graph above
    :data:`MAX_PLAN_MODES` modes is refused as by :func:`plan`.
    """
    _check_plan_modes(graph)
    d = float(_spectrum(graph)[0].max())
    limit = 0.25 * math.log(sys.float_info.max / (2.0 * (1.0 + d)))
    if noise.r_prime > limit:
        raise ValueError(
            f"linearized_plan needs r_prime <= log(float max / (2 (1 + D))) / 4 "
            f"= {limit!r} at D = {d!r}, beyond which D e^(4 r_prime) leaves the "
            f"float range; got {noise.r_prime!r}"
        )
    e2rp = math.exp(2.0 * noise.r_prime)
    e4rp = e2rp * e2rp
    w_plus = 0.5 * (d * e4rp + e4rp + 1.0)
    w_minus = 0.5 * (d * e4rp + e4rp - 1.0)
    v_plus = d * e4rp + 1.0
    v_minus = d * e4rp - 1.0
    lin = LinearizedPlan(
        e2r_eff=e2rp - noise.eps1 * w_minus - noise.eps2 * v_minus,
        nbar_eff=0.5 * noise.eps1 * (w_plus / e2rp - 1.0)
        + 0.5 * noise.eps2 * v_plus / e2rp,
        g_prime=1.0 + (noise.eps1 + 2.0 * noise.eps2) / e2rp,
    )
    if not all(map(math.isfinite, lin)):
        raise ValueError(
            f"{lin!r} must stay within the float range; its e^(-2 r_prime) terms "
            f"overflow at eps1 = {noise.eps1!r}, eps2 = {noise.eps2!r}, "
            f"r_prime = {noise.r_prime!r}"
        )
    return lin


def verify_plan(plan_: DecorrelationPlan, graph: Graph, noise: NoiseParams) -> float:
    """Replay the plan forward and return the worst covariance residual.

    Pipeline: per-mode squeezed-thermal inputs -> the printed network
    ``compose_network(network, sign_layer)`` -> CPHASE at ``g'`` -> loss
    ``eps1`` -> detector noise ``eps2``; the result must equal the
    unit-strength CPHASE network applied to i.i.d. ``(r_eff, nbar_eff)``
    modes.  The composition is memoised on the recipe's bytes (see
    :func:`_composed_network`), so a repeated recipe pays only that key,
    and the uncorrelated inputs pass it in one step per block,
    ``O diag(v) O^T``.  The target is the closed form ``[[B1 I, B1 A],
    [B1 A, B2 I + B1 A^2]]``, read off the graph's cached A and A^2 with
    the running-sum rule of :func:`_target_residual`: no target state is
    formed, and the residual is the one against :func:`gaussian.thermal_cvcs`
    bit for bit.
    Refuses to verify an unphysical plan, and refuses with a
    ``ValueError``, before the replay, a graph above
    :data:`MAX_PLAN_MODES` modes, a plan with a negative or NaN
    thermal occupation (the recipe is replayed as given, not repaired),
    one whose replayed covariance or target could leave the float range
    (see :func:`_replay_log_bound`), or one whose network or sign layer
    :func:`compose_network` refuses.
    """
    _check_plan_modes(graph)
    if not plan_.physical:
        raise ValueError(f"plan is not physical (violated: {plan_.violated})")
    nbar = np.asarray(plan_.mode_thermal, dtype=float)
    bad = np.flatnonzero(~(nbar >= 0.0))  # NaN too
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"mode_thermal[{k}] = {float(nbar[k])!r} is not an occupation >= 0")
    source = SqueezedThermalParams(plan_.r_eff, plan_.nbar_eff)
    d = max_degree(graph)
    log_bound = np.logaddexp(
        _replay_log_bound(plan_.mode_squeezing, nbar, plan_.g_prime, d),
        _replay_log_bound(np.array([source.r]), np.array([source.nbar]), 1.0, d),
    )
    if not log_bound < _REPLAY_LOG_LIMIT:
        raise ValueError(
            f"the replayed covariance would leave the float range: its entries "
            f"may reach e^{log_bound:.6g}, above float max / 4 = e^{_REPLAY_LOG_LIMIT:.6g}"
        )
    network, signs = _recipe_arrays(plan_.network, plan_.sign_layer)
    o = _composed_network(network.tobytes(), signs.tobytes())
    q_vars = np.exp(2.0 * plan_.mode_squeezing) * (nbar + 0.5)
    p_vars = np.exp(-2.0 * plan_.mode_squeezing) * (nbar + 0.5)
    state = _rotated_mode_diag_state(q_vars, p_vars, o)
    state = apply_cphase(state, graph, plan_.g_prime)
    state = apply_loss(state, noise.eps1)
    state = apply_detector_noise(state, noise.eps2)
    return _target_residual(state, graph, source)


def _target_residual(state: GaussianState, graph: Graph, source: SqueezedThermalParams) -> float:
    """``max |V - V_target|`` over the blocks ``qq``, ``qp`` and ``pp``, for
    ``V_target`` the state :func:`gaussian.thermal_cvcs` builds from ``graph``
    and ``source``, bit for bit but never formed.

    Unit-strength CPHASE on uncorrelated modes sums exact zeros and equal
    terms, so that state is ``[[B1 I, B1 A], [B1 A, B2 I + (h + h^T)]]``
    exactly, with ``(B1, B2)`` the source's q and p variances and ``h_ij``
    the running sum of ``(A^2)_ij`` terms ``x = B1 / 2``: ``0, x, 2x,
    round(2x + x), ...``, one table for every count (the product ``(A^2)_ij
    x`` is not always that number).  Each block is copied and its target
    subtracted on its pattern alone: the diagonal, the cached A
    (:func:`graphs._adjacency_operator`) or the cached A^2
    (:func:`graphs._adjacency_square`).
    """
    n = graph.n
    b1, b2 = source.q_variance, source.p_variance
    a, a2 = graphs._adjacency_operator(graph), graphs._adjacency_square(graph)
    counts = a2.data.astype(np.intp)
    walks = np.zeros(int(counts.max(initial=0)) + 1)
    np.cumsum(np.full(len(walks) - 1, 0.5 * b1), out=walks[1:])
    walks += walks  # h + h^T: both terms are the same number
    diagonal = np.arange(n) * (n + 1)
    qq, qp, pp = (block.flatten() for block in (state.qq, state.qp, state.pp))
    qq[diagonal] -= b1
    qp[_flat_pattern(a)] -= b1
    pp[_flat_pattern(a2)] -= walks[counts]
    # the diagonal's target is one sum, B2 + 2 h_ii, subtracted in one step
    pp[diagonal] = np.diagonal(state.pp) - (b2 + walks[degrees(graph)])
    return max(float(np.abs(block, out=block).max()) for block in (qq, qp, pp))


def _flat_pattern(a) -> np.ndarray:
    """Flat indices ``i n + j`` of the stored entries of an n x n CSR array."""
    n = a.shape[0]
    return np.repeat(np.arange(0, n * n, n), np.diff(a.indptr)) + a.indices


def _replay_log_bound(
    squeezing: np.ndarray, thermal: np.ndarray, g: float, d: int
) -> float:
    """Log of a bound on every covariance entry in a replay.

    The modes are squeezed-thermal with ``(squeezing[k], thermal[k])``, so
    their q (p) variances are at most ``Q`` (``P``).  A passive network
    keeps every q-q (p-p) entry within ``Q`` (``P``), by Cauchy-Schwarz
    over the rows of ``O``.  CPHASE at strength ``g`` on a graph of
    maximum degree ``d`` then gives q-q, q-p and p-p entries of at most
    ``Q``, ``g d Q`` and ``P + (g d)^2 Q``, all within
    ``(1 + g d)^2 Q + P``; so does every partial sum of the products.
    """
    log_nu = np.log(thermal + 0.5)
    log_q = float(np.max(2.0 * squeezing + log_nu))
    log_p = float(np.max(-2.0 * squeezing + log_nu))
    return float(np.logaddexp(2.0 * math.log1p(g * d) + log_q, log_p))


# ---------------------------------------------------------------------------
# orthogonal-network synthesis
# ---------------------------------------------------------------------------

def compose_network(network: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Multiply out ``R_1 R_2 ... R_m diag(signs)`` in the listed order.

    ``R_k`` is the plane rotation of ``network[k]`` (``R[i, j] = -sin``,
    ``R[j, i] = sin``) on ``n = len(signs)`` modes.  Each rotation updates
    two rows of the running product in place: O(n) per rotation, O(n^3) in
    total for a full network.

    Refused with a ``ValueError``, before the n x n product is allocated: a
    network that is not a 1-d array of :data:`NETWORK_DTYPE`, a rotation
    whose modes leave ``[0, n)`` or coincide, a non-finite angle, and signs
    that are not a 1-d array of exact +-1.
    """
    network, signs = _recipe_arrays(network, signs)
    n = len(signs)
    i, j = network["i"], network["j"]
    bad = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"rotation {k} acts on modes ({int(i[k])}, {int(j[k])}), "
            f"not two distinct modes in [0, {n})"
        )
    bad = np.flatnonzero(~np.isfinite(network["angle"]))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"rotation {k} has a non-finite angle {float(network['angle'][k])!r}")
    bad = np.flatnonzero(np.abs(signs) != 1.0)  # NaN too
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"sign {k} is {float(signs[k])!r}, not +1 or -1")
    out = np.diag(signs)
    steps = network[::-1]
    angles = steps["angle"]
    for i, j, c, s in zip(
        steps["i"].tolist(), steps["j"].tolist(), np.cos(angles).tolist(), np.sin(angles).tolist()
    ):
        row_i, row_j = out[i], out[j]
        new_i = c * row_i
        new_i -= s * row_j
        row_j *= c
        row_j += s * row_i
        row_i[:] = new_i
    return out


def _recipe_arrays(network: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(network, signs as floats)``, refusing with a ``ValueError`` a
    network that is not a 1-d :data:`NETWORK_DTYPE` array and signs that
    are not 1-d.  O(1) for arrays of the right types."""
    if not (
        isinstance(network, np.ndarray) and network.dtype == NETWORK_DTYPE and network.ndim == 1
    ):
        layout = (type(network).__name__, getattr(network, "dtype", None), np.shape(network))
        raise ValueError(f"network must be a 1-d array of NETWORK_DTYPE, got {layout}")
    signs = np.asarray(signs, dtype=float)
    if signs.ndim != 1:
        raise ValueError(f"signs must be 1-d, got shape {signs.shape}")
    return network, signs


@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def _composed_network(network: bytes, signs: bytes) -> np.ndarray:
    """``compose_network`` of a recipe given by the bytes of its network
    and its float signs (layouts checked by :func:`_recipe_arrays`),
    read-only and kept for the last ``_GRAPH_CACHE_SIZE`` recipes.  Equal
    bytes give an equal matrix, so a hit returns the composition of exactly
    the recipe given; a product of rotations and exact signs, it is
    orthogonal by construction and never float-tested."""
    o = compose_network(np.frombuffer(network, NETWORK_DTYPE), np.frombuffer(signs))
    o.flags.writeable = False
    return o


def _kron_network(factors: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A network and sign layer for ``kron(*factors)``, from the factors' own.

    With modes in row-major Kronecker order, ``kron(O_1, O_2)`` is
    ``(O_1 (x) I)(I (x) O_2)``: each rotation of :func:`givens_network`
    (``O_f``) is copied onto every line of modes along axis ``f``.  The
    copies act on disjoint modes, rotations of different factors commute,
    and each factor's sign flips commute with the other factors' rotations,
    so the sign layer is the Kronecker product of the factors' sign layers.
    Dense factors of sizes ``m_f`` give ``sum_f n (m_f - 1) / 2`` rotations.
    One factor gives its :func:`givens_network` unchanged.
    """
    dims = [len(f) for f in factors]
    modes = np.arange(math.prod(dims)).reshape(dims)
    steps, signs = [], np.ones(1)
    for axis, factor in enumerate(factors):
        network, factor_signs = givens_network(factor)
        lines = np.take(modes, 0, axis=axis).ravel()
        stride = math.prod(dims[axis + 1 :])
        copies = np.empty((len(network), len(lines)), NETWORK_DTYPE)
        copies["i"] = lines + stride * network["i"][:, None]
        copies["j"] = lines + stride * network["j"][:, None]
        copies["angle"] = network["angle"][:, None]
        steps.append(copies.ravel())
        signs = np.kron(signs, factor_signs)
    return np.concatenate(steps), signs


def givens_network(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor an orthogonal matrix into two-mode rotations plus sign flips.

    Standard QR-style elimination (the triangular Reck et al. layout):
    rotations zero the below-diagonal entries column by column, leaving
    ``+-1`` up to rounding on the diagonal (``o`` is checked orthogonal on
    entry).  Returns ``(network, signs)``, ``network`` an array of
    :data:`NETWORK_DTYPE` in application order, such that
    ``compose_network(network, signs)`` reproduces ``o``; at most
    ``n (n - 1) / 2`` rotations, with entries below 1e-14 skipped, so a
    block-structured ``o`` (see :func:`graphs.a_squared_spectrum`) costs
    only the rotations inside its blocks.

    Each column is eliminated at once.  Its rotations ``(col, row_k)``,
    in row order over the entries ``x_k`` that are not skipped, take the
    pivot entry ``x_0`` to ``r_k = sqrt(x_0^2 + sum_{i<=k} x_i^2)`` with
    angle ``atan2(x_k, r_{k-1})``, where ``r_{-1} = x_0`` keeps its sign.
    The pivot row after rotation ``k`` is then the running sum
    ``p_k = (x_0 pivot + sum_{i<=k} x_i row_i) / r_k``, and row ``k``
    becomes ``(r_{k-1} row_k - x_k p_{k-1}) / r_k`` with ``p_{-1}`` the
    pivot row itself.  A column costs a fixed number of array operations
    and the synthesis O(n^3) arithmetic.
    """
    o = np.asarray(o, dtype=float)
    n = o.shape[0]
    if o.shape != (n, n):
        raise ValueError(f"expected a square matrix, got {o.shape}")
    _check_orthogonal(o)
    work = o.copy()
    steps = [np.empty(0, NETWORK_DTYPE)]
    for col in range(n - 1):
        active = col + 1 + np.flatnonzero(np.abs(work[col + 1:, col]) >= 1e-14)
        if active.size == 0:
            continue
        x0 = work[col, col]
        x = work[active, col]
        block = work[active, col:]
        r = np.sqrt(x0 * x0 + np.cumsum(x * x))
        r_prev = np.concatenate(([x0], r[:-1]))
        pivots = np.cumsum(x[:, None] * block, axis=0)
        pivots += x0 * work[col, col:]
        pivots /= r[:, None]
        p_prev = np.concatenate((work[None, col, col:], pivots[:-1]))
        work[active, col:] = (r_prev[:, None] * block - x[:, None] * p_prev) / r[:, None]
        work[active, col] = 0.0
        work[col, col:] = pivots[-1]
        step = np.empty(active.size, NETWORK_DTYPE)
        step["i"] = col
        step["j"] = active
        step["angle"] = np.arctan2(x, r_prev)
        steps.append(step)
    return np.concatenate(steps), np.sign(np.diagonal(work))
