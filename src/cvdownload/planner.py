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
hardware squeezing, no added thermal noise.  ``verify_plan`` replays the
whole pipeline forward through the Gaussian channel engine and reports
the worst covariance residual against the ideal target.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .gaussian import (
    GaussianState,
    SqueezedThermalParams,
    apply_cphase,
    apply_detector_noise,
    apply_loss,
    apply_orthogonal,
    mode_diag_state,
    thermal_cvcs,
)
from .graphs import Graph, a_squared_spectrum, max_degree

__all__ = [
    "NoiseParams",
    "GivensRotation",
    "DecorrelationPlan",
    "LinearizedPlan",
    "plan",
    "linearized_plan",
    "verify_plan",
    "givens_network",
    "compose_network",
]

# The tightest physicality condition saturates identically at 1/4 for the
# B1/B2 choice above, so the check needs headroom for round-off.
_PHYSICALITY_TOL = 1e-9

# Largest |r'| for which exp(2 r') and exp(-2 r') are both finite and nonzero.
R_PRIME_LIMIT = 0.5 * math.log(sys.float_info.max)


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
        if not math.isfinite(self.r_prime):
            raise ValueError(f"r_prime must be finite, got {self.r_prime}")
        if abs(self.r_prime) > R_PRIME_LIMIT:
            raise ValueError(
                f"|r_prime| must be at most {R_PRIME_LIMIT!r}, where exp(+-2 r_prime) "
                f"leaves the float range; got {self.r_prime}"
            )

    @property
    def c1(self) -> float:
        return 0.5 * self.eps1 + self.eps2 / (1.0 - self.eps2)

    @property
    def c2(self) -> float:
        return 0.5 * self.eps1


class GivensRotation(NamedTuple):
    i: int
    j: int
    angle: float


@dataclass(frozen=True)
class DecorrelationPlan:
    """Complete hardware recipe plus diagnostics.

    ``mode_squeezing[k]`` / ``mode_thermal[k]`` prepare the mode that the
    orthogonal network maps onto eigenvector ``k`` of ``A^2`` (columns of
    ``orthogonal``, principal first).  ``network`` realizes that
    orthogonal as at most ``n (n - 1) / 2`` two-mode rotations followed
    by per-mode sign flips (see :func:`compose_network`).
    """

    c1: float
    c2: float
    b1: float
    b2: float
    g_prime: float
    eig_a2: np.ndarray
    orthogonal: np.ndarray
    mode_squeezing: np.ndarray
    mode_thermal: np.ndarray
    r_eff: float
    nbar_eff: float
    physical: bool
    violated: str | None
    network: tuple[GivensRotation, ...]
    sign_layer: np.ndarray

    def to_json(self) -> dict:
        return {
            "c1": self.c1,
            "c2": self.c2,
            "b1": self.b1,
            "b2": self.b2,
            "g_prime": self.g_prime,
            "eig_a2": self.eig_a2.tolist(),
            "orthogonal": self.orthogonal.tolist(),
            "mode_squeezing": self.mode_squeezing.tolist(),
            "mode_thermal": self.mode_thermal.tolist(),
            "r_eff": self.r_eff,
            "nbar_eff": self.nbar_eff,
            "physical": self.physical,
            "violated": self.violated,
            "network": [
                {"modes": [rot.i, rot.j], "angle": rot.angle} for rot in self.network
            ],
            "sign_layer": self.sign_layer.tolist(),
        }


def plan(graph: Graph, noise: NoiseParams) -> DecorrelationPlan:
    """Solve the decorrelation problem for ``graph`` under ``noise``."""
    d_vals, o = a_squared_spectrum(graph)
    eps1, r_prime = noise.eps1, noise.r_prime
    c1, c2 = noise.c1, noise.c2
    one = 1.0 - eps1
    e2rp = math.exp(2.0 * r_prime)
    d_max = float(d_vals[0])

    b1 = c1 + 0.5 * one * e2rp
    b2 = c2 + c1 * d_max + 2.0 * c1 * c1 * d_max / (one * e2rp) + 0.5 * one / e2rp
    # B1 = C1 in floats once e^{2 r'} is below C1's round-off; that plan
    # fails "B1 > C1" and no finite CPHASE strength compensates it.
    g_prime = b1 / (b1 - c1) if b1 > c1 else math.inf

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
        # Noiseless channel: every mode gets the identical preparation,
        # so the passive network is redundant and reported as trivial.
        mode_squeezing = np.full(graph.n, r_prime)
        mode_thermal = np.zeros(graph.n)
        o = np.eye(graph.n)

    r_eff = 0.25 * (math.log(b1) - math.log(b2))
    nbar_eff = math.sqrt(b1) * math.sqrt(b2) - 0.5

    physical, violated = _physicality(b1, b2, c1, c2, eps1, d_vals)
    rotations, signs = givens_network(o)

    return DecorrelationPlan(
        c1=c1,
        c2=c2,
        b1=b1,
        b2=b2,
        g_prime=g_prime,
        eig_a2=d_vals,
        orthogonal=o,
        mode_squeezing=mode_squeezing,
        mode_thermal=mode_thermal,
        r_eff=r_eff,
        nbar_eff=nbar_eff,
        physical=physical,
        violated=violated,
        network=rotations,
        sign_layer=signs,
    )


def _physicality(
    b1: float, b2: float, c1: float, c2: float, eps1: float, d_vals: np.ndarray
) -> tuple[bool, str | None]:
    """Evaluate the three feasibility conditions on the required inputs.

    Condition three saturates exactly at its bound for the planner's own
    ``(B1, B2)``, hence the tolerance.  Each eigenvalue is checked; the
    binding one is the largest ``D``.  The first failing eigenvalue, in
    the order given, names the violated condition; a NaN fails neither
    comparison and so passes.
    """
    if b1 - c1 <= 0.0:
        return False, "B1 > C1"
    margin = b2 - c2 - (b1 * c1 / (b1 - c1)) * np.asarray(d_vals, dtype=float)
    purity = (b1 - c1) * margin / (1.0 - eps1) ** 2
    margin_fails = margin <= 0.0
    fails = margin_fails | (purity < 0.25 - _PHYSICALITY_TOL)
    if not fails.any():
        return True, None
    if margin_fails[np.argmax(fails)]:
        return False, "B2 > C2 + B1 C1 D / (B1 - C1)"
    return False, "input purity bound"


class LinearizedPlan(NamedTuple):
    """First order in ``(eps1, eps2)`` at fixed ``r'``."""

    e2r_eff: float
    nbar_eff: float
    g_prime: float


def linearized_plan(
    graph: Graph, noise: NoiseParams, use_degree_bound: bool = False
) -> LinearizedPlan:
    """Small-noise expansion of the effective downloaded source.

    With ``W+- = (D e^{4 r'} + e^{4 r'} +- 1) / 2`` and
    ``V+- = D e^{4 r'} +- 1``:

        e^{2 r_eff} ~ e^{2 r'} - eps1 W- - eps2 V-,
        nbar_eff    ~ (eps1 / 2) (W+ e^{-2 r'} - 1)
                      + (eps2 / 2) V+ e^{-2 r'},
        g'          ~ 1 + e^{-2 r'} (eps1 + 2 eps2).

    ``D`` is the top eigenvalue of ``A^2`` by default; passing
    ``use_degree_bound=True`` substitutes the coarser square of the
    maximum vertex degree, which is the convenient back-of-envelope bound
    (``D_max <= d^2`` always).
    """
    if use_degree_bound:
        d = float(max_degree(graph)) ** 2
    else:
        d_vals, _ = a_squared_spectrum(graph)
        d = float(d_vals[0])
    e2rp = math.exp(2.0 * noise.r_prime)
    e4rp = e2rp * e2rp
    w_plus = 0.5 * (d * e4rp + e4rp + 1.0)
    w_minus = 0.5 * (d * e4rp + e4rp - 1.0)
    v_plus = d * e4rp + 1.0
    v_minus = d * e4rp - 1.0
    return LinearizedPlan(
        e2r_eff=e2rp - noise.eps1 * w_minus - noise.eps2 * v_minus,
        nbar_eff=0.5 * noise.eps1 * (w_plus / e2rp - 1.0)
        + 0.5 * noise.eps2 * v_plus / e2rp,
        g_prime=1.0 + (noise.eps1 + 2.0 * noise.eps2) / e2rp,
    )


def verify_plan(plan_: DecorrelationPlan, graph: Graph, noise: NoiseParams) -> float:
    """Replay the plan forward and return the worst covariance residual.

    Pipeline: per-mode squeezed-thermal inputs -> orthogonal network ->
    CPHASE at ``g'`` -> loss ``eps1`` -> detector noise ``eps2``; the
    result must equal the unit-strength CPHASE network applied to i.i.d.
    ``(r_eff, nbar_eff)`` modes.  Refuses to verify an unphysical plan.
    """
    if not plan_.physical:
        raise ValueError(f"plan is not physical (violated: {plan_.violated})")
    nbar = np.clip(plan_.mode_thermal, 0.0, None)  # clip -0.0 round-off
    q_vars = np.exp(2.0 * plan_.mode_squeezing) * (nbar + 0.5)
    p_vars = np.exp(-2.0 * plan_.mode_squeezing) * (nbar + 0.5)
    state = mode_diag_state(q_vars, p_vars)
    state = apply_orthogonal(state, plan_.orthogonal)
    state = apply_cphase(state, graph, plan_.g_prime)
    state = apply_loss(state, noise.eps1)
    state = apply_detector_noise(state, noise.eps2)
    target = thermal_cvcs(
        graph, SqueezedThermalParams(plan_.r_eff, plan_.nbar_eff), 1.0
    )
    return float(np.abs(state.cov - target.cov).max())


# ---------------------------------------------------------------------------
# orthogonal-network synthesis
# ---------------------------------------------------------------------------

def _rotate_rows(
    m: np.ndarray, i: int, j: int, c: float, s: float, start: int = 0
) -> None:
    """Left-multiply rows ``i, j`` of ``m`` by ``[[c, -s], [s, c]]`` in place.

    Only columns ``start:`` are updated; O(n) per call.
    """
    row_i = m[i, start:].copy()
    row_j = m[j, start:]
    m[i, start:] = c * row_i - s * row_j
    m[j, start:] = s * row_i + c * row_j


def compose_network(
    n: int, rotations: tuple[GivensRotation, ...], signs: np.ndarray
) -> np.ndarray:
    """Multiply out ``R_1 R_2 ... R_m diag(signs)`` in the listed order.

    ``R_k`` is the plane rotation by ``angle`` in the ``(i, j)`` plane
    (``R[i, j] = -sin``, ``R[j, i] = sin``).  Each rotation updates two
    rows of the running product in place: O(n) per rotation, O(n^3) in
    total for a full network.
    """
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (n,):
        raise ValueError(f"expected {n} signs, got shape {signs.shape}")
    out = np.diag(signs)
    for rot in reversed(rotations):
        _rotate_rows(out, rot.i, rot.j, math.cos(rot.angle), math.sin(rot.angle))
    return out


def givens_network(
    o: np.ndarray, tol: float = 1e-10
) -> tuple[tuple[GivensRotation, ...], np.ndarray]:
    """Factor an orthogonal matrix into two-mode rotations plus sign flips.

    Standard QR-style elimination (the triangular Reck et al. layout):
    rotations zero the below-diagonal entries column by column, leaving a
    diagonal of +-1.  Returns ``(rotations, signs)`` such that
    ``compose_network(n, rotations, signs)`` reproduces ``o``; at most
    ``n (n - 1) / 2`` rotations, with exact zeros skipped.  Each rotation
    updates the two rows it touches in place, from the current column on,
    so a rotation costs O(n) and the synthesis O(n^3).
    """
    o = np.asarray(o, dtype=float)
    n = o.shape[0]
    if o.shape != (n, n):
        raise ValueError(f"expected a square matrix, got {o.shape}")
    if float(np.abs(o @ o.T - np.eye(n)).max()) > tol:
        raise ValueError("matrix is not orthogonal within tolerance")
    work = o.copy()
    rotations: list[GivensRotation] = []
    for col in range(n - 1):
        for row in range(col + 1, n):
            if abs(work[row, col]) < 1e-14:
                continue
            angle = math.atan2(work[row, col], work[col, col])
            # apply the transpose of the (col, row) rotation, which
            # eliminates entry (row, col); columns left of col are
            # already eliminated and never read again
            _rotate_rows(work, col, row, math.cos(angle), -math.sin(angle), col)
            work[row, col] = 0.0
            rotations.append(GivensRotation(col, row, angle))
    diag = np.diagonal(work)
    if float(np.abs(np.abs(diag) - 1.0).max()) > 1e-9:  # pragma: no cover
        raise RuntimeError("Givens reduction did not reach a signed identity")
    signs = np.sign(diag)
    return tuple(rotations), signs
