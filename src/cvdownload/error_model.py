"""Closed-form single-qubit error laws for the downloading protocol.

Measuring the q quadrature of a p-squeezed mode (q variance
``exp(2 r0) / 2``) that carries one qubit of a superposition leaves the
qubit in

    psi(q) |0> + exp(-i p0 sqrt(pi)) psi(q - sqrt(pi)) |1>   (unnormalized),

where ``psi`` is the squeezed-vacuum wavefunction and ``p0`` an optional
p displacement.  Everything in this module follows from that one state:

* the outcome density ``P(q)`` is an equal mixture of two Gaussians
  centered at 0 and sqrt(pi);
* the amplitude imbalance is ``gamma(q) = exp(sqrt(pi) (2 q - sqrt(pi))
  / (2 exp(2 r0)))``, balanced exactly at ``q = sqrt(pi) / 2``;
* the balancing POVM keeps the qubit with probability
  ``2 min(1, gamma^2) / (1 + gamma^2)``, and averaging over outcomes
  gives the deletion probability ``erf(exp(-r0) sqrt(pi) / 2)``;
* Gaussian p-displacement noise of parameter variance ``sigma^2``
  dephases the kept qubit with probability
  ``(1 - exp(-pi sigma^2 / 2)) / 2``.

Squeezing is quoted in dB through the variance ratio convention
``dB = 10 log10(exp(2 r0))``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .graphs import SQRT_PI
from .qubits import QubitPureState

__all__ = [
    "SQRT_PI",
    "squeezed_vacuum_psi",
    "outcome_density",
    "sample_q",
    "amplitude_imbalance",
    "keep_probability",
    "qubit_given_outcome",
    "p_del_analytic",
    "p_succ_quadrature",
    "p_del_monte_carlo",
    "dephasing_rate",
    "squeezing_to_db",
    "db_to_squeezing",
    "squeezing_db_for_pdel",
    "vertex_disconnect_prob",
]


def squeezed_vacuum_psi(x, r0: float):
    """Real q-space wavefunction of the p-squeezed vacuum, variance ``e^{2 r0}/2``."""
    e2r0 = math.exp(2.0 * r0)
    return (math.pi * e2r0) ** -0.25 * np.exp(-np.square(x) / (2.0 * e2r0))


def outcome_density(q, r0: float):
    """Measurement density ``P(q)``: equal two-Gaussian mixture, grid-friendly."""
    return 0.5 * (
        np.square(squeezed_vacuum_psi(q, r0))
        + np.square(squeezed_vacuum_psi(np.asarray(q) - SQRT_PI, r0))
    )


def sample_q(r0: float, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw measurement outcomes from ``P(q)`` exactly (mixture sampling)."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    centers = SQRT_PI * rng.integers(0, 2, size=shots)
    return rng.normal(centers, math.exp(r0) / math.sqrt(2.0))


def amplitude_imbalance(q, r0: float):
    """``gamma(q) = |<1|psi_q>| / |<0|psi_q>|``; below 1 exactly when q < sqrt(pi)/2.

    Where ``log gamma`` exceeds the float range (far tails at strongly
    negative ``r0``) the result is ``inf``, without an overflow warning.
    """
    log_gamma = SQRT_PI * (2.0 * np.asarray(q) - SQRT_PI) / (2.0 * math.exp(2.0 * r0))
    with np.errstate(over="ignore"):
        return np.exp(log_gamma)


def keep_probability(gamma):
    """Keep probability of the balancing POVM, ``2 min(1, gamma^2) / (1 + gamma^2)``.

    An imbalance whose square overflows counts as ``gamma^2 = inf``, so
    its keep probability is exactly 0 and no warning is raised.
    """
    with np.errstate(over="ignore"):
        g2 = np.square(np.asarray(gamma, dtype=float))
    return 2.0 * np.minimum(g2, 1.0) / (1.0 + g2)


def qubit_given_outcome(q: float, r0: float, p0: float = 0.0) -> QubitPureState:
    """Normalized qubit state conditioned on outcome ``q``.

    Amplitudes are proportional to ``(psi(q), e^{-i p0 sqrt(pi)}
    psi(q - sqrt(pi)))``.  The ratio is computed in log space, so extreme
    outcomes far into either Gaussian tail stay finite.
    """
    log_gamma = SQRT_PI * (2.0 * q - SQRT_PI) / (2.0 * math.exp(2.0 * r0))
    if log_gamma <= 0.0:
        a0 = 1.0 / math.sqrt(1.0 + math.exp(2.0 * log_gamma))
        a1 = math.exp(log_gamma) * a0
    else:
        inv = math.exp(-log_gamma)
        a1 = 1.0 / math.sqrt(1.0 + inv * inv)
        a0 = inv * a1
    return QubitPureState(1, np.array([a0, a1 * np.exp(-1j * p0 * SQRT_PI)]))


def p_del_analytic(r0: float) -> float:
    """Per-qubit deletion probability ``erf(exp(-r0) sqrt(pi) / 2)``."""
    return math.erf(math.exp(-r0) * SQRT_PI / 2.0)


def p_succ_quadrature(r0: float) -> float:
    """Keep probability by direct numerical quadrature of ``P(q) p_keep(q)``.

    Exists as an independent cross-check of the closed form
    ``erfc(exp(-r0) sqrt(pi) / 2)``; the integrand is smooth and the
    adaptive quadrature is pushed well below the comparison tolerance.
    """

    def integrand(q: float) -> float:
        return float(
            outcome_density(q, r0) * keep_probability(amplitude_imbalance(q, r0))
        )

    half_width = 12.0 * math.exp(r0) / math.sqrt(2.0)  # 12 sigma beyond each center
    val, err = integrate.quad(
        integrand,
        -half_width,
        SQRT_PI + half_width,
        points=[0.0, SQRT_PI / 2.0, SQRT_PI],
        limit=200,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    if err > 1e-9 * max(1.0, abs(val)):
        raise RuntimeError(
            f"quadrature did not converge (estimate {val!r}, error {err!r})"
        )
    return float(val)


def p_del_monte_carlo(
    r0: float, shots: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo deletion probability with its binomial standard error.

    Samples outcomes from ``P(q)`` and draws a Bernoulli keep/delete per
    shot, exactly as the protocol does.  Small shot counts are allowed;
    the standard error simply reflects them.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    q = sample_q(r0, shots, rng)
    deleted = rng.random(shots) >= keep_probability(amplitude_imbalance(q, r0))
    p_hat = float(np.mean(deleted))
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / shots)
    return p_hat, stderr


def dephasing_rate(sigma2: float) -> float:
    """Phase-flip probability from Gaussian p-displacement noise.

    ``p_phase = (1 - exp(-pi sigma^2 / 2)) / 2``: averaging the random
    qubit phase ``exp(-i p0 sqrt(pi))`` over ``p0 ~ N(0, sigma^2)``
    shrinks the coherence by ``exp(-pi sigma^2 / 2) = 1 - 2 p_phase``.
    """
    if sigma2 < 0.0:
        raise ValueError(f"variance must be >= 0, got {sigma2}")
    return 0.5 * (1.0 - math.exp(-math.pi * sigma2 / 2.0))


def squeezing_to_db(r: float) -> float:
    """Variance-ratio convention: ``dB = 10 log10(exp(2 r))``."""
    return 20.0 * r / math.log(10.0)


def db_to_squeezing(db: float) -> float:
    return db * math.log(10.0) / 20.0


_R0_BRACKET = (0.0, 10.0)


def squeezing_db_for_pdel(p_target: float) -> float:
    """Invert the deletion law: squeezing (dB) that yields ``p_del = p_target``.

    ``p_del`` decreases monotonically in ``r0``, so plain bisection on
    ``r0 in [0, 10]`` is exact to float precision.  Targets outside the
    range achievable on that bracket are rejected.
    """
    lo, hi = _R0_BRACKET
    p_hi, p_lo = p_del_analytic(lo), p_del_analytic(hi)
    if not p_lo < p_target < p_hi:
        raise ValueError(
            f"target {p_target!r} outside achievable range ({p_lo:.3e}, {p_hi:.6f})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if p_del_analytic(mid) > p_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return squeezing_to_db(0.5 * (lo + hi))


def vertex_disconnect_prob(p_del: float, n_rails: int) -> float:
    """Probability that all ``n_rails`` redundant rails of a vertex delete."""
    if not 0.0 <= p_del <= 1.0:
        raise ValueError(f"p_del must be in [0, 1], got {p_del}")
    if n_rails < 1:
        raise ValueError(f"n_rails must be >= 1, got {n_rails}")
    return float(p_del**n_rails)
