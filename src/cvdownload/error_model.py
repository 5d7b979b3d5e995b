"""Closed-form single-qubit error laws for the downloading protocol.

Measuring the q quadrature of a p-squeezed mode (q variance
``exp(2 r0) / 2``) that carries one qubit of a superposition leaves the
qubit in

    psi(q) |0> + psi(q - sqrt(pi)) |1>   (unnormalized),

where ``psi`` is the squeezed-vacuum wavefunction.  Everything in this
module follows from that one state:

* the outcome density ``P(q)`` is an equal mixture of two Gaussians
  centered at 0 and sqrt(pi);
* the amplitude imbalance ``gamma(q)`` has the log ``l = sqrt(pi) (2 q -
  sqrt(pi)) / (2 exp(2 r0))``, zero exactly at ``q = sqrt(pi) / 2``;
* the balancing POVM keeps the qubit with probability ``2 e / (1 + e)``,
  ``e = exp(-2 |l|)``, and averaging over outcomes gives the deletion
  probability ``erf(exp(-r0) sqrt(pi) / 2)``;
* a p displacement ``p0`` multiplies the ``|1>`` amplitude by
  ``exp(-i p0 sqrt(pi))``, so Gaussian p-displacement noise of parameter
  variance ``sigma^2`` dephases the kept qubit with probability
  ``(1 - exp(-pi sigma^2 / 2)) / 2``.

The imbalance laws take ``l`` (:func:`log_imbalance`) and hold for every
float ``l`` but NaN; ``gamma`` (:func:`amplitude_imbalance`) is only reported.

Squeezing is quoted in dB through the variance ratio convention
``dB = 10 log10(exp(2 r0))``.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian import _check_r0
from .graphs import SQRT_PI, _is_int
from .qubits import QubitPureState

__all__ = [
    "SQRT_PI",
    "squeezed_vacuum_psi",
    "outcome_density",
    "sample_q",
    "log_imbalance",
    "amplitude_imbalance",
    "keep_probability",
    "qubit_given_outcome",
    "p_del_analytic",
    "p_succ_quadrature",
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
    if not (_is_int(shots) and shots >= 1):
        raise ValueError(f"shots must be an integer >= 1, got {shots!r}")
    centers = SQRT_PI * rng.integers(0, 2, size=shots)
    # bit for bit rng.normal(centers, scale), which NumPy forms as loc + scale * z,
    # without its per-call argument checks
    return centers + math.exp(r0) / math.sqrt(2.0) * rng.standard_normal(shots)


def log_imbalance(q, r0: float):
    """``l = log gamma(q) = sqrt(pi) (2 q - sqrt(pi)) / (2 e^{2 r0})``, for a
    float, a sequence or an array of outcomes; ``+-inf``, without a warning,
    where it leaves the float range (a basis state, kept with probability 0)."""
    with np.errstate(over="ignore"):
        return SQRT_PI * (2.0 * np.asarray(q) - SQRT_PI) / (2.0 * math.exp(2.0 * r0))


def amplitude_imbalance(q, r0: float):
    """``gamma(q) = |<1|psi_q>| / |<0|psi_q>| = exp(l)``; below 1 exactly when
    q < sqrt(pi)/2, ``inf`` (without a warning) where ``l`` exceeds the float
    range.  Reported only: the law itself is computed from ``l``.
    """
    with np.errstate(over="ignore"):
        return np.exp(log_imbalance(q, r0))


def keep_probability(log_gamma):
    """Keep probability of the balancing POVM, ``2 e / (1 + e)`` with
    ``e = exp(-2 |l|)``: exactly 1 at ``l = 0`` and 0 at ``l = +-inf``.
    """
    # |l| clamped at 400, where e is exactly 0 as at +-inf, so -2 |l| cannot
    # overflow; the rounding error of s = 1 + e corrects the quotient
    e = np.exp(-2.0 * np.minimum(np.abs(log_gamma), 400.0))
    s = 1.0 + e
    err = (1.0 - s) + e
    q = 2.0 * e / s
    return q - q * (err / s)


def qubit_given_outcome(q: float, r0: float) -> QubitPureState:
    """Normalized qubit state conditioned on outcome ``q``.

    Amplitudes are proportional to ``(psi(q), psi(q - sqrt(pi)))``, that is
    to ``(e^{-max(l, 0)}, e^{min(l, 0)})``, so outcomes far into either
    Gaussian tail give finite rows and, at ``l = +-inf``, a basis state.
    """
    ell = log_imbalance(q, r0)
    return QubitPureState(1, np.exp([-max(ell, 0.0), min(ell, 0.0)]), normalize=True)


def p_del_analytic(r0: float) -> float:
    """Per-qubit deletion probability ``erf(exp(-r0) sqrt(pi) / 2)``."""
    return math.erf(math.exp(-r0) * SQRT_PI / 2.0)


def p_succ_quadrature(r0: float) -> float:
    """Keep probability by direct numerical quadrature of ``P(q) p_keep(q)``.

    Exists as an independent cross-check of the closed form
    ``erfc(exp(-r0) sqrt(pi) / 2)``; the integrand is smooth and the
    adaptive quadrature is pushed well below the comparison tolerance.
    ``scipy.integrate`` (and the ``scipy.optimize`` it loads) is imported
    here, so ``import cvdownload`` loads neither.
    """
    from scipy import integrate

    def integrand(q: float) -> float:
        return float(
            outcome_density(q, r0) * keep_probability(log_imbalance(q, r0))
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


def squeezing_db_for_pdel(p_target: float) -> float:
    """Invert the deletion law: squeezing (dB) that yields ``p_del = p_target``.

    ``erf(exp(-r0) sqrt(pi) / 2) = p`` solves in closed form to
    ``r0 = -log(2 erfinv(p) / sqrt(pi))`` for every ``p`` in (0, 1); a ``p``
    outside (0, 1), NaN included, is refused, and so is one whose ``r0``
    lies beyond ``+-R0_LIMIT``: ``p < p_del(R0_LIMIT)``, about 1.3e-154.
    ``scipy.special`` is imported here, so ``import cvdownload`` does not load it.
    """
    from scipy import special

    if not 0.0 < p_target < 1.0:
        raise ValueError(f"target {p_target!r} is not a deletion probability in (0, 1)")
    r0 = -math.log(2.0 * float(special.erfinv(p_target)) / SQRT_PI)
    _check_r0(r0, f"the r0 of target {p_target!r}")
    return squeezing_to_db(r0)


def vertex_disconnect_prob(p_del: float, n_rails: int) -> float:
    """Probability that all ``n_rails`` redundant rails of a vertex delete.

    Any ``n_rails`` is taken, also one beyond the float range: ``p_del**n``
    for ``n >= 2**64`` is exactly 0.0 for every float ``p_del < 1`` (at most
    ``exp(-2**64 / 2**53)``), and 1.0 at ``p_del == 1``.
    """
    if not 0.0 <= p_del <= 1.0:
        raise ValueError(f"p_del must be in [0, 1], got {p_del}")
    if not (_is_int(n_rails) and n_rails >= 1):
        raise ValueError(f"n_rails must be an integer >= 1, got {n_rails!r}")
    return float(p_del ** min(n_rails, 2**64))
