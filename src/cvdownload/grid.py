"""Brute-force discretized-quadrature simulator of the hybrid circuit.

One or two bosonic modes live on a uniform q grid with spacing
``dq = sqrt(pi) / k``, so the conditional displacement by ``sqrt(pi)`` is
an exact shift by ``k`` cells and never interpolates; discretization
error is confined to the initial Gaussian and to the measurement
statistics.  Each mode carries one partner qubit prepared in ``|+>``.

Amplitudes are indexed ``amps[g_1, ..., g_m, b]`` where ``g_s`` is the
grid index of mode ``s`` and ``b`` the little-endian qubit bitstring
(qubit ``s`` belongs to mode ``s``).  Normalization counts the cell
volume: ``sum |amps|^2 dq^m = 1``.

This module exists as an independent oracle for the analytic protocol
states: it knows nothing about conditional wavefunctions, imbalances or
mixtures, only about arrays of amplitudes and elementwise phases.
"""

from __future__ import annotations

import math

import numpy as np

from .error_model import SQRT_PI, squeezed_vacuum_psi
from .qubits import QubitPureState

__all__ = [
    "MIN_CELLS_PER_SHIFT",
    "BOUNDARY_MASS_TOL",
    "HybridGridState",
    "required_length",
    "make_grid_state",
    "apply_cphase_grid",
    "apply_cd_grid",
    "measure_q_grid",
    "mode_marginal",
    "total_mass",
]

MIN_CELLS_PER_SHIFT = 16
BOUNDARY_MASS_TOL = 1e-10


class HybridGridState:
    """Mutable array state of ``modes`` gridded modes plus their qubits."""

    __slots__ = ("modes", "k", "dq", "grid", "amps")

    def __init__(self, modes: int, k: int, grid: np.ndarray, amps: np.ndarray):
        self.modes = modes
        self.k = k
        self.dq = SQRT_PI / k
        self.grid = grid
        self.amps = amps

    @property
    def cells(self) -> int:
        return len(self.grid)


def required_length(r0: float) -> float:
    """Minimum half-width: six standard-deviation-scales plus one shift."""
    return 6.0 * max(math.exp(r0), 1.0) + SQRT_PI


def total_mass(state: HybridGridState) -> float:
    """``sum |amps|^2 dq^m`` - exactly 1 after initialization."""
    return float(np.sum(np.abs(state.amps) ** 2) * state.dq**state.modes)


def make_grid_state(r0: float, modes: int, k: int = 64) -> HybridGridState:
    """Squeezed vacuum on every mode, ``|+>`` on every qubit.

    ``k`` cells per sqrt(pi) shift (at least 16); the grid spans
    ``[-length, length)`` with ``length =`` :func:`required_length`, so
    that tails and one full displacement fit.
    """
    if modes not in (1, 2):
        raise ValueError(f"grid simulator supports 1 or 2 modes, got {modes}")
    if k < MIN_CELLS_PER_SHIFT:
        raise ValueError(f"k must be >= {MIN_CELLS_PER_SHIFT}, got {k}")
    length = required_length(r0)
    dq = SQRT_PI / k
    cells = int(math.ceil(2.0 * length / dq))
    grid = -length + dq * np.arange(cells)
    psi = squeezed_vacuum_psi(grid, r0).astype(complex)

    if modes == 1:
        mode_amps = psi
    else:
        mode_amps = np.multiply.outer(psi, psi)
    amps = np.repeat(mode_amps[..., None], 2**modes, axis=-1) * 2 ** (-modes / 2)

    state = HybridGridState(modes, k, grid, amps)
    state.amps /= math.sqrt(total_mass(state))
    return state


def apply_cphase_grid(state: HybridGridState) -> HybridGridState:
    """Elementwise two-mode phase ``exp(i q_0 q_1)`` (in place)."""
    if state.modes != 2:
        raise ValueError("CPHASE needs a two-mode grid state")
    phase = np.exp(1j * np.multiply.outer(state.grid, state.grid))
    state.amps *= phase[..., None]
    return state


def apply_cd_grid(state: HybridGridState, mode: int) -> HybridGridState:
    """Conditional displacement: shift mode ``mode`` by ``+sqrt(pi)`` (exactly
    ``k`` cells) on the components where its partner qubit is ``|1>``.

    Amplitude about to be pushed past the grid edge must be negligible
    (mass below ``BOUNDARY_MASS_TOL``), otherwise the truncation would
    corrupt the state and an error is raised instead.
    """
    if not 0 <= mode < state.modes:
        raise ValueError(f"mode {mode} out of range for {state.modes} modes")
    k = state.k
    cell_volume = state.dq**state.modes
    moved = np.moveaxis(state.amps, mode, 0)  # view; last axis is still qubits
    bit_one = [b for b in range(2**state.modes) if (b >> mode) & 1]
    boundary_mass = 0.0
    for b in bit_one:
        boundary_mass += float(np.sum(np.abs(moved[-k:, ..., b]) ** 2) * cell_volume)
    if boundary_mass >= BOUNDARY_MASS_TOL:
        raise ValueError(
            f"conditional displacement would push mass {boundary_mass:.3e} "
            f"past the grid edge; the grid fits one displacement per mode"
        )
    for b in bit_one:
        block = moved[..., b]
        shifted = np.zeros_like(block)
        shifted[k:] = block[:-k]
        moved[..., b] = shifted
    return state


def mode_marginal(state: HybridGridState, mode: int) -> np.ndarray:
    """Probability of each grid point for one mode (sums to 1)."""
    if not 0 <= mode < state.modes:
        raise ValueError(f"mode {mode} out of range for {state.modes} modes")
    prob = np.abs(state.amps) ** 2
    axes = tuple(ax for ax in range(state.modes) if ax != mode) + (state.modes,)
    marg = prob.sum(axis=axes) * state.dq**state.modes
    return marg / marg.sum()


def measure_q_grid(
    state: HybridGridState, rng: np.random.Generator
) -> tuple[np.ndarray, QubitPureState]:
    """Measure q on every mode; returns the grid-point outcomes and the
    collapsed qubit register (the modes are consumed).

    The joint outcome is sampled from ``|amps|^2`` summed over qubit
    components; the qubit register collapses to the amplitudes at that
    grid point, renormalized.
    """
    weights = (np.abs(state.amps) ** 2).sum(axis=-1).ravel()
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("state has no probability mass")
    cdf = np.cumsum(weights / total)
    flat_index = int(np.searchsorted(cdf, rng.random(), side="right"))
    flat_index = min(flat_index, len(weights) - 1)
    indices = np.unravel_index(flat_index, state.amps.shape[: state.modes])
    q_values = state.grid[np.array(indices)]
    qubit = QubitPureState(state.modes, state.amps[indices], normalize=True)
    return q_values, qubit
