"""Brute-force discretized-quadrature simulator of the hybrid circuit.

One or two bosonic modes live on a uniform q grid with spacing
``dq = sqrt(pi) / k``, so the conditional displacement by ``sqrt(pi)`` is
an exact shift by ``k`` cells and never interpolates; discretization
error is confined to the initial Gaussian and to the measurement
statistics.  Each mode carries one partner qubit prepared in ``|+>``.

Amplitudes are indexed ``amps[b, g_1, ..., g_m]`` where ``b`` is the
little-endian qubit bitstring (qubit ``s`` belongs to mode ``s``) and
``g_s`` the grid index of mode ``s``.  Each bitstring component
``amps[b]`` is one contiguous plane, so every gate is a whole-plane
operation.  Normalization counts the cell volume:
``sum |amps|^2 dq^m = 1``.

A made state's ``amps`` is read-only: only the gates write it, each
reopening it for its own in-place write.  So the measurement keeps one
table of slab masses per prepared state and reuses it for every draw until
a gate writes, and an outside in-place write raises instead of leaving
that table stale.

This module exists as an independent oracle for the analytic protocol
states: it knows nothing about conditional wavefunctions, imbalances or
mixtures, only about arrays of amplitudes and elementwise phases.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .error_model import SQRT_PI, squeezed_vacuum_psi
from .gaussian import _check_r0
from .graphs import _is_int
from .qubits import DEFAULT_MAX_QUBITS, QubitPureState

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
_CHUNK = 1 << 16  # cells per pass of the per-cell sum in ``_abs2``
_SHIFT_CELLS = 1 << 13  # cells (128 KB) in the cache-sized temporary of the last-axis shift


class HybridGridState:
    """Array state of ``modes`` gridded modes plus their qubits.

    The gates change it in place.  ``_slabs`` holds the measurement's slab
    table as ``(amps, slab_cdf)``: one slab table per prepared state,
    reused until a gate writes.  It is kept only for a read-only ``amps``
    (every made state's), so a hand-built state with a writable array is
    re-read on every draw.
    """

    __slots__ = ("modes", "k", "dq", "grid", "amps", "_slabs")

    def __init__(self, modes: int, k: int, grid: np.ndarray, amps: np.ndarray):
        self.modes = modes
        self.k = k
        self.dq = SQRT_PI / k
        self.grid = grid
        self.amps = amps
        self._slabs = None

    @property
    def cells(self) -> int:
        return len(self.grid)


@contextmanager
def _writing(state: HybridGridState):
    """``state.amps``, open for one gate's in-place write: the slab table
    is dropped, and the array's write flag is restored afterwards."""
    amps = state.amps
    state._slabs = None
    writeable = amps.flags.writeable
    amps.flags.writeable = True
    try:
        yield amps
    finally:
        amps.flags.writeable = writeable


def required_length(r0: float) -> float:
    """Minimum half-width: six standard-deviation-scales plus one shift."""
    return 6.0 * max(math.exp(r0), 1.0) + SQRT_PI


def _abs2(planes: np.ndarray, per_cell: bool = False) -> float | np.ndarray:
    """``sum |planes|^2``, as sums of squares of the float view (real and
    imaginary parts interleaved), with no complex or ``np.abs`` temporaries.

    By default the sum runs over every entry and a float is returned; it is
    an ``einsum``, not a BLAS dot product, whose split across threads
    would move the last bits with the thread count.  With
    ``per_cell`` it runs over the leading (bitstring) axis only and returns
    one float per cell, shaped like ``planes[0]``; it is built ``_CHUNK``
    cells at a time, so its only temporary is a fraction of a plane.
    """
    if not per_cell:
        if not planes.flags.c_contiguous:  # a 2-d view with a contiguous last axis: no copy
            rows = planes.view(float)
            return float(np.einsum("ij,ij->", rows, rows))
        flat = planes.reshape(-1).view(float)
        return float(np.einsum("i,i->", flat, flat))
    flat = planes.reshape(len(planes), -1).view(float)
    out = np.empty(flat.shape[1] // 2)
    for start in range(0, len(out), _CHUNK):
        part = flat[:, 2 * start : 2 * (start + _CHUNK)]
        squares = np.einsum("bx,bx->x", part, part)
        np.add(squares[0::2], squares[1::2], out=out[start : start + _CHUNK])
    return out.reshape(planes.shape[1:])


def total_mass(state: HybridGridState) -> float:
    """``sum |amps|^2 dq^m`` - exactly 1 after initialization."""
    return _abs2(state.amps) * state.dq**state.modes


def make_grid_state(r0: float, modes: int, k: int = 64) -> HybridGridState:
    """Squeezed vacuum on every mode, ``|+>`` on every qubit.

    ``k`` cells per sqrt(pi) shift (an integer, at least 16); the grid spans
    ``[-length, length)`` with ``length =`` :func:`required_length`, so
    that tails and one full displacement fit.  Refused before allocating:
    ``r0`` beyond ``+-R0_LIMIT`` (the source's own range, where
    ``e^{2 r0}`` leaves the float range) and grids of more amplitudes than
    the largest dense register; refused before normalizing: a squeezed
    vacuum so narrow that it puts no mass on any cell.  The state's
    ``amps`` is read-only; the gates reopen it for their own writes.
    """
    if not (_is_int(modes) and modes in (1, 2)):
        raise ValueError(f"grid simulator supports 1 or 2 modes, got {modes!r}")
    if not (_is_int(k) and k >= MIN_CELLS_PER_SHIFT):
        raise ValueError(f"k must be an integer >= {MIN_CELLS_PER_SHIFT}, got {k!r}")
    _check_r0(r0)
    length = required_length(r0)
    dq = SQRT_PI / k
    cells = math.ceil(2.0 * length / dq)  # an exact int, however large
    if 2**modes * cells**modes > 4**DEFAULT_MAX_QUBITS:
        raise ValueError(f"r0 = {r0!r} needs {modes} mode(s) of {cells:.6g} cells, more amplitudes"
                         f" than the dense budget 4**DEFAULT_MAX_QUBITS = {4**DEFAULT_MAX_QUBITS}")
    grid = -length + dq * np.arange(cells)
    with np.errstate(over="ignore"):  # an exponent beyond the float range: amplitude 0
        psi = squeezed_vacuum_psi(grid, r0)

    # the real mode amplitude, scaled so that each of the 2^m bitstring
    # planes carries mass 2^-m, is written into every plane; one mode's mass
    # is checked before the cells^2 product of two is built
    mode_amps, mass = psi, _abs2(psi) * dq
    if modes == 2 and 0.0 < mass < math.inf:
        mode_amps = np.multiply.outer(psi, psi)
        mass = _abs2(mode_amps) * dq**2
    if not 0.0 < mass < math.inf:
        raise ValueError(f"r0 = {r0!r} puts mass {mass!r} on the grid, not a positive finite"
                         f" one: the squeezed vacuum is narrower than its cells of {dq:.3g}")
    mode_amps /= math.sqrt(2**modes * mass)
    amps = np.empty((2**modes,) + mode_amps.shape, dtype=complex)
    amps[...] = mode_amps
    amps.flags.writeable = False
    return HybridGridState(modes, k, grid, amps)


def apply_cphase_grid(state: HybridGridState) -> HybridGridState:
    """Elementwise two-mode phase ``exp(i q_0 q_1)`` (in place)."""
    if state.modes != 2:
        raise ValueError("CPHASE needs a two-mode grid state")
    # cos and sin written into one complex plane give exp(1j * angle)
    # (bit for bit with NumPy 2.4 on x86-64) without its complex temporaries
    phase = np.empty((state.cells, state.cells), dtype=complex)
    angle = np.multiply.outer(state.grid, state.grid, out=phase.real)
    np.sin(angle, out=phase.imag)
    np.cos(angle, out=phase.real)
    with _writing(state) as amps:
        amps *= phase
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
    k, cells = state.k, state.cells
    bits = [b for b in range(2**state.modes) if (b >> mode) & 1]
    edge = np.s_[-k:] if mode == 0 else np.s_[:, -k:]  # the cells about to leave the grid
    boundary_mass = sum(_abs2(state.amps[b][edge]) for b in bits)
    boundary_mass *= state.dq**state.modes
    if boundary_mass >= BOUNDARY_MASS_TOL:
        raise ValueError(
            f"conditional displacement would push mass {boundary_mass:.3e} "
            f"past the grid edge; the grid fits one displacement per mode"
        )
    # Every copy is a forward copy between disjoint memory (an overlapping
    # one runs as a reversed strided loop, about three times slower).  Along
    # the first axis the plane moves in k-row blocks, bottom-up, so no block
    # is read after it is written; along the last axis the rows move a few
    # at a time through one small reused temporary.  The k cells left
    # behind are zeroed.
    rows = max(1, _SHIFT_CELLS // cells)
    temp = np.empty((rows, cells - k), dtype=complex) if mode else None
    with _writing(state) as amps:
        for b in bits:
            plane = amps[b]
            if mode == 0:
                for end in range(cells, k, -k):
                    start = max(end - k, k)
                    plane[start:end] = plane[start - k : end - k]
                plane[:k] = 0.0
            else:
                for first in range(0, cells, rows):
                    block = plane[first : first + rows]
                    moved = temp[: len(block)]
                    np.copyto(moved, block[:, :-k])
                    block[:, k:] = moved
                    block[:, :k] = 0.0
    return state


def mode_marginal(state: HybridGridState, mode: int) -> np.ndarray:
    """Probability of each grid point for one mode (sums to 1)."""
    if not 0 <= mode < state.modes:
        raise ValueError(f"mode {mode} out of range for {state.modes} modes")
    prob = _abs2(state.amps, per_cell=True)
    others = tuple(ax for ax in range(state.modes) if ax != mode)
    marg = prob.sum(axis=others) * state.dq**state.modes
    return marg / marg.sum()


def measure_q_grid(
    state: HybridGridState, rng: np.random.Generator
) -> tuple[np.ndarray, QubitPureState]:
    """Measure q on every mode; returns the grid-point outcomes and the
    collapsed qubit register.

    The state is left unchanged, so each call is an independent draw from
    the same pre-measurement state.  The joint outcome is sampled from
    ``|amps|^2`` summed over qubit components, with one slab table per
    prepared state, reused until a gate writes: the first draw computes the
    cumulative masses of the slabs along the first mode's grid in one
    ``einsum`` pass.  Each draw's one uniform picks a slab by that table,
    then a cell within it, offset by the earlier slabs' mass.  The qubit
    register is the amplitudes at that grid point, renormalized.
    """
    amps = state.amps
    if state._slabs is not None and state._slabs[0] is amps and not amps.flags.writeable:
        slab_cdf = state._slabs[1]
    else:
        planes = amps.reshape(len(amps), state.cells, -1).view(float)
        slab_cdf = np.cumsum(sum(np.einsum("ij,ij->i", p, p) for p in planes))
        if not slab_cdf[-1] > 0.0:
            raise ValueError("state has no probability mass")
        state._slabs = None if amps.flags.writeable else (amps, slab_cdf)
    target = rng.random() * slab_cdf[-1]
    slab = min(int(np.searchsorted(slab_cdf, target, side="right")), len(slab_cdf) - 1)
    cell_cdf = np.cumsum(_abs2(amps[:, slab], per_cell=True).reshape(-1))
    if slab > 0:
        cell_cdf += slab_cdf[slab - 1]
    cell = min(int(np.searchsorted(cell_cdf, target, side="right")), len(cell_cdf) - 1)
    indices = (slab, *np.unravel_index(cell, amps.shape[2:]))
    q_values = state.grid[np.array(indices)]
    qubit = QubitPureState(state.modes, amps[(slice(None), *indices)], normalize=True)
    return q_values, qubit
