"""Dense N-qubit state-vector and density-matrix engine.

The engine is an oracle: the protocol's production path is checked
against it, not built from it.  It provides cluster states, diagonal
phase gates, Pauli gates, the two-outcome amplitude-balancing POVM in
``l = log gamma``, single-site dephasing, and fidelity / trace-distance
metrics.  It is the one home of the graph's entangling diagonal
(:func:`graph_phases`) and of the dense size cap.

Conventions
-----------
* Qubit order is little-endian: qubit ``i`` is bit ``i`` of the basis
  index, so ``|b_{n-1} ... b_1 b_0>`` sits at index ``sum_i b_i 2**i``.
* ``RZ(theta) = exp(-i Z theta / 2)``; relative to ``|0>``, the ``|1>``
  amplitude picks up ``exp(+i theta)``.
* State comparisons are phase-insensitive throughout (fidelity, overlap
  magnitude, trace distance); raw amplitude equality is never asserted.

There is one builder per state: :func:`cluster_state` (an edgeless
``Graph(n)`` gives ``|+>^n``), ``QubitPureState(n, amps)`` for any other
vector, and :func:`dm_tensor` for products.  Everything is dense, so every
entry point that builds a register, the two checked constructors included,
refuses more than ``DEFAULT_MAX_QUBITS`` qubits before it allocates
anything.  Float checks run only on input from outside
(``QubitPureState(n, amps)``, ``QubitDensityMatrix(n, rho)``): a gate
builds its result exactly Hermitian, with norm or trace 1 up to rounding,
and stores it through :func:`_from_exact` or :func:`_pure_from_exact` with
no float test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import _GRAPH_CACHE_SIZE, SQRT_PI, Graph, neighbor_phase

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "QubitPureState",
    "QubitDensityMatrix",
    "cluster_state",
    "graph_phases",
    "apply_rz",
    "apply_x",
    "apply_z",
    "inner",
    "dm_tensor",
    "dm_apply_cz",
    "apply_dephasing",
    "balancing_povm_diagonals",
    "apply_balancing_povm",
    "PovmResult",
    "fidelity",
    "trace_distance",
    "stabilizer_residual",
    "postprocessing_equivalence",
]

DEFAULT_MAX_QUBITS = 12

_NORM_TOL = 1e-12
_HERMITIAN_TILE = 128  # side of the square tiles of the Hermiticity check and copy


def _check_dense_size(n: int) -> None:
    """Refuse registers above the dense cap; call before allocating."""
    if n > DEFAULT_MAX_QUBITS:
        raise ValueError(
            f"{n} qubits exceeds the dense-simulation cap of {DEFAULT_MAX_QUBITS}"
        )


def _bits(n: int) -> np.ndarray:
    """All 2^n bitstrings as a ``(2^n, n)`` 0/1 table, qubit ``i`` in column ``i``."""
    return (np.arange(2**n)[:, None] >> np.arange(n)) & 1


def _bit(n: int, site: int) -> np.ndarray:
    """Value of bit ``site`` for every basis index of an n-qubit register."""
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for {n} qubits")
    return (np.arange(2**n) >> site) & 1


def _tensor_product(factors, one: np.ndarray) -> np.ndarray:
    """Product of matrices from ``one`` on, each factor on the next higher bits
    (little-endian): per factor one broadcast ``np.kron(factor, out)``."""
    out = one
    for f in factors:
        out = (f[:, None, :, None] * out[None, :, None, :]).reshape(f.shape[0] * out.shape[0], -1)
    return out


def _hermitian_from_lower(rho: np.ndarray) -> np.ndarray:
    """``rho`` made exactly Hermitian in place from its lower triangle: a
    product can round ``M_ij`` and ``M_ji`` apart (NumPy's complex product may
    fuse a multiply-add; ``(w_i x) w_j`` and ``(w_j x) w_i`` differ).  The
    copy runs over tile pairs (I, J > I), as the Hermiticity check does, so
    its temporaries are tile-sized, not register-sized."""
    t = _HERMITIAN_TILE
    for i in range(0, len(rho), t):
        diag = rho[i : i + t, i : i + t]
        np.copyto(diag, diag.conj().T, where=~np.tri(len(diag), dtype=bool))
        for j in range(i + t, len(rho), t):
            np.conjugate(rho[j : j + t, i : i + t].T, out=rho[i : i + t, j : j + t])
    np.fill_diagonal(rho.imag, 0.0)
    return rho


class QubitPureState:
    """Normalized pure state of ``n`` qubits stored as a dense vector."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps, *, normalize: bool = False):
        _check_dense_size(n)  # before the copy, and before density_matrix() squares it
        amps = np.array(amps, dtype=complex)
        if amps.shape != (2**n,):
            raise ValueError(f"expected {2**n} amplitudes, got shape {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if normalize:
            if not norm > 0.0:
                raise ValueError(f"cannot normalize a vector of norm {norm!r}")
            amps = amps / norm
        elif not abs(norm - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"state is not normalized: |psi| = {norm!r}")
        self.n = n
        self.amps = amps

    def density_matrix(self) -> "QubitDensityMatrix":
        return _from_exact(self.n, _hermitian_from_lower(np.outer(self.amps, self.amps.conj())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QubitPureState(n={self.n})"


class QubitDensityMatrix:
    """Mixed state of ``n`` qubits: Hermitian, unit trace, dense."""

    __slots__ = ("n", "rho")

    def __init__(self, n: int, rho):
        _check_dense_size(n)
        rho = np.asarray(rho)
        if rho.dtype not in (np.float64, np.complex128):
            rho = rho.astype(complex)
        dim = 2**n
        if rho.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {rho.shape}")
        # checked on the input's own dtype (a real register at half the
        # bytes), in tile pairs (I, J >= I) small enough that the transposed
        # read of a power-of-two stride stays in cache
        t = _HERMITIAN_TILE
        for i in range(0, dim, t):
            for j in range(i, dim, t):
                tile = rho[i : i + t, j : j + t] - rho[j : j + t, i : i + t].conj().T
                herm_dev = float(np.abs(tile).max())
                if not herm_dev <= 1e-12:  # NaN fails too
                    raise ValueError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
        rho = np.array(rho, dtype=complex)  # always a fresh copy: never the caller's array
        tr = float(rho.trace().real)
        if not abs(tr - 1.0) <= 1e-12:
            raise ValueError(f"trace is {tr!r}, expected 1")
        self.n = n
        self.rho = rho

    def purity(self) -> float:
        return float(np.vdot(self.rho, self.rho).real)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QubitDensityMatrix(n={self.n})"


def _from_exact(n: int, rho: np.ndarray) -> QubitDensityMatrix:
    """The register with the fresh complex matrix ``rho``, stored without a
    copy or a float test: the caller builds it exactly Hermitian with unit
    trace up to rounding (``QubitDensityMatrix(n, rho)`` checks one from outside)."""
    state = object.__new__(QubitDensityMatrix)
    state.n, state.rho = n, rho
    return state


def _pure_from_exact(n: int, amps: np.ndarray) -> QubitPureState:
    """:func:`_from_exact` for fresh amplitudes of unit norm up to rounding."""
    state = object.__new__(QubitPureState)
    state.n, state.amps = n, amps.astype(complex, copy=False)
    return state


# ---------------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def graph_phases(graph: Graph) -> np.ndarray:
    """Diagonal ``s(b) = prod_edges (-1)^(b_i b_j)`` of the CZ entangling layer.

    Real and exactly ``+-1``: the graph-state sign rule of Hein, Eisert
    and Briegel (PRA 69, 062311).  Built once per graph and shared, so
    the array is read-only.
    """
    _check_dense_size(graph.n)
    bits = _bits(graph.n)
    both = np.zeros(2**graph.n, dtype=int)  # edges with both ends set
    for i, j in graph.edges:
        both += bits[:, i] & bits[:, j]
    phases = np.where(both % 2 == 1, -1.0, 1.0)
    phases.flags.writeable = False
    return phases


def cluster_state(graph: Graph) -> QubitPureState:
    """Graph state ``prod_edges CZ_ij |+>^n``.

    Every amplitude has modulus ``2**(-n/2)``; the edge set only toggles
    signs ``(-1)**(b_i b_j)``, so an edgeless ``Graph(n)`` gives ``|+>^n``.
    """
    return _pure_from_exact(graph.n, 2 ** (-graph.n / 2) * graph_phases(graph))


# ---------------------------------------------------------------------------
# gates on pure states
# ---------------------------------------------------------------------------

def apply_rz(psi: QubitPureState, site: int, theta: float) -> QubitPureState:
    """``RZ(theta) = exp(-i Z theta / 2)`` on one qubit; ``theta`` must be finite."""
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    b = _bit(psi.n, site)
    phase = np.where(b == 1, np.exp(0.5j * theta), np.exp(-0.5j * theta))
    return _pure_from_exact(psi.n, psi.amps * phase)


def apply_x(psi: QubitPureState, site: int) -> QubitPureState:
    _bit(psi.n, site)
    flipped = np.arange(2**psi.n) ^ (1 << site)
    return _pure_from_exact(psi.n, psi.amps[flipped])


def apply_z(psi: QubitPureState, site: int) -> QubitPureState:
    amps = psi.amps.copy()
    amps[_bit(psi.n, site) == 1] *= -1.0
    return _pure_from_exact(psi.n, amps)


def inner(a: QubitPureState, b: QubitPureState) -> complex:
    if a.n != b.n:
        raise ValueError("states act on different register sizes")
    return complex(np.vdot(a.amps, b.amps))


# ---------------------------------------------------------------------------
# density-matrix operations
# ---------------------------------------------------------------------------

def dm_tensor(dms: list[QubitDensityMatrix]) -> QubitDensityMatrix:
    """Tensor product with qubit 0 of ``dms[0]`` as the least significant bit."""
    n = sum(d.n for d in dms)
    _check_dense_size(n)
    rho = _tensor_product([d.rho for d in dms], np.ones((1, 1), dtype=complex))
    return _from_exact(n, rho)


def dm_apply_cz(rho: QubitDensityMatrix, i: int, j: int) -> QubitDensityMatrix:
    if i == j:
        raise ValueError("CZ needs two distinct qubits")
    both = _bit(rho.n, i) & _bit(rho.n, j)
    sign = np.where(both == 1, -1.0, 1.0)
    return _from_exact(rho.n, rho.rho * np.outer(sign, sign))


def apply_dephasing(
    rho: QubitDensityMatrix, site: int, p_phi: float
) -> QubitDensityMatrix:
    """Phase-flip channel ``rho -> (1 - p) rho + p Z rho Z`` on one qubit."""
    if not 0.0 <= p_phi <= 0.5:
        raise ValueError(f"dephasing probability must be in [0, 1/2], got {p_phi}")
    z = np.where(_bit(rho.n, site) == 1, -1.0, 1.0)
    flipped = z[:, None] * rho.rho * z[None, :]
    return _from_exact(rho.n, (1.0 - p_phi) * rho.rho + p_phi * flipped)


# ---------------------------------------------------------------------------
# amplitude-balancing POVM
# ---------------------------------------------------------------------------

def balancing_povm_diagonals(log_gamma: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Single-qubit POVM diagonals ``(m_keep, m_delete, deleted_bit)`` for
    the log imbalance ``l = log gamma``.

    ``m_keep = diag(e^{min(l, 0)}, e^{-max(l, 0)})`` scales the dominant
    amplitude down to the other one, rebalancing the superposition; the
    delete operator ``sqrt(1 - e^{-2 |l|})`` acts on the dominant bit
    ``deleted_bit = (l > 0)`` alone, collapsing onto it.  So
    ``m_keep^2 + m_delete^2 = 1`` elementwise (completeness) for every
    ``l``, and ``l = +-inf`` is a basis-state POVM; NaN is refused.
    """
    ell = float(log_gamma)
    if math.isnan(ell):
        raise ValueError(f"log imbalance must not be NaN, got {log_gamma}")
    keep = np.exp([min(ell, 0.0), -max(ell, 0.0)])
    deleted_bit = int(ell > 0.0)
    delete = np.zeros(2)
    delete[deleted_bit] = math.sqrt(-math.expm1(-2.0 * abs(ell)))
    return keep, delete, deleted_bit


@dataclass(frozen=True)
class PovmResult:
    outcome: str  # "keep" or "delete"
    probability: float
    state: QubitDensityMatrix
    collapsed_bit: int | None  # None on keep; 0/1 on delete


def apply_balancing_povm(
    rho: QubitDensityMatrix, site: int, log_gamma: float, force: str
) -> PovmResult:
    """Two-outcome balancing measurement on one qubit of a register.

    The keep branch restores a balanced superposition on the target qubit
    (probability ``2 e / (1 + e)``, ``e = exp(-2 |log_gamma|)``, when the
    qubit was in the imbalanced pure state); the delete branch projects onto a
    computational basis state of known value, i.e. a located erasure.
    ``force`` names the branch to realize, drawn by the caller; a branch
    of zero probability is refused.
    """
    keep, delete, deleted_bit = balancing_povm_diagonals(log_gamma)
    if force not in ("keep", "delete"):
        raise ValueError(f"force must be 'keep' or 'delete', got {force!r}")
    weights = (keep if force == "keep" else delete)[_bit(rho.n, site)]
    prob = float(np.sum(weights**2 * rho.rho.diagonal().real))
    if prob <= 0.0:
        raise ValueError(f"cannot realize zero-probability outcome {force!r}")
    # a complex register divided by a subnormal prob overflows, and such a
    # prob has too few digits for unit trace: scale the weights, then normalize
    weights = weights / math.sqrt(prob)
    post = _hermitian_from_lower(weights[:, None] * rho.rho * weights[None, :])
    post /= post.trace().real
    return PovmResult(
        force,
        prob,
        _from_exact(rho.n, post),
        None if force == "keep" else deleted_bit,
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(a, b) -> float:
    """Uhlmann fidelity; accepts pure states and density matrices mixed freely.

    Pure/pure reduces to ``|<a|b>|^2``, pure/mixed to ``<psi|rho|psi>``; mixed/mixed
    sums the singular values of ``sqrt(a) sqrt(b)``, free of the root of round-off.
    """
    pure_a = isinstance(a, QubitPureState)
    pure_b = isinstance(b, QubitPureState)
    if pure_a and pure_b:
        return float(abs(inner(a, b)) ** 2)
    if pure_a or pure_b:
        psi, rho = (a, b) if pure_a else (b, a)
        val = float(np.real(np.vdot(psi.amps, rho.rho @ psi.amps)))
        return min(max(val, 0.0), 1.0)
    return float(np.sum(np.linalg.svd(_psd_sqrt(a.rho) @ _psd_sqrt(b.rho), compute_uv=False)) ** 2)


def trace_distance(a, b) -> float:
    """``(1/2) || rho_a - rho_b ||_1``."""
    rho_a = a.density_matrix().rho if isinstance(a, QubitPureState) else a.rho
    rho_b = b.density_matrix().rho if isinstance(b, QubitPureState) else b.rho
    vals = np.linalg.eigvalsh(rho_a - rho_b)
    return float(0.5 * np.sum(np.abs(vals)))


# ---------------------------------------------------------------------------
# cluster-state identities
# ---------------------------------------------------------------------------

def stabilizer_residual(psi: QubitPureState, graph: Graph, vertex: int) -> float:
    """Norm of ``(X_v prod_{j ~ v} Z_j - 1) |psi>``.

    Zero exactly on the graph state of ``graph``; ``sqrt(2)`` for a state
    orthogonal to its own stabilizer image (e.g. ``|0...0>`` on an
    edgeless graph).
    """
    out = apply_x(psi, vertex)
    for i, j in graph.edges:
        if i == vertex:
            out = apply_z(out, j)
        elif j == vertex:
            out = apply_z(out, i)
    return float(np.linalg.norm(out.amps - psi.amps))


def postprocessing_equivalence(graph: Graph, l, mu) -> float:
    """Deviation between the two equivalent outcome-correction orders.

    Writing each measured outcome as ``q = sqrt(pi) l + mu`` with integer
    part ``l`` and remainder ``mu``, applying ``X^{l_i}`` byproducts first
    and then phases built from the remainders alone must match applying
    phases built from the full outcomes, up to global phase:

        prod_k RZ(-theta_k) prod_i X_i^{l_i} |G>
            ~ prod_k RZ(-phi_k) |G>,

    with ``theta = sqrt(pi) A mu`` and ``phi = sqrt(pi) A q``.  Returns
    ``1 - |overlap|``, which is zero when the identity holds.  An ``l``
    entry that is not a whole number is refused, not truncated.
    """
    l = np.asarray(l)
    mu = np.asarray(mu, dtype=float)
    if l.shape != (graph.n,) or mu.shape != (graph.n,):
        raise ValueError("l and mu must each have one entry per vertex")
    if l.dtype.kind not in "iuf" or not np.all(np.isfinite(l) & (l == np.floor(l))):
        raise ValueError(f"l must hold whole numbers, got {l.tolist()!r}")
    psi_g = cluster_state(graph)

    lhs = psi_g
    for i in range(graph.n):
        if l[i] % 2:
            lhs = apply_x(lhs, i)
    theta = neighbor_phase(graph, mu)
    for k in range(graph.n):
        lhs = apply_rz(lhs, k, -theta[k])

    phi = neighbor_phase(graph, SQRT_PI * l + mu)
    rhs = psi_g
    for k in range(graph.n):
        rhs = apply_rz(rhs, k, -phi[k])

    return float(1.0 - abs(inner(lhs, rhs)))
