"""Monte Carlo simulation of the entanglement-downloading protocol.

One shot proceeds exactly as in hardware:

1. a continuous-variable cluster state is prepared by CPHASE gates on
   p-squeezed (possibly thermalized) modes, one ancilla qubit in ``|+>``
   per mode;
2. each mode is coupled to its qubit by a conditional displacement that
   shifts q by ``sqrt(pi)`` when the qubit is ``|1>``;
3. every mode's q quadrature is measured, each qubit receives the
   corrective phase ``RZ(-phi_i)`` with ``phi = sqrt(pi) A q``, and the
   amplitude-balancing POVM either keeps the qubit or deletes it into a
   known basis state (a located erasure).

Outcome sampling is exact and cheap because the CPHASE network only
contributes a phase in the q representation: the joint amplitude of
outcome ``q`` and qubit bitstring ``b`` is

    prod_i psi(q_i - sqrt(pi) b_i)
        * exp(i g/2 (q - sqrt(pi) b)^T A (q - sqrt(pi) b)) / 2^{n/2},

so ``|amplitude|^2`` is independent of the phase and the outcome density
``sum_b`` factorizes into the per-mode equal mixture of two Gaussians
``P(q_i)``.  No quadrature integration is ever needed.

Two independent constructions of the post-measurement qubit register are
provided.  The direct one evaluates the amplitude above (plus the phase
correction and, for thermal sources, the off-diagonal damping
``exp(-pi sigma^2 / 2 (b_i - b_i')^2)``).  The equivalent-circuit one
commutes the conditional displacements through the CPHASE network:
per-qubit conditional states, single-qubit dephasing at the thermal
rate, then the qubit CZ network of the same graph.  Their agreement is a
simulator-independent identity and is enforced in the tests.

The shot loop uses neither.  Once the balancing POVM has acted, every
error sits ahead of the diagonal entangling layer, so a shot's register
is fixed by its keep/delete pattern alone: a kept qubit is ``|+><+|``
dephased at the thermal rate, a deleted qubit is its basis state
``|b><b|``, and the graph contributes the diagonal phase
``s(b) = prod_edges exp(i pi g b_i b_j)``.  :func:`run_download` builds
that register in one pass; the gate-by-gate route (the equivalent
circuit followed by one forced POVM per qubit) is its oracle in the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .error_model import (
    SQRT_PI,
    amplitude_imbalance,
    dephasing_rate,
    keep_probability,
    p_del_analytic,
    qubit_given_outcome,
    sample_q,
)
from .gaussian import SqueezedThermalParams, mixture_params
from .graphs import Graph, adjacency_matrix
from .qubits import (
    DEFAULT_MAX_QUBITS,
    QubitDensityMatrix,
    apply_dephasing,
    cluster_state,
    dm_apply_cphase,
    dm_apply_cz,
    dm_tensor,
    fidelity,
)

__all__ = [
    "ProtocolParams",
    "DownloadRecord",
    "DownloadSummary",
    "sample_outcomes",
    "downloaded_state_direct",
    "downloaded_state_equivalent",
    "run_download",
]


@dataclass(frozen=True)
class ProtocolParams:
    """Full description of one protocol configuration.

    ``cphase_strength`` scales every CPHASE uniformly; at the default 1
    the downloaded register carries the qubit cluster state of ``graph``.
    ``seed`` feeds a documented splitting rule (one spawned child stream
    per shot), so runs are reproducible for any shot count.
    """

    graph: Graph
    source: SqueezedThermalParams
    cphase_strength: float = 1.0
    seed: int = 0

    def mixture(self):
        return mixture_params(self.source)


def sample_outcomes(params: ProtocolParams, rng: np.random.Generator) -> np.ndarray:
    """Draw one vector of q outcomes, one independent mixture draw per mode."""
    r0, _ = params.mixture()
    return sample_q(r0, params.graph.n, rng)


def _bit_matrix(n: int) -> np.ndarray:
    """All bitstrings as a ``(2^n, n)`` 0/1 matrix, little-endian columns."""
    idx = np.arange(2**n)
    return ((idx[:, None] >> np.arange(n)[None, :]) & 1).astype(float)


def downloaded_state_direct(params: ProtocolParams, q: np.ndarray) -> QubitDensityMatrix:
    """Downloaded register from the defining amplitudes, given outcomes ``q``.

    Includes the corrective phases ``phi = g sqrt(pi) A q`` (as relative
    phases ``exp(i phi . b)``); for thermal sources the bitstring
    coherences are damped by ``exp(-pi sigma^2 / 2 * hamming(b, b'))``.
    Magnitudes are computed in log space so far-tail outcomes stay finite.
    Registers above ``DEFAULT_MAX_QUBITS`` are refused before any
    allocation.
    """
    graph, g = params.graph, params.cphase_strength
    n = graph.n
    if n > DEFAULT_MAX_QUBITS:
        raise ValueError(
            f"{n} qubits exceeds the dense-simulation cap of {DEFAULT_MAX_QUBITS}"
        )
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"expected {n} outcomes, got shape {q.shape}")
    r0, sigma2 = params.mixture()
    a = adjacency_matrix(graph)
    bits = _bit_matrix(n)
    x = q[None, :] - SQRT_PI * bits
    log_mag = -np.sum(x**2, axis=1) / (2.0 * math.exp(2.0 * r0))
    phase = 0.5 * g * np.einsum("bi,ij,bj->b", x, a, x)
    phi = g * SQRT_PI * (a @ q)
    phase = phase + bits @ phi
    amps = np.exp(log_mag - log_mag.max()) * np.exp(1j * phase)
    rho = np.outer(amps, amps.conj())
    if sigma2 > 0.0:
        # exact (2^n, 2^n) count of differing bits
        hamming = bits @ (1.0 - bits).T + (1.0 - bits) @ bits.T
        rho = rho * np.exp(-0.5 * math.pi * sigma2 * hamming)
    return QubitDensityMatrix(n, rho, normalize=True)


def downloaded_state_equivalent(
    params: ProtocolParams, q: np.ndarray
) -> QubitDensityMatrix:
    """Downloaded register via the commuted (equivalent-circuit) route.

    Builds the per-qubit conditional state for each outcome, applies
    single-qubit dephasing at the thermal rate, tensors, and finishes
    with the graph's qubit entangling layer.  At unit strength that layer
    is exact CZ; for other strengths it is the controlled phase
    ``exp(i pi g b_i b_j)``, matching how the conditional displacements
    commute through a strength-``g`` CPHASE.
    """
    graph, g = params.graph, params.cphase_strength
    n = graph.n
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"expected {n} outcomes, got shape {q.shape}")
    r0, sigma2 = params.mixture()
    p_phi = dephasing_rate(sigma2)
    singles = []
    for i in range(n):
        dm = qubit_given_outcome(float(q[i]), r0).density_matrix()
        if p_phi > 0.0:
            dm = apply_dephasing(dm, 0, p_phi)
        singles.append(dm)
    rho = dm_tensor(singles)
    for i, j in graph.edges:
        if g == 1.0:
            rho = dm_apply_cz(rho, i, j)
        else:
            rho = dm_apply_cphase(rho, i, j, math.pi * g)
    return rho


def _entangling_phases(graph: Graph, g: float) -> np.ndarray:
    """Diagonal ``s(b) = prod_edges exp(i pi g b_i b_j)`` of the entangling layer.

    Exactly ``+-1`` (real) at unit strength, where the layer is CZ.
    """
    idx = np.arange(2**graph.n)
    both = np.zeros(idx.shape, dtype=int)  # edges with both ends set
    for i, j in graph.edges:
        both += (idx >> i) & (idx >> j) & 1
    if g == 1.0:
        return np.where(both % 2 == 1, -1.0, 1.0)
    return np.exp(1j * math.pi * g * both)


_BASIS_PROJECTORS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))  # |0><0|, |1><1|


def _register_from_pattern(
    outcomes: tuple[tuple[str, int | None], ...], coherence: float, phases: np.ndarray
) -> QubitDensityMatrix:
    """Post-POVM register of one shot, from its keep/delete pattern alone.

    A kept qubit is ``[[1, c], [c, 1]] / 2`` with ``c = 1 - 2 p_phi``, a
    deleted one ``|b><b|``; their product (little-endian, as in
    :func:`~cvdownload.qubits.dm_tensor`) is conjugated by the diagonal
    entangling layer ``phases``.  No dependence on ``q`` or ``gamma``.
    """
    kept = np.array([[0.5, 0.5 * coherence], [0.5 * coherence, 0.5]])
    rho = np.ones((1, 1))
    for kind, bit in outcomes:
        factor = kept if kind == "keep" else _BASIS_PROJECTORS[bit]
        dim = 2 * rho.shape[0]  # np.kron(factor, rho), without its per-call overhead
        rho = (factor[:, None, :, None] * rho[None, :, None, :]).reshape(dim, dim)
    rho = rho * phases[:, None]
    rho *= phases.conj()
    return QubitDensityMatrix(len(outcomes), rho)


@dataclass(frozen=True)
class DownloadRecord:
    """Everything one shot produced.

    ``outcomes[i]`` is ``("keep", None)`` or ``("delete", bit)``; the
    deleted bit is the known basis state the erased qubit collapsed to.
    ``post_state`` is the register after all POVMs (present unless the
    run was asked not to keep states).
    """

    q: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray
    outcomes: tuple[tuple[str, int | None], ...]
    post_state: QubitDensityMatrix | None

    @property
    def deletion_mask(self) -> np.ndarray:
        return np.array([o[0] == "delete" for o in self.outcomes])

    @property
    def all_kept(self) -> bool:
        return not bool(self.deletion_mask.any())

    def to_json(self, include_state: bool = True) -> dict:
        obj = {
            "q": self.q.tolist(),
            "phi": self.phi.tolist(),
            "gamma": self.gamma.tolist(),
            "outcomes": [[o, b] for o, b in self.outcomes],
        }
        if include_state and self.post_state is not None:
            obj["post_state"] = self.post_state.to_json()
        return obj


@dataclass(frozen=True)
class DownloadSummary:
    """Aggregates over a run; ``mean_kept_fidelity`` is NaN when no shot kept all."""

    shots: int
    n: int
    p_del_empirical: float
    p_del_analytic: float
    all_kept_shots: int
    mean_kept_fidelity: float
    per_qubit_deletions: tuple[int, ...]
    deletions_histogram: tuple[int, ...]  # index = number of deletions in a shot

    def to_json(self) -> dict:
        return {
            "shots": self.shots,
            "n": self.n,
            "p_del_empirical": self.p_del_empirical,
            "p_del_analytic": self.p_del_analytic,
            "all_kept_shots": self.all_kept_shots,
            "mean_kept_fidelity": self.mean_kept_fidelity,
            "per_qubit_deletions": list(self.per_qubit_deletions),
            "deletions_histogram": list(self.deletions_histogram),
        }


#: Outcome of a qubit by ``2 * kept + (gamma > 1)``: a deleted qubit
#: collapsed onto the basis state its imbalance favours.
_OUTCOME_BY_CODE = (("delete", 0), ("delete", 1), ("keep", None), ("keep", None))


def run_download(
    params: ProtocolParams, shots: int, keep_states: bool = True
) -> tuple[list[DownloadRecord], DownloadSummary]:
    """Run the full protocol for ``shots`` independent shots.

    Each shot gets its own generator spawned from
    ``SeedSequence(params.seed)``, so results are reproducible and
    independent of shot order.  Within a shot the draws are the q
    outcomes followed by one balancing uniform per qubit (ascending site
    order).  Keep/delete is decided against the per-qubit keep
    probability ``2 min(1, gamma_i^2) / (1 + gamma_i^2)``, which equals
    the registered POVM branch weight exactly: the register's diagonal
    stays a product over qubits (diagonal entangling layer, diagonal
    dephasing, diagonal POVM updates), so no qubit's branch weight
    depends on another's outcome.

    With ``keep_states=True`` (default) each shot's post-POVM register
    is built in one pass from its keep/delete pattern (see the module
    notes); the gate-by-gate route through
    :func:`downloaded_state_equivalent` and one forced
    :func:`~cvdownload.qubits.apply_balancing_povm` per qubit is the
    oracle it is tested against.  ``keep_states=False`` skips the
    density matrices entirely and produces the identical record sequence
    with ``post_state=None``, which keeps large statistical runs cheap.

    Returns the per-shot records and a summary whose kept-branch fidelity
    is measured against the ideal qubit cluster state over shots where
    every qubit was kept (NaN if there were none).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    graph = params.graph
    n = graph.n
    r0, sigma2 = params.mixture()
    if keep_states:
        target = cluster_state(graph)  # refuses n above the dense cap
        phases = _entangling_phases(graph, params.cphase_strength)
        coherence = 1.0 - 2.0 * dephasing_rate(sigma2)
    a = adjacency_matrix(graph)

    records: list[DownloadRecord] = []
    kept_counts = np.zeros(n, dtype=int)
    histogram = [0] * (n + 1)  # index = number of deletions in a shot
    fidelities: list[float] = []

    for child in np.random.SeedSequence(params.seed).spawn(shots):
        rng = np.random.default_rng(child)
        q = sample_outcomes(params, rng)
        gamma = np.asarray(amplitude_imbalance(q, r0), dtype=float)
        kept = rng.random(n) < keep_probability(gamma)
        codes = 2 * kept + (gamma > 1.0)
        outcomes = tuple(map(_OUTCOME_BY_CODE.__getitem__, codes.tolist()))
        deleted = n - int(np.count_nonzero(kept))
        kept_counts += kept
        histogram[deleted] += 1
        state = None
        if keep_states:
            state = _register_from_pattern(outcomes, coherence, phases)
            if not deleted:
                fidelities.append(fidelity(target, state))
        records.append(
            DownloadRecord(
                q=q,
                phi=params.cphase_strength * SQRT_PI * (a @ q),
                gamma=gamma,
                outcomes=outcomes,
                post_state=state,
            )
        )

    per_qubit = shots - kept_counts
    summary = DownloadSummary(
        shots=shots,
        n=n,
        p_del_empirical=float(per_qubit.sum()) / (shots * n),
        p_del_analytic=p_del_analytic(r0),
        all_kept_shots=histogram[0],
        mean_kept_fidelity=float(np.mean(fidelities)) if fidelities else math.nan,
        per_qubit_deletions=tuple(int(c) for c in per_qubit),
        deletions_histogram=tuple(histogram),
    )
    return records, summary
