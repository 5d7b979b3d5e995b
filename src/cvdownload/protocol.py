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
        * exp(i/2 (q - sqrt(pi) b)^T A (q - sqrt(pi) b)) / 2^{n/2},

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

The shot loop uses neither, and per shot it only draws; the phases
(:func:`~cvdownload.graphs.neighbor_phase`) and keep decisions come from
the stacked draws.  Once the balancing POVM has acted, every error sits
ahead of the diagonal entangling layer, so a shot's register is fixed
by its keep/delete pattern alone: a kept qubit is ``|+><+|`` dephased
to coherence ``c = 1 - 2 p_phi``, a deleted qubit is its basis state
``|b><b|``, and the graph contributes the CZ sign ``s(b)``
(:func:`~cvdownload.qubits.graph_phases`).  So every all-kept shot has
fidelity ``(1 - p_phi)^n`` to the cluster state, which the summary
reports without a register, and :func:`register_from_outcomes` is the
one dense builder; the gate-by-gate route (the equivalent circuit
followed by one forced POVM per qubit) is its oracle in the tests.
"""

from __future__ import annotations

import math
import sys
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
from .graphs import Graph, adjacency_matrix, neighbor_phase
from .qubits import (
    QubitDensityMatrix,
    _bits,
    _check_dense_size,
    _tensor_product,
    apply_dephasing,
    dm_apply_cz,
    dm_tensor,
    graph_phases,
)

__all__ = [
    "DIRECT_PHASE_SCALE_MAX",
    "ProtocolParams",
    "DownloadRecord",
    "DownloadSummary",
    "sample_outcomes",
    "downloaded_state_direct",
    "downloaded_state_equivalent",
    "register_from_outcomes",
    "run_download",
]


#: Largest phase scale ``sqrt(n/2) |q|^T A |q|`` the direct register
#: accepts.  Its phase sums terms of size ``|q|^T A |q|`` that cancel to
#: O(1), with round-off per unit of that sum growing about as ``sqrt(n)``
#: (5e-17 at n = 2, 2.0e-16 at n = 12), so the bound holds one margin at
#: every n.  Against the equivalent circuit (random and complete graphs,
#: n <= 10, nbar 0 or 0.5, r from 4 to 300, outcomes at or under the
#: bound) the worst trace distance was 5.6e-12, ten times below the 1e-10
#: gate.  Outcomes of size ``e^{r0}`` meet it, so r0 needs no bound.
DIRECT_PHASE_SCALE_MAX = 7e4


@dataclass(frozen=True)
class ProtocolParams:
    """Full description of one protocol configuration.

    Every CPHASE has unit strength, so the downloaded register carries
    the qubit cluster state of ``graph``.  ``seed`` feeds a documented
    splitting rule (one spawned child stream per shot), so runs are
    reproducible for any shot count.
    """

    graph: Graph
    source: SqueezedThermalParams
    seed: int = 0

    def mixture(self):
        return mixture_params(self.source)

    def coherence(self) -> float:
        """Coherence ``c = 1 - 2 p_phi`` of a kept qubit after the POVM."""
        return 1.0 - 2.0 * dephasing_rate(self.mixture().sigma2)


def sample_outcomes(params: ProtocolParams, rng: np.random.Generator) -> np.ndarray:
    """Draw one vector of q outcomes, one independent mixture draw per mode."""
    r0, _ = params.mixture()
    return sample_q(r0, params.graph.n, rng)


def downloaded_state_direct(params: ProtocolParams, q: np.ndarray) -> QubitDensityMatrix:
    """Downloaded register from the defining amplitudes, given outcomes ``q``.

    Includes the corrective phases ``phi = sqrt(pi) A q`` (as relative
    phases ``exp(i phi . b)``); for thermal sources the bitstring
    coherences are damped by ``exp(-pi sigma^2 / 2 * hamming(b, b'))``.
    Magnitudes are computed in log space so far-tail outcomes stay finite.
    Besides ``DEFAULT_MAX_QUBITS``, two rules refuse before any 4^n
    allocation: a phase scale ``sqrt(n/2) |q|^T A |q|`` above
    ``DIRECT_PHASE_SCALE_MAX``, and outcomes that give no bitstring a
    finite weight (non-finite ``q``, or every log magnitude past the float range).
    """
    graph = params.graph
    n = graph.n
    _check_dense_size(n)
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"expected {n} outcomes, got shape {q.shape}")
    r0, sigma2 = params.mixture()
    a = adjacency_matrix(graph)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: refused here or below
        scale = math.sqrt(n / 2.0) * float(np.abs(q) @ a @ np.abs(q))
    if scale > DIRECT_PHASE_SCALE_MAX:
        raise ValueError(
            f"phase scale sqrt(n/2) |q|^T A |q| = {scale:.6g} exceeds DIRECT_PHASE_SCALE_MAX"
            f" = {DIRECT_PHASE_SCALE_MAX:g}: the direct register's phases lose precision there"
        )
    bits = _bits(n).astype(float)
    x = q[None, :] - SQRT_PI * bits
    with np.errstate(over="ignore"):  # -inf where a weight underflows: exp(-inf) = 0
        log_mag = -np.sum(x**2, axis=1) / (2.0 * math.exp(2.0 * r0))
    if not np.isfinite(log_mag.max()):
        raise ValueError(f"outcomes {q} give no bitstring a finite weight at r0 = {r0:.6g}")
    phase = 0.5 * np.einsum("bi,ij,bj->b", x, a, x)
    phase = phase + bits @ neighbor_phase(graph, q)
    amps = np.exp(log_mag - log_mag.max()) * np.exp(1j * phase)
    rho = np.outer(amps, amps.conj())
    if sigma2 > 0.0:
        # exact (2^n, 2^n) count of differing bits
        hamming = bits @ (1.0 - bits).T + (1.0 - bits) @ bits.T
        # sigma2 is inf near -R0_LIMIT; the capped rate keeps the diagonal's
        # damping exp(-rate * 0) at 1 and takes every coherence to 0
        rate = min(0.5 * math.pi * sigma2, sys.float_info.max)
        with np.errstate(over="ignore"):
            rho = rho * np.exp(-rate * hamming)
    return QubitDensityMatrix(n, rho, normalize=True)


def downloaded_state_equivalent(
    params: ProtocolParams, q: np.ndarray
) -> QubitDensityMatrix:
    """Downloaded register via the commuted (equivalent-circuit) route.

    Builds the per-qubit conditional state for each outcome, applies
    single-qubit dephasing at the thermal rate, tensors, and finishes
    with one CZ per edge: the conditional displacements by ``sqrt(pi)``
    commute through the unit CPHASE ``exp(i q_i q_j)`` as the phase
    ``exp(i pi b_i b_j)``.  Registers above ``DEFAULT_MAX_QUBITS`` are
    refused before any allocation.
    """
    graph = params.graph
    n = graph.n
    _check_dense_size(n)
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
        rho = dm_apply_cz(rho, i, j)
    return rho


_BASIS_PROJECTORS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))  # |0><0|, |1><1|


def register_from_outcomes(
    graph: Graph, coherence: float, outcomes: tuple[tuple[str, int | None], ...]
) -> QubitDensityMatrix:
    """Post-POVM register of one shot, from its keep/delete pattern alone.

    A kept qubit is ``[[1, c], [c, 1]] / 2`` with ``c = coherence``, a
    deleted one ``|b><b|``; their product (little-endian, as in
    :func:`~cvdownload.qubits.dm_tensor`) is conjugated by the CZ signs of
    ``graph``.  No dependence on ``q`` or ``gamma``.
    """
    phases = graph_phases(graph)
    kept = np.array([[0.5, 0.5 * coherence], [0.5 * coherence, 0.5]])
    factors = [kept if kind == "keep" else _BASIS_PROJECTORS[bit] for kind, bit in outcomes]
    rho = _tensor_product(factors, np.ones((1, 1)))
    rho = rho * phases[:, None]
    rho *= phases
    return QubitDensityMatrix(graph.n, rho)


@dataclass(frozen=True)
class DownloadRecord:
    """Everything one shot produced.

    ``outcomes[i]`` is ``("keep", None)`` or ``("delete", bit)``; the
    deleted bit is the known basis state the erased qubit collapsed to.
    ``post_state`` is the dense register after all POVMs, present only
    when the run was asked to keep states; :meth:`to_json` leaves it out.
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

    def to_json(self) -> dict:
        return {
            "q": self.q.tolist(),
            "phi": self.phi.tolist(),
            "gamma": self.gamma.tolist(),
            "outcomes": [[o, b] for o, b in self.outcomes],
        }


@dataclass(frozen=True)
class DownloadSummary:
    """Aggregates over a run; ``mean_kept_fidelity`` is ``(1 - p_phi)^n``,
    the fidelity of every all-kept shot, or NaN when no shot kept all.
    """

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

    The loop draws, arrays decide.  Each shot's generator, spawned from
    ``SeedSequence(params.seed)`` (reproducible, independent of shot
    order), draws the q outcomes and then one balancing uniform per qubit
    (ascending site order); imbalances, keep decisions, phases and counts
    follow once over the stacked ``(shots, n)`` draws.  Keep/delete is
    decided against the per-qubit keep probability
    ``2 min(1, gamma_i^2) / (1 + gamma_i^2)``, which equals the
    registered POVM branch weight exactly: the register's diagonal stays
    a product over qubits (diagonal entangling layer, diagonal dephasing,
    diagonal POVM updates), so no qubit's branch weight depends on
    another's outcome.

    With ``keep_states=True`` (default) each shot's post-POVM register
    comes from :func:`register_from_outcomes`, and graphs above the dense
    cap are refused before any draw; the gate-by-gate route through
    :func:`downloaded_state_equivalent` and one forced
    :func:`~cvdownload.qubits.apply_balancing_povm` per qubit is the
    oracle it is tested against.  ``keep_states=False`` builds no register
    and returns the identical records, with ``post_state=None``, and the
    identical summary.

    The summary's kept-branch fidelity is the law ``(1 - p_phi)^n`` (NaN
    if no shot kept every qubit).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    graph = params.graph
    n = graph.n
    r0, sigma2 = params.mixture()
    p_phi = dephasing_rate(sigma2)
    if keep_states:
        _check_dense_size(n)
        coherence = params.coherence()

    q = np.empty((shots, n))
    uniforms = np.empty((shots, n))
    for k, child in enumerate(np.random.SeedSequence(params.seed).spawn(shots)):
        rng = np.random.default_rng(child)
        q[k] = sample_q(r0, n, rng)
        uniforms[k] = rng.random(n)

    gamma = amplitude_imbalance(q, r0)
    kept = uniforms < keep_probability(gamma)
    phi = neighbor_phase(graph, q)
    deletions = n - np.count_nonzero(kept, axis=1)
    per_qubit = shots - np.count_nonzero(kept, axis=0)

    records: list[DownloadRecord] = []
    codes = (2 * kept + (gamma > 1.0)).tolist()
    for q_k, phi_k, gamma_k, codes_k in zip(q, phi, gamma, codes):
        outcomes = tuple(map(_OUTCOME_BY_CODE.__getitem__, codes_k))
        state = register_from_outcomes(graph, coherence, outcomes) if keep_states else None
        records.append(
            DownloadRecord(q=q_k, phi=phi_k, gamma=gamma_k, outcomes=outcomes, post_state=state)
        )

    histogram = np.bincount(deletions, minlength=n + 1)
    summary = DownloadSummary(
        shots=shots,
        n=n,
        p_del_empirical=float(per_qubit.sum()) / (shots * n),
        p_del_analytic=p_del_analytic(r0),
        all_kept_shots=int(histogram[0]),
        mean_kept_fidelity=(1.0 - p_phi) ** n if histogram[0] else math.nan,
        per_qubit_deletions=tuple(per_qubit.tolist()),
        deletions_histogram=tuple(histogram.tolist()),
    )
    return records, summary
