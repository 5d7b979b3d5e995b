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
provided.  The direct one evaluates the amplitude above with the phase
correction; its magnitude and (for thermal sources) the damping
``exp(-pi sigma^2 / 2 (b_i - b_i')^2)`` are products of per-mode factors.
The equivalent-circuit one commutes the conditional displacements
through the CPHASE network: per-qubit conditional states, single-qubit
dephasing at the thermal rate, then the qubit CZ network of the same
graph.  Their agreement is a simulator-independent identity, tested.

The shot loop uses neither, and it only draws, a block of shots at a
time (see :data:`SHOT_BLOCK`); the keep decisions come from the stacked
draws, and the run keeps its ``(shots, n)`` columns.  A shot's record,
with its phases (:func:`~cvdownload.graphs.neighbor_phase`), is built
only when it is read; the registers a run keeps are built in the run.
Once the balancing POVM has acted, every error sits
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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .error_model import (
    SQRT_PI,
    amplitude_imbalance,
    dephasing_rate,
    keep_probability,
    log_imbalance,
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
    _from_exact,
    _tensor_product,
    apply_dephasing,
    dm_apply_cz,
    dm_tensor,
    graph_phases,
)

__all__ = [
    "DIRECT_PHASE_SCALE_MAX",
    "SHOT_BLOCK",
    "ProtocolParams",
    "DownloadRecord",
    "DownloadSummary",
    "sample_outcomes",
    "downloaded_state_direct",
    "downloaded_state_equivalent",
    "register_from_outcomes",
    "run_download",
]


#: Largest phase scale ``sqrt(n/2) m^T A m``, ``m = max(|q|, |q - sqrt(pi)|)``,
#: the direct register accepts.  Its phase sums terms ``(q - sqrt(pi) b)_i
#: A_ij (q - sqrt(pi) b)_j`` that cancel to O(1), with round-off per unit
#: of ``m^T A m`` growing about as ``sqrt(n)`` (5e-17 at n = 2, 2e-16 at 12).
#: Against the equivalent circuit (random and complete graphs, n <= 10,
#: nbar 0 or 0.5, r from 4 to 300, outcomes at or under the bound) the
#: worst trace distance was 5.6e-12, ten times below the 1e-10 gate.
#: Outcomes of size ``e^{r0}`` meet it, so r0 needs no bound.
DIRECT_PHASE_SCALE_MAX = 7e4

#: Shots drawn from one generator by :func:`run_download`, whose docstring
#: gives the rule.  A constant, not an option: a run's draws depend on it.
SHOT_BLOCK = 1024


@dataclass(frozen=True)
class ProtocolParams:
    """Full description of one protocol configuration.

    Every CPHASE has unit strength, so the downloaded register carries
    the qubit cluster state of ``graph``.  ``seed`` feeds a documented
    splitting rule (one spawned child stream per block of
    :data:`SHOT_BLOCK` shots), so a run is reproducible for an equal
    ``(seed, shots)``, and runs of different lengths share their leading
    whole blocks.
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
    phases ``exp(i phi . b)``).  Magnitudes and thermal damping are
    Kronecker products of the per-qubit rows ``(e^{-max(l_i, 0)},
    e^{min(l_i, 0)})``, ``l = log gamma`` (so far-tail outcomes give exact
    basis states), and of ``[[1, d], [d, 1]]``, ``d = exp(-pi sigma^2 / 2)``.
    Besides ``DEFAULT_MAX_QUBITS``, two rules refuse before any 4^n
    allocation: non-finite outcomes, and a phase scale ``sqrt(n/2) m^T A m``,
    ``m = max(|q|, |q - sqrt(pi)|)``, not within ``DIRECT_PHASE_SCALE_MAX``
    (so only an isolated vertex takes an outcome far beyond both peaks).
    """
    graph = params.graph
    n = graph.n
    _check_dense_size(n)
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"expected {n} outcomes, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError(f"outcomes must be finite, got {q}")
    r0, sigma2 = params.mixture()
    a = adjacency_matrix(graph)
    m = np.abs(q - 0.5 * SQRT_PI) + 0.5 * SQRT_PI  # the larger |q - sqrt(pi) b|
    with np.errstate(over="ignore"):  # inf: refused here
        scale = math.sqrt(n / 2.0) * float(m @ a @ m)
    if not scale <= DIRECT_PHASE_SCALE_MAX:
        raise ValueError(
            f"phase scale sqrt(n/2) m^T A m = {scale:.6g} is not within DIRECT_PHASE_SCALE_MAX"
            f" = {DIRECT_PHASE_SCALE_MAX:g}: the direct register's phases lose precision there"
        )
    with np.errstate(over="ignore"):  # l = +-inf: an exact basis state
        ell = log_imbalance(q, r0)
    rows = np.exp(np.stack([-np.maximum(ell, 0.0), np.minimum(ell, 0.0)], axis=-1))[:, None, :]
    bits = _bits(n).astype(float)
    x = q[None, :] - SQRT_PI * bits
    phase = 0.5 * np.einsum("bi,ij,bj->b", x, a, x)
    phase = phase + bits @ neighbor_phase(graph, q)
    amps = _tensor_product(rows, np.ones((1, 1)))[0] * np.exp(1j * phase)
    rho = np.outer(amps, amps.conj())
    if sigma2 > 0.0:
        d = math.exp(-0.5 * math.pi * sigma2)  # 0 at sigma2 = inf
        rho *= _tensor_product([np.array([[1.0, d], [d, 1.0]])] * n, np.ones((1, 1)))
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


#: The per-qubit outcomes a register accepts, as the lists a JSON record holds.
_OUTCOMES = (["keep", None], ["delete", 0], ["delete", 1])
_BASIS_PROJECTORS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))  # |0><0|, |1><1|


def register_from_outcomes(
    graph: Graph, coherence: float, outcomes: tuple[tuple[str, int | None], ...]
) -> QubitDensityMatrix:
    """Post-POVM register of one shot, from its keep/delete pattern alone.

    A kept qubit is ``[[1, c], [c, 1]] / 2`` with ``c = coherence``, a
    deleted one ``|b><b|``; their product (little-endian, as in
    :func:`~cvdownload.qubits.dm_tensor`) is conjugated by the CZ signs of
    ``graph``.  No dependence on ``q`` or ``gamma``.

    ``outcomes`` holds exactly one pair per vertex, tuples or the lists a
    JSON record gives, and ``coherence`` is finite and within [-1, 1]; any
    other input is refused before the register is allocated.  The register
    is exactly Hermitian with unit trace by construction (real factors of
    trace 1 under a two-sided +-1 diagonal), so it is stored without a
    float test.
    """
    if not -1.0 <= coherence <= 1.0:  # NaN fails too
        raise ValueError(f"coherence must be finite and within [-1, 1], got {coherence!r}")
    if len(outcomes) != graph.n:
        raise ValueError(f"expected {graph.n} outcomes, one per vertex, got {len(outcomes)}")
    kept = np.array([[0.5, 0.5 * coherence], [0.5 * coherence, 0.5]])
    factors = []
    for i, outcome in enumerate(outcomes):
        pair = list(outcome) if isinstance(outcome, (tuple, list)) else None
        if pair not in _OUTCOMES:
            raise ValueError(
                f"outcome {i} must be ('keep', None) or ('delete', 0|1), got {outcome!r}"
            )
        factors.append((kept, *_BASIS_PROJECTORS)[_OUTCOMES.index(pair)])
    # the lower n - 1 factors' real product, then the top qubit's four blocks
    # written into the complex register with the CZ signs on the way
    phases = graph_phases(graph)
    low = _tensor_product(factors[:-1], np.ones((1, 1)))
    top, half = factors[-1], len(low)
    rho = np.empty((2 * half, 2 * half), dtype=complex)
    tmp = np.empty_like(low)
    halves = (slice(0, half), slice(half, None))
    for r, rows in enumerate(halves):
        for c, cols in enumerate(halves):
            np.multiply(low, top[r, c] * phases[rows, None], out=tmp)
            np.multiply(tmp, phases[cols], out=rho[rows, cols])
    return _from_exact(graph.n, rho)


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
    def all_kept(self) -> bool:
        return all(kind == "keep" for kind, _ in self.outcomes)

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


#: Outcome of a qubit by ``2 * kept + (l > 0)``, ``l = log gamma``: a deleted qubit
#: collapsed onto the basis state its imbalance favours.
_OUTCOME_BY_CODE = (("delete", 0), ("delete", 1), ("keep", None), ("keep", None))


def _outcome_rows(kept: np.ndarray, bits: np.ndarray) -> list[tuple[tuple[str, int | None], ...]]:
    """One outcome tuple per row of ``(m, n)`` keep decisions and bits ``l > 0``."""
    return [tuple(map(_OUTCOME_BY_CODE.__getitem__, row)) for row in (2 * kept + bits).tolist()]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _RunRecords(Sequence):
    """The shots of one run, held as ``(shots, n)`` columns and read as a
    sequence of :class:`DownloadRecord`.

    ``q`` holds the outcomes, ``kept`` the keep decisions and ``bits`` the
    basis bit ``l > 0`` a deleted qubit collapsed onto, all read-only.
    ``phi`` and ``gamma`` are computed over the whole stack on their first
    access.  ``records[k]`` builds shot ``k``'s record when it is read,
    with negative indices, slices (a list) and ``IndexError`` as for a
    list; its ``post_state`` is the register the run built, if any.
    """

    def __init__(self, graph: Graph, r0: float, q, kept, bits, states):
        self.q, self.kept, self.bits = _read_only(q), _read_only(kept), _read_only(bits)
        self._graph, self._r0, self._states = graph, r0, states

    @cached_property
    def phi(self) -> np.ndarray:
        return _read_only(neighbor_phase(self._graph, self.q))

    @cached_property
    def gamma(self) -> np.ndarray:
        return _read_only(amplitude_imbalance(self.q, self._r0))

    def __len__(self) -> int:
        return len(self.q)

    def __iter__(self):
        states = repeat(None) if self._states is None else self._states
        rows = zip(self.q, self.phi, self.gamma, _outcome_rows(self.kept, self.bits), states)
        return (DownloadRecord(*row) for row in rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(len(self))[index]]
        k = range(len(self))[index]
        (outcomes,) = _outcome_rows(self.kept[k : k + 1], self.bits[k : k + 1])
        return DownloadRecord(
            q=self.q[k],
            phi=self.phi[k],
            gamma=self.gamma[k],
            outcomes=outcomes,
            post_state=None if self._states is None else self._states[k],
        )


def run_download(
    params: ProtocolParams, shots: int, keep_states: bool = True
) -> tuple[Sequence[DownloadRecord], DownloadSummary]:
    """Run the full protocol for ``shots`` independent shots.

    The loop draws, arrays decide.  Shots are drawn in consecutive blocks
    of :data:`SHOT_BLOCK`.  The ``m`` shots of block ``b`` take two calls
    of ``rng = default_rng(children[b])``, with ``children =
    SeedSequence(params.seed).spawn(ceil(shots / SHOT_BLOCK))``:
    ``sample_q(r0, m * n, rng)``, then ``rng.random((m, n))``, each
    shot-major with ascending sites within a shot.  So a run is reproducible for an equal ``(seed, shots)``, and
    across shot counts for whole blocks: a run of ``k * SHOT_BLOCK + m``
    shots begins with the records of the ``k * SHOT_BLOCK``-shot run.
    Imbalances, keep decisions and counts follow once over the
    stacked ``(shots, n)`` draws.  Keep/delete is decided against the
    per-qubit keep probability
    ``2 e_i / (1 + e_i)``, ``e_i = exp(-2 |l_i|)`` with ``l = log gamma``
    (a deleted qubit collapses onto bit ``l_i > 0``), which equals the
    registered POVM branch weight exactly: the register's diagonal stays
    a product over qubits (diagonal entangling layer, diagonal dephasing,
    diagonal POVM updates), so no qubit's branch weight depends on
    another's outcome.

    ``records`` is a read-only sequence that keeps the run as columns:
    ``q``, ``kept`` and the collapse bits ``l > 0``, each ``(shots, n)``.
    The phases ``phi`` and imbalances ``gamma`` are computed over the
    whole stack when first read, and ``records[k]`` builds shot ``k``'s
    :class:`DownloadRecord` when it is read, so a statistics-only caller
    builds no per-shot object.

    With ``keep_states=True`` (default) every shot's post-POVM register
    is built here, by :func:`register_from_outcomes`, and graphs above the
    dense cap are refused before any draw; ``records[k].post_state`` is
    that register.  The gate-by-gate route through
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
    children = np.random.SeedSequence(params.seed).spawn(-(-shots // SHOT_BLOCK))
    for start, child in zip(range(0, shots, SHOT_BLOCK), children):
        rng = np.random.default_rng(child)
        m = min(SHOT_BLOCK, shots - start)
        q[start : start + m] = sample_q(r0, m * n, rng).reshape(m, n)
        uniforms[start : start + m] = rng.random((m, n))

    ell = log_imbalance(q, r0)
    kept = uniforms < keep_probability(ell)
    bits = ell > 0.0
    deletions = n - np.count_nonzero(kept, axis=1)
    per_qubit = shots - np.count_nonzero(kept, axis=0)
    states = None
    if keep_states:
        states = [register_from_outcomes(graph, coherence, o) for o in _outcome_rows(kept, bits)]

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
    return _RunRecords(graph, r0, q, kept, bits, states), summary
