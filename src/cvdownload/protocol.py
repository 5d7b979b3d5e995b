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

The shot loop uses neither: it draws and decides a block of shots at a
time (see :data:`SHOT_BLOCK`), and the run keeps its ``(shots, n)``
columns ``q``, ``kept`` and ``bits``.  A shot's record, with its phases
(:func:`~cvdownload.graphs.neighbor_phase`), is built only when it is
read; the registers a run keeps are built in the run.
Once the balancing POVM has acted, every error sits
ahead of the diagonal entangling layer, so a shot's register is fixed
by its keep mask and collapse bits alone: a kept qubit is ``|+><+|`` dephased
to coherence ``c = 1 - 2 p_phi``, a deleted qubit is its basis state
``|b><b|``, and the graph contributes the CZ sign ``s(b)``
(:func:`~cvdownload.qubits.graph_phases`).  So every all-kept shot has
fidelity ``(1 - p_phi)^n`` to the cluster state, which the summary
reports without a register, and :func:`register_from_outcomes` is the
one dense builder; the gate-by-gate route (the equivalent circuit
followed by one forced POVM per qubit) is its oracle in the tests.  It
writes only the register's support, the block of basis states that agree
with every deleted bit: there the register is the kept subgraph's state
in a known Z frame (the Pauli-Z rule of Hein, Eisert and Briegel, PRA 69,
062311), and everywhere else it is exactly zero, so a shot with ``d``
deletions costs ``4^(n-d)`` products, not ``4^n``.
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
from .graphs import Graph, _adjacency_operator, _is_int, neighbor_phase
from .qubits import (
    QubitDensityMatrix,
    _bits,
    _check_dense_size,
    _from_exact,
    _hermitian_from_lower,
    _tensor_product,
    apply_dephasing,
    dm_apply_cz,
    dm_tensor,
    graph_phases,
)

__all__ = [
    "DIRECT_PHASE_SCALE_MAX",
    "SHOT_BLOCK",
    "MAX_REGISTER_BYTES",
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

#: Most qubit-shots ``shots * n`` one :func:`run_download` takes: at 10 bytes
#: each (``q`` 8, ``kept`` and ``bits`` 1 each) that is 1 GB of held columns.
_MAX_QUBIT_SHOTS = 10**8

#: Most bytes of registers ``shots * 16 * 4**n`` that a
#: ``run_download(keep_states=True)`` keeps: 1 GB, 4 shots at the dense cap's
#: 12 qubits or 256 shots at 8.
MAX_REGISTER_BYTES = 2**30


def _check_seed(seed) -> None:
    """Refuse a seed that ``SeedSequence`` cannot take: only an integer >= 0 passes."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


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

    def __post_init__(self) -> None:
        _check_seed(self.seed)

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
    a = _adjacency_operator(graph).toarray()  # dense: n is within the cap
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
    rho = _hermitian_from_lower(np.outer(amps, amps.conj()))
    if sigma2 > 0.0:
        d = math.exp(-0.5 * math.pi * sigma2)  # 0 at sigma2 = inf
        rho *= _tensor_product([np.array([[1.0, d], [d, 1.0]])] * n, np.ones((1, 1)))
    rho /= rho.trace().real  # about 1 or more: one bitstring has |amplitude| 1
    return _from_exact(n, rho)


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


#: A qubit's collapse bit by its ``(kept, bit)`` entries, ``None`` for a kept
#: qubit, which ignores its bit.
_COLLAPSE_BIT = {(1, 0): None, (1, 1): None, (0, 0): 0, (0, 1): 1}
_ALL = slice(None)


def register_from_outcomes(graph: Graph, coherence: float, kept, bits) -> QubitDensityMatrix:
    """Post-POVM register of one shot, from its keep mask and collapse bits alone.

    A kept qubit is ``[[1, c], [c, 1]] / 2`` with ``c = coherence``, a
    deleted one ``|b><b|``; their product (little-endian, as in
    :func:`~cvdownload.qubits.dm_tensor`) is conjugated by the CZ signs of
    ``graph``.  No dependence on ``q`` or ``gamma``.

    ``kept`` and ``bits`` are one shot's rows, a NumPy row or the list a
    JSON record gives: exactly one 0/1 entry per vertex each (bools
    included), and a kept qubit ignores its bit.  ``coherence`` is finite
    and within [-1, 1].  Any other input is refused, naming the lowest bad
    outcome, and so is a graph above the dense cap, before the register is
    allocated.

    Only the support is written: the ``2^k x 2^k`` block (``k`` kept
    qubits) of basis states that agree with every deleted bit, reached as
    a view of the register's rows and columns as axes, most significant
    qubit first (a deleted qubit fixed at its bit, a run of adjacent lower
    kept qubits merged into one axis).  There each entry is the kept
    factors' real product under the CZ signs, as in the full product;
    every other entry is an exact +0.0.  So a shot with ``d`` deletions
    costs ``4^(n-d)`` products and one zero fill, not ``4^n`` products,
    and an all-kept shot writes every entry once.  The product is
    symmetric, the signs are exactly ``+-1`` and the zeros are exact, so
    the register is exactly Hermitian with unit trace, and it is stored
    without a float test.
    """
    if not -1.0 <= coherence <= 1.0:  # NaN fails too
        raise ValueError(f"coherence must be finite and within [-1, 1], got {coherence!r}")
    n = graph.n
    if len(kept) != n or len(bits) != n:
        raise ValueError(f"expected {n} outcomes, one per vertex, got {len(kept)} kept"
                         f" and {len(bits)} bits")
    collapsed = []
    for i, entries in enumerate(zip(kept, bits)):
        try:  # a nested row's entries are unhashable
            collapsed.append(_COLLAPSE_BIT[entries])
        except (KeyError, TypeError):
            raise ValueError(f"outcome {i} must be a kept flag and a bit, each 0 or 1,"
                             f" got {entries!r}") from None
    # the rows as axes, most significant qubit first, and the support's place
    # on each: a deleted qubit's bit, the top kept qubit's axis (set per
    # block below), or all of a run of lower kept qubits
    axes, support, top = [], [], None
    for bit in reversed(collapsed):
        if bit is None and top is None:
            top = len(axes)
        elif bit is None and support[-1] is _ALL:
            axes[-1] *= 2  # a lower kept qubit joins the run above it
            continue
        elif bit is None:
            bit = _ALL
        axes.append(2)
        support.append(bit)
    k = collapsed.count(None)
    phases = graph_phases(graph).reshape(axes)  # the dense cap, before the register
    rho = (np.empty if k == n else np.zeros)((2**n, 2**n), dtype=complex)
    view = rho.reshape(axes * 2)
    if k == 0:  # every qubit deleted: one basis state, sign s * s = 1
        view[tuple(support * 2)] = 1.0
        return _from_exact(n, rho)
    # the lower k - 1 kept factors' real product, then the top kept qubit's
    # four blocks, signed on both sides in the real scratch and copied into
    # the support (as fast as one multiply straight into the strided complex
    # view, measured at n = 9 and 10)
    factor = np.array([[0.5, 0.5 * coherence], [0.5 * coherence, 0.5]])
    low = _tensor_product([factor] * (k - 1), np.ones((1, 1)))
    tmp = np.empty_like(low)
    blocks = []  # per top bit, the support's index on the rows and its CZ signs
    for r in range(2):
        support[top] = slice(r, r + 1)  # a slice keeps a one-entry block an array
        blocks.append((tuple(support), phases[tuple(support)]))
    for r, (rows, s_rows) in enumerate(blocks):
        for c, (cols, s_cols) in enumerate(blocks):
            np.multiply(low, factor[r, c] * s_rows.reshape(-1, 1), out=tmp)
            np.multiply(tmp, s_cols.reshape(1, -1), out=tmp)
            block = view[rows + cols]
            np.copyto(block, tmp.reshape(block.shape))
    return _from_exact(n, rho)


@dataclass(frozen=True)
class DownloadRecord:
    """Everything one shot produced.

    ``outcomes[i]`` is ``("keep", None)`` or ``("delete", bit)``; the
    deleted bit is the known basis state the erased qubit collapsed to.
    ``post_state`` is the dense register after all POVMs, present only
    when the run was asked to keep states.  It is read from one row of the
    run's columns (:func:`run_download`).
    """

    q: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray
    outcomes: tuple[tuple[str, int | None], ...]
    post_state: QubitDensityMatrix | None

    @property
    def all_kept(self) -> bool:
        return all(kind == "keep" for kind, _ in self.outcomes)


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
    basis bit ``l > 0`` a deleted qubit collapsed onto, all read-only; a
    shot's rows of the last two build its register.  ``phi`` and ``gamma``
    are computed over the whole stack on first access.  ``records[k]``
    builds shot ``k``'s record when read, with negative indices, slices (a
    list) and ``IndexError`` as for a list; its ``post_state`` is the
    register the run built, if any.
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

    Shots are drawn and decided in consecutive blocks of :data:`SHOT_BLOCK`.
    The ``m`` shots of block ``b`` take two calls of ``rng =
    default_rng(children[b])``, ``children =
    SeedSequence(params.seed).spawn(ceil(shots / SHOT_BLOCK))``:
    ``sample_q(r0, m * n, rng)``, then ``rng.random((m, n))``, each
    shot-major.  So a run is reproducible for an equal ``(seed, shots)``,
    and a run of ``k * SHOT_BLOCK + m`` shots begins with the records of
    the ``k * SHOT_BLOCK``-shot run.  Qubit ``i`` is kept with probability
    ``2 e_i / (1 + e_i)``, ``e_i = exp(-2 |l_i|)``, ``l = log gamma``, and
    a deleted one collapses onto bit ``l_i > 0``.  That is the registered
    POVM branch weight exactly: the register's diagonal stays a product
    over qubits (diagonal entangling layer, dephasing and POVM updates),
    so no qubit's weight depends on another's outcome.

    ``records`` is a read-only sequence over the columns ``q``, ``kept``
    and ``bits``, each ``(shots, n)``, 10 bytes per qubit-shot; a run of
    more than ``_MAX_QUBIT_SHOTS`` is refused before it allocates.  ``phi``
    and ``gamma`` are computed over the stack when first read, and
    ``records[k]`` builds its :class:`DownloadRecord` when it is read.

    With ``keep_states=True`` (default) each shot's register is built here
    by :func:`register_from_outcomes` from its rows of ``kept`` and
    ``bits`` (graphs above the dense cap, and runs whose registers would
    hold more than :data:`MAX_REGISTER_BYTES`, are refused before any
    draw) and is ``records[k].post_state``; the gate-by-gate route (the equivalent
    circuit, then one forced POVM per qubit) is its test oracle.
    ``keep_states=False`` builds no register and gives the same columns and
    summary.  The summary's kept-branch fidelity is the law ``(1 -
    p_phi)^n`` (NaN if no shot kept every qubit).
    """
    if not (_is_int(shots) and shots >= 1):
        raise ValueError(f"shots must be an integer >= 1, got {shots!r}")
    graph = params.graph
    n = graph.n
    if shots * n > _MAX_QUBIT_SHOTS:
        raise ValueError(f"shots * n must be at most {_MAX_QUBIT_SHOTS} qubit-shots (10 bytes"
                         f" each held), got {shots} shots of {n} qubits")
    r0, sigma2 = params.mixture()
    p_phi = dephasing_rate(sigma2)
    if keep_states:
        _check_dense_size(n)
        if shots * 16 * 4**n > MAX_REGISTER_BYTES:
            raise ValueError(f"{shots} registers of {n} qubits would hold {shots * 16 * 4**n} "
                             f"bytes, above MAX_REGISTER_BYTES = {MAX_REGISTER_BYTES}")
        coherence = params.coherence()

    q = np.empty((shots, n))
    kept = np.empty((shots, n), dtype=bool)
    bits = np.empty((shots, n), dtype=bool)
    children = np.random.SeedSequence(params.seed).spawn(-(-shots // SHOT_BLOCK))
    for start, child in zip(range(0, shots, SHOT_BLOCK), children):
        rng = np.random.default_rng(child)
        m = min(SHOT_BLOCK, shots - start)
        block = slice(start, start + m)
        q[block] = sample_q(r0, m * n, rng).reshape(m, n)
        ell = log_imbalance(q[block], r0)
        np.less(rng.random((m, n)), keep_probability(ell), out=kept[block])
        np.greater(ell, 0.0, out=bits[block])

    deletions = n - np.count_nonzero(kept, axis=1)
    per_qubit = shots - np.count_nonzero(kept, axis=0)
    states = None
    if keep_states:
        rows = zip(kept.tolist(), bits.tolist())  # Python bools: no NumPy scalar per entry
        states = [register_from_outcomes(graph, coherence, k, b) for k, b in rows]

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
