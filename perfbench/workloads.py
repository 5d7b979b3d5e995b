"""The benchmark's workloads: inputs, unit calls and correctness gates.

Every workload is a closed loop with a single caller.  Its inputs come
from the workload seed alone and are handed out in rounds: one round
holds one unit call per input size, so complete rounds always measure
the same mix of sizes.  Library functions are reached through their
module attributes at call time, so the tracer's wrappers see them.
NOTES.md beside this file says why each workload exists.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from cvdownload import cli, error_model, gaussian, graphs, grid, planner, protocol, qubits

#: Tolerances, all taken from the repository's own tests and ``cvdownload verify``.
P_DEL_SIGMAS = 5.0  # deletion rate versus the closed form, binomial sigmas
FIDELITY_TOL = 1e-9  # all-kept fidelity versus (1 - p_phi)^n
COLLAPSE_TOL = 1e-9  # a deleted qubit sits in its reported basis state
PLAN_TOL = 1e-9  # verify_plan covariance residual
TRACE_TOL = 1e-10  # direct versus equivalent downloaded register
GRID_TWO_MODE_TOL = 1e-4  # grid oracle, two modes (cli's threshold)


@dataclass
class Call:
    """One unit call: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the result is correct, else the reason.
    ``units`` is the work the call completes (shots, plans or checks) and
    ``qubit_units`` the shots times qubits (0 where that does not apply).
    """

    label: str
    units: int
    qubit_units: int
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def round_rng(seed: int, k: int) -> np.random.Generator:
    """Generator for the inputs of round ``k``; rounds are independent."""
    return np.random.default_rng([seed, k])


def _params_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def check_outcome_bits(record) -> str | None:
    """Every deleted qubit reports the basis state its imbalance selects."""
    for site, (kind, bit) in enumerate(record.outcomes):
        if kind == "delete":
            if bit != int(record.gamma[site] > 1.0):
                return f"qubit {site}: deleted bit {bit} contradicts gamma {record.gamma[site]!r}"
        elif kind != "keep" or bit is not None:
            return f"qubit {site}: malformed outcome {(kind, bit)!r}"
    return None


def _source(db: float, nbar: float) -> gaussian.SqueezedThermalParams:
    return gaussian.SqueezedThermalParams(error_model.db_to_squeezing(db), nbar)


class Workload:
    name = ""
    unit = ""

    def round(self, k: int) -> list[Call]:
        raise NotImplementedError

    def finish(self) -> tuple[int, list[str]]:
        """Gates over the whole run: (failed calls, reasons)."""
        return 0, []

    def sizes(self) -> dict:
        raise NotImplementedError


class DownloadStats(Workload):
    """``run_download(keep_states=False)``; one unit call runs each graph once.

    The deletion rate is gated on the pooled shots of each graph, so the
    5-sigma false-alarm rate stays per run rather than per call.
    """

    name, unit = "download-stats", "shots"
    DB, NBAR = 10.0, 0.2

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.specs = ("path:2", "grid2d:2x2") if tiny else ("path:3", "grid2d:10x10")
        self.shots = 20 if tiny else 200
        self.graphs = [graphs.parse_graph_spec(s) for s in self.specs]
        self.source = _source(self.DB, self.NBAR)
        r0, _ = gaussian.mixture_params(self.source)
        self.p_del = error_model.p_del_analytic(r0)
        self.pool: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])

    def sizes(self) -> dict:
        return {
            "graphs": {s: g.n for s, g in zip(self.specs, self.graphs)},
            "shots_per_graph_per_call": self.shots,
            "r_db": self.DB,
            "nbar": self.NBAR,
        }

    def round(self, k: int) -> list[Call]:
        rng = round_rng(self.seed, k)
        params = [
            protocol.ProtocolParams(g, self.source, seed=_params_seed(rng))
            for g in self.graphs
        ]
        shots = self.shots

        def run():
            return [protocol.run_download(p, shots, keep_states=False) for p in params]

        return [
            Call(
                "+".join(self.specs),
                shots * len(params),
                shots * sum(g.n for g in self.graphs),
                run,
                self.check,
            )
        ]

    def check(self, results) -> str | None:
        for spec, (records, summary) in zip(self.specs, results):
            n = summary.n
            if len(records) != self.shots or summary.shots != self.shots:
                return f"{spec}: {len(records)} records for {self.shots} shots"
            for rec in records:
                if rec.post_state is not None:
                    return f"{spec}: statistics-only run kept a state"
                bad = check_outcome_bits(rec)
                if bad:
                    return f"{spec}: {bad}"
            deleted = sum(kind == "delete" for rec in records for kind, _ in rec.outcomes)
            if summary.p_del_empirical != deleted / (self.shots * n):
                return f"{spec}: p_del_empirical {summary.p_del_empirical!r} != records"
            if not math.isclose(summary.p_del_analytic, self.p_del, rel_tol=1e-12):
                return f"{spec}: p_del_analytic {summary.p_del_analytic!r} != {self.p_del!r}"
            pool = self.pool[spec]
            pool[0] += deleted
            pool[1] += self.shots * n
            pool[2] += 1
        return None

    def finish(self) -> tuple[int, list[str]]:
        failed, reasons = 0, []
        for spec, (deleted, trials, calls) in self.pool.items():
            sigma = math.sqrt(self.p_del * (1.0 - self.p_del) / trials)
            rate = deleted / trials
            if abs(rate - self.p_del) > P_DEL_SIGMAS * sigma:
                failed += calls
                reasons.append(
                    f"{spec}: pooled p_del {rate:.6f} vs {self.p_del:.6f} "
                    f"exceeds {P_DEL_SIGMAS} sigma ({sigma:.2e}) over {trials} trials"
                )
        return failed, reasons


class _Register(NamedTuple):
    """One (graph, nbar) input of ``download-states`` and what its checks need."""

    label: str
    graph: graphs.Graph
    source: gaussian.SqueezedThermalParams
    target: np.ndarray  # cluster-state amplitudes
    bits: np.ndarray  # (2^n, n) bit table, little-endian
    kept_fidelity: float  # (1 - p_phi)^n


class DownloadStates(Workload):
    """``run_download(keep_states=True)``, one shot per unit call."""

    name, unit = "download-states", "shots"
    DB = 14.0
    NBARS = (0.2, 0.0)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.specs = ("path:2", "path:3") if tiny else ("path:6", "cycle:8", "grid2d:3x3")
        self.inputs = []
        for spec in self.specs:
            graph = graphs.parse_graph_spec(spec)
            target = qubits.cluster_state(graph).amps
            bits = (np.arange(2**graph.n)[:, None] >> np.arange(graph.n)) & 1
            for nbar in self.NBARS:
                source = _source(self.DB, nbar)
                p_phi = error_model.dephasing_rate(gaussian.mixture_params(source).sigma2)
                self.inputs.append(
                    _Register(
                        f"{spec}@nbar={nbar}", graph, source, target, bits,
                        (1.0 - p_phi) ** graph.n,
                    )
                )

    def sizes(self) -> dict:
        return {
            "graphs": {spec: graphs.parse_graph_spec(spec).n for spec in self.specs},
            "nbar": list(self.NBARS),
            "r_db": self.DB,
            "shots_per_call": 1,
        }

    def round(self, k: int) -> list[Call]:
        rng = round_rng(self.seed, k)
        calls = []
        for reg in self.inputs:
            params = protocol.ProtocolParams(reg.graph, reg.source, seed=_params_seed(rng))

            def run(params=params):
                return protocol.run_download(params, 1, keep_states=True)

            calls.append(
                Call(reg.label, 1, reg.graph.n, run, functools.partial(self.check, reg))
            )
        return calls

    @staticmethod
    def check(reg: _Register, result) -> str | None:
        records, summary = result
        for rec in records:
            bad = check_outcome_bits(rec)
            if bad:
                return bad
            rho = rec.post_state.rho
            if rec.all_kept:
                fid = float(np.real(np.vdot(reg.target, rho @ reg.target)))
                if abs(fid - reg.kept_fidelity) > FIDELITY_TOL:
                    return (
                        f"all-kept fidelity {fid!r} != (1 - p_phi)^n = {reg.kept_fidelity!r}"
                    )
            diag = rho.diagonal().real
            for site, (kind, bit) in enumerate(rec.outcomes):
                if kind == "delete":
                    weight = float(diag[reg.bits[:, site] == bit].sum() / diag.sum())
                    if weight < 1.0 - COLLAPSE_TOL:
                        return f"deleted qubit {site} has weight {weight!r} on bit {bit}"
        if summary.all_kept_shots != sum(rec.all_kept for rec in records):
            return "summary all_kept_shots disagrees with records"
        return None


class Plan(Workload):
    """``plan`` then ``verify_plan``; each graph repeats with a fresh noise point
    every round, the way ``cvdownload sweep`` repeats one graph."""

    name, unit = "plan", "plans"
    EPS_RANGE = (0.001, 0.03)
    R_PRIME_RANGE = (0.5, 1.5)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.specs = ("grid2d:2x2", "grid2d:3x3") if tiny else (
            "grid2d:8x8", "grid2d:10x10", "grid2d:12x12"
        )
        self.graphs = [graphs.parse_graph_spec(s) for s in self.specs]

    def sizes(self) -> dict:
        return {
            "graphs": {s: g.n for s, g in zip(self.specs, self.graphs)},
            "eps1_eps2_range": list(self.EPS_RANGE),
            "r_prime_range": list(self.R_PRIME_RANGE),
        }

    def round(self, k: int) -> list[Call]:
        rng = round_rng(self.seed, k)
        calls = []
        for spec, graph in zip(self.specs, self.graphs):
            noise = planner.NoiseParams(
                float(rng.uniform(*self.EPS_RANGE)),
                float(rng.uniform(*self.EPS_RANGE)),
                float(rng.uniform(*self.R_PRIME_RANGE)),
            )

            def run(graph=graph, noise=noise):
                recipe = planner.plan(graph, noise)
                return recipe, planner.verify_plan(recipe, graph, noise)

            calls.append(Call(spec, 1, 0, run, self.check))
        return calls

    @staticmethod
    def check(result) -> str | None:
        recipe, residual = result
        if not recipe.physical:
            return f"plan not physical ({recipe.violated})"
        if not residual < PLAN_TOL:
            return f"verify_plan residual {residual!r} >= {PLAN_TOL}"
        return None


class Oracle(Workload):
    """The three oracle checks in turn: the ``verify`` battery through
    ``cli.main``, direct versus equivalent register, and a two-mode grid run."""

    name, unit = "oracle", "checks"
    DIRECT_N = 8
    GRID_K = 64
    GRID_R = 0.6  # the two-mode source of ``cvdownload verify``
    GRID_SHOTS = 5

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.direct_n = 3 if tiny else self.DIRECT_N
        self.grid_k = grid.MIN_CELLS_PER_SHIFT if tiny else self.GRID_K
        self.grid_graph = graphs.path_graph(2)
        self.grid_params = protocol.ProtocolParams(
            self.grid_graph, gaussian.SqueezedThermalParams(self.GRID_R)
        )

    def sizes(self) -> dict:
        return {
            "verify": "cli.main(['verify', '--seed', k])",
            "direct_vs_equivalent_n": self.direct_n,
            "grid_modes": 2,
            "grid_k": self.grid_k,
            "grid_shots": self.GRID_SHOTS,
        }

    def round(self, k: int) -> list[Call]:
        rng = round_rng(self.seed, k)
        verify_seed = _params_seed(rng)

        def verify():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", "--seed", str(verify_seed)])
            return code, out.getvalue()

        graph = graphs.random_graph(self.direct_n, 0.5, rng)
        source = gaussian.SqueezedThermalParams(
            float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.05, 1.0))
        )
        params = protocol.ProtocolParams(graph, source)
        q = protocol.sample_outcomes(params, rng)

        def direct():
            return qubits.trace_distance(
                protocol.downloaded_state_direct(params, q),
                protocol.downloaded_state_equivalent(params, q),
            )

        grid_rng = np.random.default_rng(_params_seed(rng))

        def grid_run():
            state = grid.make_grid_state(self.GRID_R, 2, k=self.grid_k)
            grid.apply_cphase_grid(state)
            grid.apply_cd_grid(state, 0)
            grid.apply_cd_grid(state, 1)
            worst = 0.0
            for _ in range(self.GRID_SHOTS):
                q_grid, qubit = grid.measure_q_grid(state, grid_rng)
                phi = graphs.neighbor_phase(self.grid_graph, q_grid)
                for site in range(2):
                    qubit = qubits.apply_rz(qubit, site, float(phi[site]))
                worst = max(
                    worst,
                    qubits.trace_distance(
                        qubit, protocol.downloaded_state_direct(self.grid_params, q_grid)
                    ),
                )
            return worst

        return [
            Call("verify", 1, 0, verify, self.check_verify),
            Call(f"direct-vs-equivalent:n={graph.n}", 1, 0, direct, self.check_direct),
            Call(f"grid:k={self.grid_k}", 1, 0, grid_run, self.check_grid),
        ]

    @staticmethod
    def check_verify(result) -> str | None:
        code, text = result
        lines = text.strip().splitlines()
        if code != 0 or not lines or not lines[-1].startswith("RESULT: PASS"):
            return f"verify exited {code}: {lines[-1] if lines else 'no output'}"
        return None

    @staticmethod
    def check_direct(distance) -> str | None:
        if not distance < TRACE_TOL:
            return f"direct vs equivalent trace distance {distance!r} >= {TRACE_TOL}"
        return None

    @staticmethod
    def check_grid(worst) -> str | None:
        if not worst < GRID_TWO_MODE_TOL:
            return f"grid two-mode residual {worst!r} >= {GRID_TWO_MODE_TOL}"
        return None


WORKLOADS = {w.name: w for w in (DownloadStats, DownloadStates, Plan, Oracle)}
