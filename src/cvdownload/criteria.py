"""The paper's ten acceptance criteria, one function each.

Each function takes a generator and its sizes and returns its
:class:`CheckResult` rows, each a residual under a threshold.  ``CRITERIA``
lists them, c01 to c10, with the sizes ``cvdownload verify`` runs them at;
``tests/test_acceptance.py`` runs the same functions at larger sizes.  The
two Monte Carlo laws (c04, c05) report the worst z-score over their points
against a sigma multiple that the caller gives.  c04's quadrature half
(``p_succ_quadrature``) stays in the tests: it loads ``scipy.integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .error_model import (
    SQRT_PI,
    dephasing_rate,
    log_imbalance,
    p_del_analytic,
    qubit_given_outcome,
    squeezing_db_for_pdel,
)
from .gaussian import (
    SqueezedThermalParams,
    collective_mode_covariance,
    mixture_params,
    thermal_cvcs,
)
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid2d_graph,
    neighbor_phase,
    path_graph,
    random_graph,
    star_graph,
)
from .grid import apply_cd_grid, apply_cphase_grid, make_grid_state, measure_q_grid
from .planner import VERIFY_TOL, NoiseParams, linearized_plan, plan, verify_plan
from .protocol import (
    ProtocolParams,
    downloaded_state_direct,
    downloaded_state_equivalent,
    run_download,
    sample_outcomes,
)
from .qubits import (
    apply_balancing_povm,
    apply_rz,
    cluster_state,
    fidelity,
    postprocessing_equivalence,
    stabilizer_residual,
    trace_distance,
)


@dataclass
class CheckResult:
    """One row of a criterion: it passes when ``residual < threshold``."""

    name: str
    residual: float
    threshold: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.passed = bool(self.residual < self.threshold)


def _small_graph(rng: np.random.Generator, n_max: int) -> Graph:
    """A random graph on 1..n_max vertices, edge probability 0.6 (may be edgeless)."""
    return random_graph(int(rng.integers(1, n_max + 1)), 0.6, rng)


def threshold_figures(rng: np.random.Generator) -> list[CheckResult]:
    gap = max(abs(squeezing_db_for_pdel(0.249) - 11.9), abs(squeezing_db_for_pdel(0.50) - 5.4))
    return [CheckResult("dB gap to the 11.9 and 5.4 dB figures", gap, 0.05)]


def exact_erasure_conversion(rng: np.random.Generator, cases: int) -> list[CheckResult]:
    worst = 0.0
    for _ in range(cases):
        graph = _small_graph(rng, 4)
        r = float(rng.uniform(0.2, 2.0))
        params = ProtocolParams(graph, SqueezedThermalParams(r, 0.0), seed=0)
        q = sample_outcomes(params, rng)
        state = downloaded_state_equivalent(params, q)
        for site in range(graph.n):
            state = apply_balancing_povm(state, site, log_imbalance(q[site], r), force="keep").state
        worst = max(worst, 1.0 - fidelity(cluster_state(graph), state))
    return [CheckResult("all-kept fidelity deficit", worst, 1e-10)]


def equivalent_circuit(rng: np.random.Generator, cases: int) -> list[CheckResult]:
    worst = 0.0
    for _ in range(cases):
        graph = _small_graph(rng, 4)
        r = float(rng.uniform(0.0, 2.0))
        nbar = float(rng.uniform(0.0, 2.0))
        params = ProtocolParams(graph, SqueezedThermalParams(r, nbar), seed=0)
        q = rng.uniform(-1.0, 1.0 + SQRT_PI, size=graph.n)
        direct = downloaded_state_direct(params, q)
        worst = max(worst, trace_distance(direct, downloaded_state_equivalent(params, q)))
    return [CheckResult("equivalent-circuit trace distance", worst, 1e-10)]


def erasure_law(rng: np.random.Generator, shots: int, sigmas: float) -> list[CheckResult]:
    """The shots of ``download --graph path:1 --nbar 0``, each r0 at its own seed."""
    worst = 0.0
    for r0 in (0.3, 0.62, 1.0, 1.37):
        params = ProtocolParams(path_graph(1), SqueezedThermalParams(r0),
                                seed=int(rng.integers(2**63)))
        estimate = run_download(params, shots, keep_states=False)[1].p_del_empirical
        stderr = math.sqrt(estimate * (1.0 - estimate) / shots)
        worst = max(worst, abs(estimate - p_del_analytic(r0)) / stderr)
    return [CheckResult("erasure law z-score", worst, sigmas)]


def dephasing_law(rng: np.random.Generator, draws: int, sigmas: float) -> list[CheckResult]:
    worst = 0.0
    for r, nbar in ((0.0, 1.0), (0.5, 0.5), (1.0, 2.0)):
        mp = mixture_params(SqueezedThermalParams(r, nbar))
        values = np.cos(SQRT_PI * rng.normal(0.0, math.sqrt(mp.sigma2), size=draws))
        sigma = float(values.std() / math.sqrt(values.size))
        expected = 1.0 - 2.0 * dephasing_rate(mp.sigma2)
        worst = max(worst, abs(float(values.mean()) - expected) / sigma)
    return [CheckResult("dephasing law z-score", worst, sigmas)]


def decorrelation_construction(rng: np.random.Generator, plans: int,
                               inject_fault: bool = False) -> list[CheckResult]:
    """Random plans replayed (``inject_fault`` shifts each ``g_prime`` by 1e-3,
    to show the row can fail), and the first-order plan's convergence order
    on K3: its shortfall below 2 over eps = 1e-2 .. 1e-4."""
    worst = 0.0
    for _ in range(plans):
        graph = _small_graph(rng, 6)
        noise = NoiseParams(
            eps1=float(rng.uniform(0.0, 0.05)),
            eps2=float(rng.uniform(0.0, 0.05)),
            r_prime=float(rng.uniform(0.3, 1.5)),
        )
        recipe = plan(graph, noise)
        if inject_fault:
            recipe = replace(recipe, g_prime=recipe.g_prime + 1e-3)
        worst = max(worst, verify_plan(recipe, graph, noise))

    k3 = complete_graph(3)

    def gaps(eps: float) -> tuple[float, float, float]:
        noise = NoiseParams(eps, eps, 1.0)
        exact, lin = plan(k3, noise), linearized_plan(k3, noise)
        return (abs(lin.e2r_eff - math.exp(2 * exact.r_eff)), abs(lin.nbar_eff - exact.nbar_eff),
                abs(lin.g_prime - exact.g_prime))

    slope = min(math.log10(first / last) / 2.0 for first, last in zip(gaps(1e-2), gaps(1e-4)))
    name = "planner forward verification" + (" (fault injected)" if inject_fault else "")
    return [CheckResult(name, worst, VERIFY_TOL),
            CheckResult("first-order plan order shortfall", 2.0 - slope, 0.2)]


def collective_mode_reduction(rng: np.random.Generator) -> list[CheckResult]:
    worst = 0.0
    for copies in (2, 4, 7):
        graph = _small_graph(rng, 4)
        params = SqueezedThermalParams(float(rng.uniform(0.2, 1.2)), float(rng.uniform(0.0, 1.0)))
        state = thermal_cvcs(graph, params)
        worst = max(worst, float(np.max(np.abs(collective_mode_covariance(state, copies) - state.cov))))
    return [CheckResult("collective-mode covariance deviation", worst, 1e-12)]


def grid_oracle(rng: np.random.Generator, one_shots: int, two_shots: int,
                k_one: int, k_two: int, r0_two: float) -> list[CheckResult]:
    """Grid draws against the closed-form conditional qubit (one mode, r0 = 1)
    and the direct register of path:2 (two modes, one edge, at ``r0_two``)."""
    r0 = 1.0
    one = apply_cd_grid(make_grid_state(r0, 1, k=k_one), 0)
    worst_one = 0.0
    for _ in range(one_shots):
        q, psi = measure_q_grid(one, rng)
        target = qubit_given_outcome(float(q[0]), r0)
        worst_one = max(worst_one, trace_distance(target.density_matrix(), psi.density_matrix()))

    two = make_grid_state(r0_two, 2, k=k_two)
    apply_cphase_grid(two)
    apply_cd_grid(two, 0)
    apply_cd_grid(two, 1)
    graph = path_graph(2)
    params = ProtocolParams(graph, SqueezedThermalParams(r0_two, 0.0), seed=0)
    worst_two = 0.0
    for _ in range(two_shots):
        q, register = measure_q_grid(two, rng)
        phi = neighbor_phase(graph, q)
        for site in range(2):
            register = apply_rz(register, site, float(phi[site]))
        analytic = downloaded_state_direct(params, q)
        worst_two = max(worst_two, trace_distance(analytic, register.density_matrix()))
    return [CheckResult("grid oracle, one mode", worst_one, 1e-6),
            CheckResult("grid oracle, two modes", worst_two, 1e-4)]


def postprocessing(rng: np.random.Generator, cases: int) -> list[CheckResult]:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 7))
        graph = random_graph(n, 0.5, rng)
        l = rng.integers(0, 2, size=n)
        mu = rng.uniform(-0.49, 0.49, size=n) * SQRT_PI
        worst = max(worst, postprocessing_equivalence(graph, l, mu))
    return [CheckResult("post-processing equivalence deviation", worst, 1e-10)]


def stabilizer_property(rng: np.random.Generator, n_max: int,
                        random_graphs: int) -> list[CheckResult]:
    """Every graph family up to ``n_max`` vertices (grids 2 x c), then
    ``random_graphs`` random graphs on ``n_max`` vertices."""
    graphs = (
        [path_graph(n) for n in range(1, n_max + 1)]
        + [cycle_graph(n) for n in range(3, n_max + 1)]
        + [complete_graph(n) for n in range(2, n_max + 1)]
        + [star_graph(n) for n in range(2, n_max + 1)]
        + [grid2d_graph(2, c) for c in range(2, n_max // 2 + 1)]
        + [random_graph(n_max, 0.4, rng) for _ in range(random_graphs)]
    )
    worst = 0.0
    for graph in graphs:
        psi = cluster_state(graph)
        for vertex in range(graph.n):
            worst = max(worst, stabilizer_residual(psi, graph, vertex))
    return [CheckResult("stabilizer residual", worst, 1e-12)]


#: Each criterion with the sizes ``verify`` runs it at.  The Monte Carlo
#: laws gate at 5 sigma there: ``verify`` runs at any seed, and at 3 sigma
#: its seven z-scores would fail about 2% of seeds of correct code.
CRITERIA: dict[str, tuple[Callable[..., list[CheckResult]], dict]] = {
    "c01": (threshold_figures, {}),
    "c02": (exact_erasure_conversion, {"cases": 8}),
    "c03": (equivalent_circuit, {"cases": 24}),
    "c04": (erasure_law, {"shots": 2000, "sigmas": 5.0}),
    "c05": (dephasing_law, {"draws": 10_000, "sigmas": 5.0}),
    "c06": (decorrelation_construction, {"plans": 8}),
    "c07": (collective_mode_reduction, {}),
    "c08": (grid_oracle, {"one_shots": 20, "two_shots": 5, "k_one": 32, "k_two": 16,
             "r0_two": 0.6}),
    "c09": (postprocessing, {"cases": 10}),
    "c10": (stabilizer_property, {"n_max": 5, "random_graphs": 0}),
}


def run_criteria(rng: np.random.Generator, inject_fault: bool = False) -> list[CheckResult]:
    """Every row of ``CRITERIA`` at its ``verify`` sizes, in order, from one
    generator, each name led by its criterion's key; ``inject_fault`` goes to
    the planner replay alone."""
    rows = []
    for key, (check, sizes) in CRITERIA.items():
        if check is decorrelation_construction:
            sizes = {**sizes, "inject_fault": inject_fault}
        rows += [replace(row, name=f"{key} {row.name}") for row in check(rng, **sizes)]
    return rows
