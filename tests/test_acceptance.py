"""End-to-end acceptance battery.

Ten pinned behaviors, each with an explicit tolerance and a one-line
pass/fail report (echoed in the terminal summary, and inline under
``pytest -s``).  The slow criteria also carry wall-clock budgets so
regressions in the hot paths are caught here rather than in CI timeouts.
"""

import math
import time

import numpy as np

from conftest import ACCEPTANCE_REPORT, random_test_graph
from cvdownload.error_model import (
    SQRT_PI,
    dephasing_rate,
    log_imbalance,
    p_del_analytic,
    p_succ_quadrature,
    qubit_given_outcome,
    squeezing_db_for_pdel,
)
from cvdownload.gaussian import (
    SqueezedThermalParams,
    collective_mode_covariance,
    mixture_params,
    thermal_cvcs,
)
from cvdownload.graphs import (
    complete_graph,
    cycle_graph,
    grid2d_graph,
    path_graph,
    random_graph,
    star_graph,
)
from cvdownload.grid import apply_cd_grid, apply_cphase_grid, make_grid_state, measure_q_grid
from cvdownload.planner import NoiseParams, linearized_plan, plan, verify_plan
from cvdownload.protocol import (
    ProtocolParams,
    downloaded_state_direct,
    downloaded_state_equivalent,
    run_download,
    sample_outcomes,
)
from cvdownload.qubits import (
    apply_balancing_povm,
    apply_rz,
    cluster_state,
    fidelity,
    postprocessing_equivalence,
    stabilizer_residual,
    trace_distance,
)


def _report(criterion: str, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {criterion}: {detail} ({elapsed:.2f}s)"
    ACCEPTANCE_REPORT.append(line)
    print(line)
    assert passed, f"{criterion}: {detail}"


def test_c01_threshold_reproduction():
    t0 = time.perf_counter()
    db_249 = squeezing_db_for_pdel(0.249)
    db_500 = squeezing_db_for_pdel(0.50)
    elapsed = time.perf_counter() - t0
    ok = abs(db_249 - 11.9) < 0.05 and abs(db_500 - 5.4) < 0.05 and elapsed < 1.0
    _report(
        "criterion 1 threshold reproduction",
        ok,
        f"p_del=0.249 -> {db_249:.4f} dB (want 11.9+-0.05), "
        f"p_del=0.50 -> {db_500:.4f} dB (want 5.4+-0.05), budget 1 s",
        elapsed,
    )


def test_c02_exact_erasure_conversion():
    # finite squeezing must convert entirely into heralded deletion: the
    # all-keep-conditioned pure-source state is exactly the cluster state
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        graph = random_test_graph(rng, n_max=4)
        r = float(rng.uniform(0.2, 2.0))
        params = ProtocolParams(graph, SqueezedThermalParams(r, 0.0), seed=0)
        q = sample_outcomes(params, rng)
        state = downloaded_state_equivalent(params, q)
        for site in range(graph.n):
            state = apply_balancing_povm(state, site, log_imbalance(q[site], r), force="keep").state
        worst = max(worst, 1.0 - fidelity(cluster_state(graph), state))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(
        "criterion 2 exact erasure conversion",
        ok,
        f"worst fidelity deficit {worst:.3e} over 200 cases (tol 1e-10), budget 10 s",
        elapsed,
    )


def test_c03_equivalent_circuit_theorem():
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        graph = random_test_graph(rng, n_max=4)
        r = float(rng.uniform(0.0, 2.0))
        nbar = float(rng.uniform(0.0, 2.0))
        params = ProtocolParams(graph, SqueezedThermalParams(r, nbar), seed=0)
        q = rng.uniform(-1.0, 1.0 + SQRT_PI, size=graph.n)
        direct = downloaded_state_direct(params, q)
        equivalent = downloaded_state_equivalent(params, q)
        worst = max(worst, trace_distance(direct, equivalent))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    _report(
        "criterion 3 equivalent-circuit theorem",
        ok,
        f"worst trace distance {worst:.3e} over 200 cases (tol 1e-10), budget 30 s",
        elapsed,
    )


def test_c04_erasure_law():
    t0 = time.perf_counter()
    shots = 100_000
    mc_ok, quad_gap = True, 0.0
    details = []
    for r0 in (0.3, 0.62, 1.0, 1.37):
        expected = p_del_analytic(r0)
        # the engine's own erasures: the shots of download --graph path:1 --nbar 0
        params = ProtocolParams(path_graph(1), SqueezedThermalParams(r0), seed=1004)
        estimate = run_download(params, shots, keep_states=False)[1].p_del_empirical
        stderr = math.sqrt(estimate * (1.0 - estimate) / shots)
        mc_ok &= abs(estimate - expected) < 3.0 * stderr
        quad_gap = max(quad_gap, abs(p_succ_quadrature(r0) - (1.0 - expected)))
        details.append(f"r0={r0}: |{estimate:.4f}-{expected:.4f}|<3x{stderr:.1e}")
    elapsed = time.perf_counter() - t0
    ok = mc_ok and quad_gap < 1e-8
    _report(
        "criterion 4 erasure law",
        ok,
        "; ".join(details) + f"; quadrature gap {quad_gap:.2e} (tol 1e-8)",
        elapsed,
    )


def test_c05_dephasing_law():
    rng = np.random.default_rng(1005)
    t0 = time.perf_counter()
    ok = True
    details = []
    for r, nbar in ((0.0, 1.0), (0.5, 0.5), (1.0, 2.0)):
        mp = mixture_params(SqueezedThermalParams(r, nbar))
        draws = rng.normal(0.0, math.sqrt(mp.sigma2), size=1_000_000)
        values = np.cos(SQRT_PI * draws)
        estimate = float(values.mean())
        sigma = float(values.std() / math.sqrt(values.size))
        expected = 1.0 - 2.0 * dephasing_rate(mp.sigma2)
        ok &= abs(estimate - expected) < 3.0 * sigma
        details.append(f"(r={r},nbar={nbar}): |{estimate:.5f}-{expected:.5f}|<3x{sigma:.1e}")
    elapsed = time.perf_counter() - t0
    _report("criterion 5 dephasing law", ok, "; ".join(details), elapsed)


def test_c06_decorrelation_construction():
    rng = np.random.default_rng(1006)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        graph = random_test_graph(rng, n_max=6)
        noise = NoiseParams(
            eps1=float(rng.uniform(0.0, 0.05)),
            eps2=float(rng.uniform(0.0, 0.05)),
            r_prime=float(rng.uniform(0.3, 1.5)),
        )
        recipe = plan(graph, noise)
        assert recipe.physical, "sampled a non-feasible plan"
        worst = max(worst, verify_plan(recipe, graph, noise))

    # first-order recipe must converge quadratically to the exact one
    graph = complete_graph(3)
    errors = {"e2r": [], "nbar": [], "g": []}
    for eps in (1e-2, 1e-3, 1e-4):
        noise = NoiseParams(eps, eps, 1.0)
        exact = plan(graph, noise)
        lin = linearized_plan(graph, noise)
        errors["e2r"].append(abs(lin.e2r_eff - math.exp(2 * exact.r_eff)))
        errors["nbar"].append(abs(lin.nbar_eff - exact.nbar_eff))
        errors["g"].append(abs(lin.g_prime - exact.g_prime))
    slopes = {name: math.log10(errs[0] / errs[-1]) / 2.0 for name, errs in errors.items()}
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and all(s >= 1.8 for s in slopes.values())
    _report(
        "criterion 6 decorrelation construction",
        ok,
        f"worst forward residual {worst:.3e} over 50 plans (tol 1e-9); "
        f"order slopes {', '.join(f'{k}={v:.2f}' for k, v in slopes.items())} (want >= 1.8)",
        elapsed,
    )


def test_c07_collective_mode_reduction():
    rng = np.random.default_rng(1007)
    t0 = time.perf_counter()
    worst = 0.0
    for copies in (2, 4, 7):
        graph = random_test_graph(rng, n_max=4)
        params = SqueezedThermalParams(float(rng.uniform(0.2, 1.2)), float(rng.uniform(0.0, 1.0)))
        state = thermal_cvcs(graph, params)
        worst = max(worst, float(np.max(np.abs(collective_mode_covariance(state, copies) - state.cov))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12
    _report(
        "criterion 7 collective-mode reduction",
        ok,
        f"worst covariance deviation {worst:.3e} for R in (2,4,7) (tol 1e-12)",
        elapsed,
    )


def test_c08_grid_oracle_cross_validation():
    t0 = time.perf_counter()
    r0 = 1.0
    k = 64

    # one mode: sampled conditional qubit states against the closed form
    one = make_grid_state(r0, 1, k=k)
    apply_cd_grid(one, 0)
    rng = np.random.default_rng(1008)
    worst_one = 0.0
    for _ in range(100):
        q, psi = measure_q_grid(one, rng)
        target = qubit_given_outcome(float(q[0]), r0)
        worst_one = max(worst_one, trace_distance(target.density_matrix(), psi.density_matrix()))

    # two modes, one edge: full hybrid pipeline against the analytic state
    two = make_grid_state(r0, 2, k=k)
    apply_cphase_grid(two)
    apply_cd_grid(two, 0)
    apply_cd_grid(two, 1)
    params = ProtocolParams(path_graph(2), SqueezedThermalParams(r0, 0.0), seed=0)
    worst_two = 0.0
    for _ in range(50):
        q, register = measure_q_grid(two, rng)
        phi = SQRT_PI * q[::-1]
        for site in range(2):
            register = apply_rz(register, site, float(phi[site]))
        analytic = downloaded_state_direct(params, q)
        worst_two = max(worst_two, trace_distance(analytic, register.density_matrix()))

    elapsed = time.perf_counter() - t0
    ok = worst_one < 1e-6 and worst_two < 1e-4 and elapsed < 120.0
    _report(
        "criterion 8 grid-oracle cross-validation",
        ok,
        f"one-mode worst {worst_one:.3e} over 100 shots (tol 1e-6); "
        f"two-mode worst {worst_two:.3e} over 50 shots (tol 1e-4); budget 120 s",
        elapsed,
    )


def test_c09_postprocessing_equivalence():
    rng = np.random.default_rng(1009)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        graph = random_graph(n, 0.5, rng)
        l = rng.integers(0, 2, size=n)
        mu = rng.uniform(-0.49, 0.49, size=n) * SQRT_PI
        worst = max(worst, postprocessing_equivalence(graph, l, mu))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10
    _report(
        "criterion 9 post-processing equivalence",
        ok,
        f"worst phase-insensitive deviation {worst:.3e} over 100 cases (tol 1e-10)",
        elapsed,
    )


def test_c10_stabilizer_property():
    rng = np.random.default_rng(1010)
    t0 = time.perf_counter()
    graphs = (
        [path_graph(n) for n in range(1, 9)]
        + [cycle_graph(n) for n in range(3, 9)]
        + [complete_graph(n) for n in range(2, 9)]
        + [star_graph(n) for n in range(2, 9)]
        + [grid2d_graph(2, 2), grid2d_graph(2, 3), grid2d_graph(2, 4)]
        + [random_graph(8, 0.4, rng) for _ in range(3)]
    )
    worst = 0.0
    for graph in graphs:
        psi = cluster_state(graph)
        for vertex in range(graph.n):
            worst = max(worst, stabilizer_residual(psi, graph, vertex))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12
    _report(
        "criterion 10 stabilizer property",
        ok,
        f"worst residual {worst:.3e} over {len(graphs)} cluster states (tol 1e-12)",
        elapsed,
    )
