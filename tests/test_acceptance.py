"""End-to-end acceptance battery.

The ten criteria of ``cvdownload.criteria``, which ``cvdownload verify``
runs at small sizes, here at their full sizes and fixed seeds.  Each test
reports its rows, every residual against its threshold, in one pass/fail
line (echoed in the terminal summary, and inline under ``pytest -s``).  The
slow criteria also carry wall-clock budgets so regressions in the hot paths
are caught here rather than in CI timeouts.  c04's quadrature row, which
loads ``scipy.integrate``, is added here only.
"""

import math
import time

import numpy as np

from conftest import ACCEPTANCE_REPORT
from cvdownload import criteria
from cvdownload.error_model import p_del_analytic, p_succ_quadrature


def _report(criterion: str, run, budget: float = math.inf) -> None:
    """Run ``run()`` and assert that every row it returns passes, within
    ``budget`` seconds."""
    t0 = time.perf_counter()
    rows = run()
    elapsed = time.perf_counter() - t0
    passed = all(row.passed for row in rows) and elapsed < budget
    detail = "; ".join(f"{row.name} {row.residual:.3e} (tol {row.threshold:g})" for row in rows)
    if math.isfinite(budget):
        detail += f"; budget {budget:g} s"
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail} ({elapsed:.2f}s)"
    ACCEPTANCE_REPORT.append(line)
    print(line)
    assert passed, f"{criterion}: {detail}"


def test_c01_threshold_reproduction():
    rng = np.random.default_rng(1001)
    _report("criterion 1 threshold reproduction",
            lambda: criteria.threshold_figures(rng), budget=1.0)


def test_c02_exact_erasure_conversion():
    # finite squeezing must convert entirely into heralded deletion: the
    # all-keep-conditioned pure-source state is exactly the cluster state
    rng = np.random.default_rng(1002)
    _report("criterion 2 exact erasure conversion",
            lambda: criteria.exact_erasure_conversion(rng, cases=200), budget=10.0)


def test_c03_equivalent_circuit_theorem():
    rng = np.random.default_rng(1003)
    _report("criterion 3 equivalent-circuit theorem",
            lambda: criteria.equivalent_circuit(rng, cases=200), budget=30.0)


def test_c04_erasure_law():
    rng = np.random.default_rng(1004)

    def rows():
        gap = max(abs(p_succ_quadrature(r0) - (1.0 - p_del_analytic(r0)))
                  for r0 in (0.3, 0.62, 1.0, 1.37))
        return [*criteria.erasure_law(rng, shots=100_000, sigmas=3.0),
                criteria.CheckResult("quadrature gap", gap, 1e-8)]

    _report("criterion 4 erasure law", rows)


def test_c05_dephasing_law():
    rng = np.random.default_rng(1005)
    _report("criterion 5 dephasing law",
            lambda: criteria.dephasing_law(rng, draws=1_000_000, sigmas=3.0))


def test_c06_decorrelation_construction():
    rng = np.random.default_rng(1006)
    _report("criterion 6 decorrelation construction",
            lambda: criteria.decorrelation_construction(rng, plans=50))


def test_c07_collective_mode_reduction():
    rng = np.random.default_rng(1007)
    _report("criterion 7 collective-mode reduction",
            lambda: criteria.collective_mode_reduction(rng))


def test_c08_grid_oracle_cross_validation():
    rng = np.random.default_rng(1008)
    _report("criterion 8 grid-oracle cross-validation",
            lambda: criteria.grid_oracle(rng, one_shots=100, two_shots=50, k_one=64, k_two=64,
                                         r0_two=1.0),
            budget=120.0)


def test_c09_postprocessing_equivalence():
    rng = np.random.default_rng(1009)
    _report("criterion 9 post-processing equivalence",
            lambda: criteria.postprocessing(rng, cases=100))


def test_c10_stabilizer_property():
    rng = np.random.default_rng(1010)
    _report("criterion 10 stabilizer property",
            lambda: criteria.stabilizer_property(rng, n_max=8, random_graphs=3))
