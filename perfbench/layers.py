"""Per-layer metrics of the traced run.

A layer is a module of the package; each traced target is one of its
public functions.  Self times, call counts and counters are reported per
unit call of the traced phase, so runs of different length (or of a
faster program, which completes more calls) stay comparable.
"""

from __future__ import annotations

from tracing import Tracer

#: Functions whose self time is reported, as ``module.function``.
SELF_TIMED = (
    "protocol.run_download",
    "protocol.sample_outcomes",
    "error_model.sample_q",
    "error_model.amplitude_imbalance",
    "error_model.keep_probability",
    "protocol.downloaded_state_equivalent",
    "qubits.dm_tensor",
    "qubits.dm_apply_cz",
    "qubits.apply_dephasing",
    "qubits.apply_balancing_povm",
    "qubits.fidelity",
    "graphs.a_squared_spectrum",
    "graphs.adjacency_matrix",
    "planner.givens_network",
    "planner.plan",
    "planner.verify_plan",
    "gaussian.apply_orthogonal",
    "gaussian.apply_cphase",
    "gaussian.thermal_cvcs",
    "protocol.downloaded_state_direct",
    "qubits.trace_distance",
    "grid.make_grid_state",
    "grid.apply_cphase_grid",
    "grid.apply_cd_grid",
    "grid.measure_q_grid",
    "cli.main",
)
#: Functions whose call count is reported.
COUNTED = (
    "qubits.dm_apply_cz",
    "qubits.apply_balancing_povm",
    "error_model.qubit_given_outcome",
    "graphs.adjacency_matrix",
)
TARGETS = tuple(dict.fromkeys(SELF_TIMED + COUNTED))

#: Counters computed from results: hooks return ``{counter: value}``.
HOOKS = {
    # One dense register is a 2^n x 2^n complex128 matrix.
    "protocol.downloaded_state_equivalent": lambda args, kwargs, r: {
        "protocol.register_bytes": 16 * 4 ** r.n
    },
    "planner.givens_network": lambda args, kwargs, r: {
        "planner.givens_network.rotations": len(r[0])
    },
    "planner.verify_plan": lambda args, kwargs, r: {
        "planner.verify_plan.residual_max": float(r)
    },
    "grid.make_grid_state": lambda args, kwargs, r: {"grid.cells": r.cells**r.modes},
}

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = {
    **{f"{t}.self_s": "s" for t in SELF_TIMED},
    **{f"{t}.calls": "count" for t in COUNTED},
    "protocol.register_bytes": "B",
    "protocol.all_kept_ratio": "ratio",
    "planner.givens_network.rotations": "count",
    "planner.verify_plan.residual_max": "1",
    "grid.cells": "count",
    "trace.overhead_frac": "frac",
}


def layer_metrics(tracer: Tracer, unit_calls: int, overhead_frac: float) -> dict:
    """Per-layer values of one traced phase of ``unit_calls`` unit calls."""
    per_call = 1.0 / unit_calls
    self_s = tracer.self_times()
    calls = tracer.calls()
    values = {f"{t}.self_s": self_s.get(t, 0.0) * per_call for t in SELF_TIMED}
    values.update({f"{t}.calls": calls.get(t, 0) * per_call for t in COUNTED})
    for name in ("protocol.register_bytes", "planner.givens_network.rotations", "grid.cells"):
        values[name] = tracer.counters.get(name, 0.0) * per_call
    builds = tracer.child_calls("protocol.run_download", "protocol.downloaded_state_equivalent")
    kept = tracer.child_calls("protocol.run_download", "qubits.fidelity")
    values["protocol.all_kept_ratio"] = kept / builds if builds else 0.0
    values["planner.verify_plan.residual_max"] = tracer.counters.get(
        "planner.verify_plan.residual_max", 0.0
    )
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
