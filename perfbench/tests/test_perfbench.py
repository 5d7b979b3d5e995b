"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import run
import workloads
from tracing import Tracer, self_times

from cvdownload import cli, graphs, planner, protocol

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 5):
    bench, _, warm = run.timed_setup(name, seed, tiny=True)
    assert warm.failed == 0, warm.reasons
    return bench


def first_call(bench, label_prefix: str = ""):
    return next(c for c in bench.round(1) if c.label.startswith(label_prefix))


def run_one(call) -> run.Phase:
    phase = run.Phase()
    phase.run(call)
    return phase


# -- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_smoke_run(name):
    bench = tiny(name)
    phase = run.measure(bench, 0.05)
    assert phase.rounds >= 1
    assert phase.attempted == phase.rounds * len(bench.round(1))
    assert phase.failed == 0, phase.reasons
    assert sum(phase.units.values()) > 0
    assert len(phase.all_latencies()) == phase.attempted
    assert bench.finish() == (0, [])


def test_inputs_follow_the_seed():
    a, b, c = tiny("plan", 1), tiny("plan", 1), tiny("plan", 2)

    def g_primes(bench):
        return [call.run()[0].g_prime for call in bench.round(3)]

    assert g_primes(a) == g_primes(b)
    assert g_primes(a) != g_primes(c)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_of_the_contract(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "download-stats",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    report = json.loads(lines[-2])
    assert report["repro"]["seed"] == 3 and report["repro"]["nproc"] == run.NPROC
    if not trace:
        assert set(report["report"]) == {
            "setup_s", "shots_per_s", "qubit_shots_per_s", "call_p50_ms",
            "call_tail_ms", "peak_rss_mb", "error_frac", "slowest_input_ms",
            "work_per_ref_s", "slowest_input_ref_ms", "reference_kernel_ms",
        }
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_lists_the_layer_metrics():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)


# -- tracer --------------------------------------------------------------------


def test_self_time_of_synthetic_span_tree():
    #   root [0, 10]
    #     a [1, 4]      (child b [2, 3])
    #     c [3.5, 6]    overlaps a by 0.5
    #     d [9, 12]     runs past the root, clipped at 10
    names = ["root", "a", "b", "c", "d"]
    starts = [0.0, 1.0, 2.0, 3.5, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    got = self_times(names, starts, ends, parents)
    assert got["root"] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 9.0))
    assert got["a"] == pytest.approx(2.0)
    assert got["b"] == pytest.approx(1.0)
    assert got["c"] == pytest.approx(2.5)
    assert got["d"] == pytest.approx(3.0)


def test_self_times_sum_to_root_duration():
    names = ["r", "x", "x", "y"]
    starts = [0.0, 1.0, 5.0, 5.5]
    ends = [8.0, 2.0, 7.0, 6.0]
    parents = [-1, 0, 0, 2]
    got = self_times(names, starts, ends, parents)
    assert sum(got.values()) == pytest.approx(8.0)
    assert got["x"] == pytest.approx(1.0 + 1.5)


def test_tracer_catches_calls_between_modules_and_restores():
    original = protocol.dm_apply_cz
    params = protocol.ProtocolParams(
        graphs.path_graph(3), workloads._source(10.0, 0.0)
    )
    q = np.array([0.1, 0.9, 1.5])
    tracer = Tracer(
        ["protocol.downloaded_state_equivalent", "qubits.dm_apply_cz", "qubits.gone"],
        layers.HOOKS,
    ).install()
    try:
        protocol.downloaded_state_equivalent(params, q)  # inactive: not recorded
        tracer.active = True
        protocol.downloaded_state_equivalent(params, q)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert protocol.dm_apply_cz is original
    assert tracer.calls() == {
        "protocol.downloaded_state_equivalent": 1,
        "qubits.dm_apply_cz": 2,
    }
    assert tracer.child_calls("protocol.downloaded_state_equivalent", "qubits.dm_apply_cz") == 2
    assert tracer.counters["protocol.register_bytes"] == 16 * 4**3
    metrics = layers.layer_metrics(tracer, 1, 0.0)
    assert metrics["qubits.dm_apply_cz.calls"]["value"] == 2
    assert metrics["grid.make_grid_state.self_s"]["value"] == 0.0


# -- corrupted results raise the failure count ---------------------------------


def _flip_deleted_bit(record, flip_gamma: bool):
    site = next(i for i, (kind, _) in enumerate(record.outcomes) if kind == "delete")
    outcomes = list(record.outcomes)
    outcomes[site] = ("delete", 1 - outcomes[site][1])
    gamma = record.gamma.copy()
    if flip_gamma:  # keep the bit consistent with gamma; only the state disagrees
        gamma[site] = 1.0 / gamma[site]
    return dataclasses.replace(record, outcomes=tuple(outcomes), gamma=gamma)


def _record_with_deletion(bench, k=1):
    for call in bench.round(k):
        result = call.run()
        records, _ = result
        if not records[0].all_kept:
            return call, result
    return _record_with_deletion(bench, k + 1)


def test_flipped_outcome_fails_download_stats():
    bench = tiny("download-stats")
    call = first_call(bench)
    results = call.run()
    assert call.check(results) is None
    records, summary = results[0]
    i = next(i for i, r in enumerate(records) if not r.all_kept)
    records = records[:i] + [_flip_deleted_bit(records[i], False)] + records[i + 1:]
    assert "contradicts gamma" in call.check([(records, summary)] + results[1:])


def test_biased_deletion_rate_fails_pooled_gate():
    bench = tiny("download-stats")
    call = first_call(bench)
    results = call.run()
    biased = []
    for records, summary in results:
        kept = [
            dataclasses.replace(r, outcomes=tuple(("keep", None) for _ in r.outcomes))
            for r in records
        ]
        biased.append((kept, dataclasses.replace(summary, p_del_empirical=0.0)))
    for _ in range(20):
        assert call.check(biased) is None  # consistent in itself ...
    failed, reasons = bench.finish()  # ... but 5 sigma off the closed form
    assert failed > 0 and "sigma" in reasons[0]


@pytest.mark.parametrize("flip_gamma", [False, True])
def test_flipped_outcome_fails_download_states(flip_gamma):
    bench = tiny("download-states")
    call, (records, summary) = _record_with_deletion(bench)
    bad = [_flip_deleted_bit(records[0], flip_gamma)]
    reason = call.check((bad, summary))
    assert reason is not None
    assert ("has weight" if flip_gamma else "contradicts gamma") in reason


def test_wrong_kept_state_fails_download_states():
    bench = tiny("download-states")
    for k in range(1, 50):
        call = bench.round(k)[0]
        records, summary = call.run()
        if records[0].all_kept:
            break
    rec = records[0]
    rho = rec.post_state.rho.copy()
    rho[0, -1] = rho[-1, 0] = 0.0
    state = dataclasses.replace(rec, post_state=type(rec.post_state)(rec.post_state.n, rho))
    assert call.check((records, summary)) is None
    assert "fidelity" in call.check(([state], summary))


def test_perturbed_g_prime_fails_plan(monkeypatch):
    bench = tiny("plan")
    call = first_call(bench)
    honest = planner.plan
    monkeypatch.setattr(
        planner, "plan", lambda g, n: dataclasses.replace(honest(g, n), g_prime=honest(g, n).g_prime + 1e-3)
    )
    phase = run_one(call)
    assert phase.failed == 1 and "verify_plan residual" in phase.reasons[0]


def test_injected_fault_fails_oracle_verify(monkeypatch):
    bench = tiny("oracle")
    call = first_call(bench, "verify")
    honest = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: honest(argv + ["--inject-fault"]))
    phase = run_one(call)
    assert (phase.attempted, phase.failed) == (1, 1)


def test_mismatched_outcomes_fail_oracle_direct(monkeypatch):
    bench = tiny("oracle")
    call = first_call(bench, "direct")
    honest = protocol.downloaded_state_equivalent
    monkeypatch.setattr(
        protocol, "downloaded_state_equivalent", lambda p, q: honest(p, np.asarray(q) + 0.3)
    )
    phase = run_one(call)
    assert phase.failed == 1 and "trace distance" in phase.reasons[0]


def test_wrong_phase_fails_oracle_grid(monkeypatch):
    bench = tiny("oracle")
    call = first_call(bench, "grid")
    honest = graphs.neighbor_phase
    monkeypatch.setattr(graphs, "neighbor_phase", lambda g, q: honest(g, q) + 0.1)
    phase = run_one(call)
    assert phase.failed == 1 and "grid two-mode residual" in phase.reasons[0]


def test_exception_counts_as_failure():
    def boom():
        raise ValueError("boom")

    phase = run_one(workloads.Call("x", 1, 0, boom, lambda r: None))
    assert (phase.attempted, phase.failed, phase.all_latencies()) == (1, 1, [])
    assert "ValueError: boom" in phase.reasons[0]


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = [float(i) for i in range(1, 41)]
    assert run.tail(xs) == (30.0, 75.0, 40)
    assert run.tail(xs[:5]) == (5.0, 100.0, 5)


def test_reference_time_divides_each_call_by_the_probes_around_it():
    host = run.HostSpeed(run.python_kernel)
    host.starts = [0.0, 1.0, 1.05, 1.2, 5.0]
    host.seconds = [0.009, 0.002, 0.001, 0.004, 0.009]
    phase = run.Phase(host)
    phase.latencies["a"] = [0.01]
    phase.starts["a"] = [1.02]
    # within PROBE_WINDOW_S before the call: 2 ms; after it: 1 and 4 ms,
    # median 2.5 ms; the call took 10 ms / 2.25 ms kernel runs
    assert phase.ref_ms() == {"a": [pytest.approx(10 / 2.25)]}
