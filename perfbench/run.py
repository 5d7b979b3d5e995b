"""Outside-in benchmark of cvdownload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src/`` (never from an
installed copy).  Each workload runs in this one process as a closed loop
with a single caller.  BLAS runs on one thread.  With ``--trace 0`` the
end-to-end metrics are measured, in wall time and in reference time (see
:class:`HostSpeed`); with ``--trace 1`` untraced and traced blocks
alternate, giving per-layer metrics and the tracing overhead, and the
spans are written to ``perfbench/out/``.  The second-last stdout line is a report
(every metric under its workload's name, the reproducibility record, and
failure reasons); the last line is the result object.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
#: One BLAS thread, within the cap of nproc.  The caller is single-threaded,
#: and a second BLAS thread on a small shared host waits whenever another
#: tenant holds the other CPU, which the reference kernel would not see.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("download-stats", "download-states", "plan", "oracle")
#: Set-up is timed in this process and in this many fresh child processes
#: (a child cannot reuse anything the parent cached); the median is reported.
SETUP_PROBES = 2
#: Length of the alternating untraced and traced blocks of a traced run.
TRACE_BLOCK_S = 2.0
WARMUP_ROUND = 0
#: The reference kernel is probed between unit calls at most this often, ...
PROBE_EVERY_S = 0.025
#: ... each probe runs it for this share of the time since the last probe, ...
PROBE_SHARE = 0.05
#: ... and a call is measured against the kernel runs within this distance.
PROBE_WINDOW_S = 0.25


def pin_environment() -> None:
    """Pin BLAS threads and make ``src/`` the package's only source."""
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, NPROC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))


def lower_quartile(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=4)[0] if len(xs) > 1 else xs[0]


def python_kernel() -> float:
    """Reference kernel: NumPy generator set-up and small-array arithmetic
    driven from a Python loop, like the package's shot loop.

    One run takes about 1 ms on a quiet 2-vCPU host.  Like every reference
    kernel it is fixed work that never touches cvdownload.
    """
    import numpy as np

    acc = 0.0
    for i in range(60):
        x = np.random.default_rng(i).normal(size=64)
        acc += float(np.sqrt(x * x + 1.0).sum())
    return acc


def matmul_kernel() -> float:
    """Reference kernel: plane rotations applied as dense 144 x 144 matrix
    products, the step that takes nearly all of a plan's time.

    One run takes about 1 ms on a quiet 2-vCPU host.  Host contention slows
    such products much less than Python-bound code.
    """
    import numpy as np

    w = np.eye(144)
    for i in range(8):
        g = np.eye(144)
        g[i, i] = g[i + 1, i + 1] = 0.6
        g[i, i + 1], g[i + 1, i] = -0.8, 0.8
        w = g.T @ w
    return float(w[0, 0])


#: The reference kernel of each workload: the kind of work its calls spend
#: their time in, so that the host slows the kernel and the calls alike.
REFERENCE_KERNELS = {
    "download-stats": python_kernel,
    "download-states": python_kernel,
    "plan": matmul_kernel,
    "oracle": python_kernel,
}


class HostSpeed:
    """Timings of a workload's reference kernel, made between unit calls.

    Other tenants of a shared host slow this process by up to 1.7x for
    stretches of seconds, and its CPU time slows with its wall time, so no
    clock of its own can tell a slow host from a slow program.  A call's
    time divided by the reference kernel's time around it can: that ratio,
    in reference milliseconds (``ref-ms``, one kernel run), holds while the
    host speed swings.  A change to the program moves the call and not the
    kernel.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.starts: list[float] = []  # one entry per kernel run
        self.seconds: list[float] = []
        self.last_end: float | None = None

    def probe(self) -> None:
        """Run the kernel for :data:`PROBE_SHARE` of the time since the last
        probe, and at least once."""
        now = time.perf_counter()
        budget = PROBE_SHARE * (now - self.last_end) if self.last_end is not None else 0.0
        spent = 0.0
        while True:
            start = time.perf_counter()
            self.kernel()
            self.seconds.append(time.perf_counter() - start)
            self.starts.append(start)
            spent += self.seconds[-1]
            if spent >= budget:
                break
        self.last_end = time.perf_counter()

    def maybe_probe(self) -> None:
        if self.last_end is None or time.perf_counter() - self.last_end >= PROBE_EVERY_S:
            self.probe()

    def around(self, start: float, end: float) -> float:
        """Kernel seconds around a call: the mean of the median kernel run
        within :data:`PROBE_WINDOW_S` before it and the median after it."""
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        mid = bisect.bisect_left(self.starts, start)
        after = bisect.bisect_left(self.starts, end)
        hi = bisect.bisect_right(self.starts, end + PROBE_WINDOW_S)
        sides = [self.seconds[lo:mid], self.seconds[after:hi]]
        return statistics.mean(statistics.median(xs) for xs in sides if xs)


class Phase:
    """Outcome of a stretch of unit calls, kept per input size (call label).

    With a :class:`HostSpeed` the reference kernel is probed before calls,
    and each call's start is kept to measure it against the probes.
    """

    def __init__(self, host: HostSpeed | None = None):
        self.host = host
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.starts: dict[str, list[float]] = defaultdict(list)
        self.units: dict[str, int] = defaultdict(int)
        self.qubit_units: dict[str, int] = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.reasons: list[str] = []

    def run(self, call, tracer=None) -> None:
        """Time one unit call, then check its result outside the timing."""
        self.attempted += 1
        if self.host is not None:
            self.host.maybe_probe()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result, reason = call.run(), None
        except Exception:  # a failing call is counted and the loop goes on
            result, reason = None, "raised " + traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if reason is None:
            self.latencies[call.label].append(elapsed)
            self.starts[call.label].append(start)
            self.units[call.label] += call.units
            self.qubit_units[call.label] += call.qubit_units
            try:
                reason = call.check(result)
            except Exception:
                reason = "check raised " + traceback.format_exc()
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{call.label}: {reason}")

    def run_round(self, bench, k: int, tracer=None) -> None:
        for call in bench.round(k):
            self.run(call, tracer)
        self.rounds += 1

    def all_latencies(self) -> list[float]:
        return [x for xs in self.latencies.values() for x in xs]

    def steady_seconds(self) -> float:
        """Time of the completed calls if each ran at its input size's
        lower-quartile latency.

        Other tenants of a shared host slow the process for seconds at a
        time, and they only ever slow it.  The lower quartile of each size
        ignores such stretches as long as they cover under three quarters
        of the run; sizes are weighted by their number of calls.
        """
        return sum(len(xs) * lower_quartile(xs) for xs in self.latencies.values())

    def per_s(self, units: dict[str, int]) -> float:
        return sum(units.values()) / self.steady_seconds()

    def ref_ms(self) -> dict[str, list[float]]:
        """Each call's latency in reference milliseconds (kernel runs)."""
        around = self.host.around
        return {
            label: [x / around(t, t + x) for t, x in zip(self.starts[label], xs)]
            for label, xs in self.latencies.items()
        }


def run_until(phase: Phase, bench, k: int, deadline: float, tracer=None) -> int:
    """Run whole rounds from round ``k`` until ``deadline``; returns the next round."""
    while True:
        phase.run_round(bench, k, tracer)
        k += 1
        if time.perf_counter() >= deadline:
            return k


def measure(bench, seconds: float) -> Phase:
    phase = Phase(HostSpeed(REFERENCE_KERNELS[bench.name]))
    run_until(phase, bench, WARMUP_ROUND + 1, time.perf_counter() + seconds)
    phase.host.probe()
    return phase


def measure_traced(bench, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Alternate untraced and traced blocks of rounds; returns both phases.

    Blocks of about :data:`TRACE_BLOCK_S` interleave, so both phases see the
    same host conditions and their ratio is the tracing overhead.
    """
    base, traced = Phase(), Phase()
    k = WARMUP_ROUND + 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        block_end = min(time.perf_counter() + TRACE_BLOCK_S, deadline)
        k = run_until(base, bench, k, block_end)
        block_end = min(time.perf_counter() + TRACE_BLOCK_S, deadline)
        tracer.install()
        try:
            k = run_until(traced, bench, k, block_end, tracer)
        finally:
            tracer.uninstall()
    return base, traced


def timed_setup(name: str, seed: int, tiny: bool = False):
    """Import the package, build inputs and targets, and make one warm-up call.

    Returns ``(workload, seconds, warm-up phase)``.  Must run before
    anything in this process imports NumPy, so the import is timed whole.
    """
    start = time.perf_counter()
    import cvdownload

    if not Path(cvdownload.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cvdownload imported from {cvdownload.__file__}, not {SRC}")
    import workloads

    bench = workloads.WORKLOADS[name](seed, tiny)
    warm = Phase()
    warm.run(bench.round(WARMUP_ROUND)[0])
    return bench, time.perf_counter() - start, warm


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten calls beyond it.

    Returns ``(value, percentile, samples)``: the ``(N - 10)``-th smallest
    of ``N`` latencies, at percentile ``100 (N - 10) / N``.  With ten calls
    or fewer no percentile qualifies and the maximum is returned at 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def repro_record(args, bench) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "cvdownload").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": NPROC,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": bench.sizes(),
    }


def end_to_end(bench, phase: Phase, setup_s: float, attempted: int, failed: int):
    """The report's metrics, under the workload's own names, and the result's.

    The result line carries the metrics every workload has and that stay
    steady on a shared host: the rate and the slowest input's latency in
    reference time (see :class:`HostSpeed`), each at the lower-quartile call
    of every input size (see :meth:`Phase.steady_seconds`).  The same
    figures in wall time, the plain median and tail latency over all calls,
    and ``error_frac`` are in the report.
    """
    work_per_s = phase.per_s(phase.units)
    slowest_ms = max(lower_quartile(xs) for xs in phase.latencies.values()) * 1e3
    ref_ms = phase.ref_ms()
    ref_lq = {label: lower_quartile(xs) for label, xs in ref_ms.items()}
    work_per_ref_s = sum(phase.units.values()) / (
        sum(len(ref_ms[label]) * x for label, x in ref_lq.items()) / 1e3
    )
    slowest_ref_ms = max(ref_lq.values())
    probe_ms = [x * 1e3 for x in phase.host.seconds]
    latencies = phase.all_latencies()
    tail_s, pct, samples = tail(latencies)
    rss = peak_rss_mb()
    report = {
        "setup_s": {"value": setup_s, "unit": "s"},
        f"{bench.unit}_per_s": {"value": work_per_s, "unit": f"{bench.unit}/s"},
    }
    if bench.unit == "shots":
        report["qubit_shots_per_s"] = {
            "value": phase.per_s(phase.qubit_units),
            "unit": "qubit-shots/s",
        }
    report.update(
        {
            "call_p50_ms": {
                "value": statistics.median(latencies) * 1e3,
                "unit": "ms",
                "samples": samples,
            },
            "call_tail_ms": {
                "value": tail_s * 1e3,
                "unit": "ms",
                "percentile": pct,
                "samples": samples,
            },
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "error_frac": {"value": failed / attempted, "unit": "ratio"},
            "slowest_input_ms": {"value": slowest_ms, "unit": "ms"},
            "work_per_ref_s": {"value": work_per_ref_s, "unit": "1/ref-s"},
            "slowest_input_ref_ms": {"value": slowest_ref_ms, "unit": "ref-ms"},
            "reference_kernel_ms": {
                "p25": lower_quartile(probe_ms),
                "p50": statistics.median(probe_ms),
                "min": min(probe_ms),
                "max": max(probe_ms),
                "samples": len(probe_ms),
            },
        }
    )
    result = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "work_per_ref_s": {"value": work_per_ref_s, "unit": "1/ref-s"},
        "slowest_input_ref_ms": {"value": slowest_ref_ms, "unit": "ref-ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return report, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cvdownload" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    bench, own_setup_s, warm = timed_setup(args.workload, args.seed)

    if args.trace:
        from layers import HOOKS, TARGETS, layer_metrics
        from tracing import Tracer

        gc.collect()
        tracer = Tracer(TARGETS, HOOKS)
        base, phase = measure_traced(bench, args.seconds, tracer)
        overhead = (phase.steady_seconds() / phase.attempted) / (
            base.steady_seconds() / base.attempted
        ) - 1.0
        metrics = layer_metrics(tracer, phase.attempted, overhead)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        phases = [warm, base, phase]
        report = dict(metrics)
    else:
        setups = [own_setup_s]
        setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        gc.collect()
        phase = measure(bench, args.seconds)
        phases = [warm, phase]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    reasons = [r for p in phases for r in p.reasons]
    pooled_failed, pooled_reasons = bench.finish()
    failed = min(attempted, failed + pooled_failed)
    reasons += pooled_reasons

    if not args.trace:
        report, metrics = end_to_end(
            bench, phase, statistics.median(setups), attempted, failed
        )
        report["setup_s"]["samples"] = setups
    per_label_ms = {
        label: {"p25": lower_quartile(xs) * 1e3, "p50": statistics.median(xs) * 1e3}
        for label, xs in phase.latencies.items()
    }
    print(
        json.dumps(
            {
                "report": report,
                "unit_calls": phase.attempted,
                "rounds": phase.rounds,
                "call_ms_by_input": per_label_ms,
                "failures": reasons[:20],
                "repro": repro_record(args, bench),
            }
        )
    )
    for reason in reasons[:5]:
        print(f"perfbench: failed check: {reason}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
