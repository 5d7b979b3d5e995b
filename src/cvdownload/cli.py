"""Command-line front end.

Subcommands
-----------
verify      cross-module consistency batteries with a residual report
download    Monte Carlo protocol shots with a summary row
thresholds  squeezing-versus-erasure tables plus target inversions
plan        hardware decorrelation recipe for loss / inefficiency
sweep       cartesian feasibility sweep of the planner

Configuration precedence is command-line flags over ``--config`` file
over built-in defaults.  Every output starts with a metadata header
(tool version, command, seed, resolved config) sufficient to reproduce
it byte for byte; no timestamps, so identical inputs give identical
files.  Floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .error_model import (
    db_to_squeezing,
    p_del_analytic,
    p_del_monte_carlo,
    squeezing_db_for_pdel,
    squeezing_to_db,
    vertex_disconnect_prob,
)
from .gaussian import SqueezedThermalParams
from .graphs import Graph, parse_graph_spec, random_graph
from .planner import NoiseParams, linearized_plan, plan, verify_plan
from .protocol import ProtocolParams, downloaded_state_direct, run_download
from .qubits import balancing_povm_diagonals, trace_distance

_FLOAT_FMT = ".17g"


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, _FLOAT_FMT)
    if value is None:
        return ""
    return str(value)


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _meta_lines(command: str, config: dict) -> list[str]:
    return [
        f"# cvdownload {__version__}",
        f"# command: {command}",
        f"# seed: {config.get('seed', 0)}",
        f"# config: {json.dumps(config, sort_keys=True)}",
    ]


def _csv_output(path, command, config, header, rows) -> None:
    lines = _meta_lines(command, config)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_lines(path, lines)


def _json_output(path, command, config, payload: dict) -> None:
    doc = {
        "meta": {
            "tool": "cvdownload",
            "version": __version__,
            "command": command,
            "seed": config.get("seed", 0),
            "config": config,
        }
    }
    doc.update(payload)
    _write_lines(path, [json.dumps(doc, indent=2, sort_keys=True)])


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < config file < explicit flags into one dict."""
    config = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual < self.threshold


def _battery_equivalent_circuit(rng: np.random.Generator) -> CheckResult:
    """Direct and commuted constructions of the downloaded register agree."""
    from .protocol import downloaded_state_equivalent, sample_outcomes

    worst = 0.0
    for _ in range(24):
        graph = random_graph(int(rng.integers(2, 5)), 0.5, rng)
        source = SqueezedThermalParams(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        params = ProtocolParams(graph, source)
        q = sample_outcomes(params, rng)
        dist = trace_distance(
            downloaded_state_direct(params, q),
            downloaded_state_equivalent(params, q),
        )
        worst = max(worst, dist)
    return CheckResult("equivalent-circuit trace distance", worst, 1e-10)


def _battery_grid(rng: np.random.Generator) -> list[CheckResult]:
    """Grid simulator versus analytic conditional states."""
    from .error_model import qubit_given_outcome
    from .graphs import path_graph
    from .grid import apply_cd_grid, apply_cphase_grid, make_grid_state, measure_q_grid
    from .qubits import apply_rz

    worst1 = 0.0
    state1 = apply_cd_grid(make_grid_state(1.0, 1, k=32), 0)
    for _ in range(20):
        q, qubit = measure_q_grid(state1, rng)
        worst1 = max(
            worst1, trace_distance(qubit, qubit_given_outcome(float(q[0]), 1.0))
        )

    graph = path_graph(2)
    params = ProtocolParams(graph, SqueezedThermalParams(0.6))
    state2 = make_grid_state(0.6, 2, k=16)
    apply_cphase_grid(state2)
    apply_cd_grid(state2, 0)
    apply_cd_grid(state2, 1)
    worst2 = 0.0
    for _ in range(5):
        q, qubit = measure_q_grid(state2, rng)
        from .graphs import neighbor_phase

        phi = neighbor_phase(graph, q)
        for site in range(2):
            qubit = apply_rz(qubit, site, float(phi[site]))
        worst2 = max(worst2, trace_distance(qubit, downloaded_state_direct(params, q)))
    return [
        CheckResult("grid oracle, one mode", worst1, 1e-6),
        CheckResult("grid oracle, two modes", worst2, 1e-4),
    ]


def _battery_planner(rng: np.random.Generator, inject_fault: bool) -> CheckResult:
    """Forward replay of random plans through the Gaussian channel engine."""
    from dataclasses import replace

    worst = 0.0
    for _ in range(8):
        graph = random_graph(int(rng.integers(2, 6)), 0.6, rng)
        noise = NoiseParams(
            rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05), rng.uniform(0.3, 1.5)
        )
        p = plan(graph, noise)
        if inject_fault:
            p = replace(p, g_prime=p.g_prime + 1e-3)
        worst = max(worst, verify_plan(p, graph, noise))
    name = "planner forward verification"
    if inject_fault:
        name += " (fault injected)"
    return CheckResult(name, worst, 1e-9)


def _battery_povm(rng: np.random.Generator) -> CheckResult:
    """Completeness of the balancing POVM across imbalance scales."""
    worst = 0.0
    for _ in range(200):
        gamma = math.exp(rng.uniform(-3.0, 3.0))
        keep, delete, _ = balancing_povm_diagonals(gamma)
        worst = max(worst, float(np.abs(keep**2 + delete**2 - 1.0).max()))
    return CheckResult("POVM completeness", worst, 1e-12)


def cmd_verify(args: argparse.Namespace) -> int:
    defaults = {"seed": 0, "inject_fault": False}
    config = _resolve(args, defaults)
    rng = np.random.default_rng(int(config["seed"]))
    checks = [_battery_equivalent_circuit(rng)]
    checks.extend(_battery_grid(rng))
    checks.append(_battery_planner(rng, bool(config["inject_fault"])))
    checks.append(_battery_povm(rng))

    n_pass = sum(c.passed for c in checks)
    ok = n_pass == len(checks)
    exit_code = 0 if ok else 1
    if args.format == "json":
        report = [
            {
                "name": c.name,
                "residual": float(c.residual),
                "threshold": c.threshold,
                "passed": bool(c.passed),
            }
            for c in checks
        ]
        payload = {"checks": report, "result": "PASS" if ok else "FAIL", "exit_code": exit_code}
        _json_output(args.out, "verify", config, payload)
        return exit_code

    lines = _meta_lines("verify", config)
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{c.name:<{width}}  residual {c.residual:<12.3e} "
            f"threshold {c.threshold:<9.1e} {status}"
        )
    lines.append(f"RESULT: {'PASS' if ok else 'FAIL'} ({n_pass}/{len(checks)} checks)")
    _write_lines(args.out, lines)
    return exit_code


# ---------------------------------------------------------------------------
# download
# ---------------------------------------------------------------------------

def cmd_download(args: argparse.Namespace) -> int:
    defaults = {
        "graph": "path:3",
        "r_db": 10.0,
        "nbar": 0.0,
        "shots": 1000,
        "seed": 0,
        "records": None,
    }
    config = _resolve(args, defaults)
    graph = parse_graph_spec(str(config["graph"]))
    r = db_to_squeezing(float(config["r_db"]))
    params = ProtocolParams(
        graph,
        SqueezedThermalParams(r, float(config["nbar"])),
        seed=int(config["seed"]),
    )
    keep_states = config["records"] is not None
    records, summary = run_download(params, int(config["shots"]), keep_states)

    if config["records"] is not None:
        with open(str(config["records"]), "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")

    header = ["r_db", "nbar", "shots", "p_del_emp", "p_del_analytic", "kept_fidelity_mean"]
    row = [
        float(config["r_db"]),
        float(config["nbar"]),
        summary.shots,
        summary.p_del_empirical,
        summary.p_del_analytic,
        summary.mean_kept_fidelity,
    ]
    if args.format == "json":
        _json_output(args.out, "download", config, {"summary": summary.to_json()})
    else:
        _csv_output(args.out, "download", config, header, [row])
    return 0


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def cmd_thresholds(args: argparse.Namespace) -> int:
    defaults = {
        "db_range": "2:16:1",
        "targets": "0.249,0.5",
        "rails": 1,
        "shots": 0,
        "seed": 0,
    }
    config = _resolve(args, defaults)
    start, stop, step = (float(tok) for tok in str(config["db_range"]).split(":"))
    if step <= 0:
        raise ValueError("db range step must be positive")
    db_values = list(np.arange(start, stop + 1e-9, step))
    rails = int(config["rails"])
    shots = int(config["shots"])
    rng = np.random.default_rng(int(config["seed"]))

    header = ["db", "r0", "p_del", "p_del_mc", "stderr", "n_rails", "p_vertex"]
    rows = []

    def one_row(db: float) -> list:
        r0 = db_to_squeezing(db)
        p = p_del_analytic(r0)
        if shots > 0:
            p_mc, err = p_del_monte_carlo(r0, shots, rng)
        else:
            p_mc, err = None, None
        return [db, r0, p, p_mc, err, rails, vertex_disconnect_prob(p, rails)]

    for db in db_values:
        rows.append(one_row(float(db)))
    for target in _float_list(str(config["targets"])):
        rows.append(one_row(squeezing_db_for_pdel(target)))

    if args.format == "json":
        payload = {
            "columns": header,
            "rows": [
                [None if v is None else v for v in row] for row in rows
            ],
        }
        _json_output(args.out, "thresholds", config, payload)
    else:
        _csv_output(args.out, "thresholds", config, header, rows)
    return 0


# ---------------------------------------------------------------------------
# plan / sweep
# ---------------------------------------------------------------------------

def _plan_row(graph: Graph, noise: NoiseParams) -> tuple:
    p = plan(graph, noise)
    return p, (
        noise.eps1,
        noise.eps2,
        noise.r_prime,
        int(p.physical),
        p.g_prime,
        squeezing_to_db(p.r_eff),
        p.nbar_eff,
    )


def cmd_plan(args: argparse.Namespace) -> int:
    defaults = {
        "graph": "path:3",
        "eps1": 0.01,
        "eps2": 0.01,
        "r_prime": 1.0,
        "seed": 0,
    }
    config = _resolve(args, defaults)
    graph = parse_graph_spec(str(config["graph"]))
    noise = NoiseParams(
        float(config["eps1"]), float(config["eps2"]), float(config["r_prime"])
    )
    p, row = _plan_row(graph, noise)
    residual = verify_plan(p, graph, noise) if p.physical else None

    lin_spectral = linearized_plan(graph, noise)
    lin_degree = linearized_plan(graph, noise, use_degree_bound=True)

    if args.format == "csv":
        header = ["eps1", "eps2", "r_prime", "feasible", "g_prime", "r_eff_db", "nbar_eff"]
        _csv_output(args.out, "plan", config, header, [row])
        return 0

    payload = {
        "plan": p.to_json(),
        "verification": {
            "residual": residual,
            "threshold": 1e-9,
            "passed": None if residual is None else bool(residual < 1e-9),
        },
        "linearized": {
            "spectral": lin_spectral._asdict(),
            "degree_bound": lin_degree._asdict(),
        },
    }
    _json_output(args.out, "plan", config, payload)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    defaults = {
        "graph": "path:3",
        "eps1": "0,0.01,0.02",
        "eps2": "0,0.01",
        "r_prime": "0.5,1.0",
        "seed": 0,
    }
    config = _resolve(args, defaults)
    graph = parse_graph_spec(str(config["graph"]))
    rows = []
    for e1 in _float_list(str(config["eps1"])):
        for e2 in _float_list(str(config["eps2"])):
            for rp in _float_list(str(config["r_prime"])):
                try:
                    _, row = _plan_row(graph, NoiseParams(e1, e2, rp))
                except ValueError as exc:
                    raise ValueError(
                        f"sweep point eps1={e1} eps2={e2} r_prime={rp}: {exc}"
                    ) from exc
                rows.append(row)
    header = ["eps1", "eps2", "r_prime", "feasible", "g_prime", "r_eff_db", "nbar_eff"]
    if args.format == "json":
        _json_output(args.out, "sweep", config, {"columns": header, "rows": rows})
    else:
        _csv_output(args.out, "sweep", config, header, rows)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvdownload",
        description="Simulate and analyze downloading qubit cluster states "
        "from continuous-variable cluster states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt_default: str = "csv") -> None:
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default=fmt_default,
            help=f"output format (default {fmt_default})",
        )

    p_verify = sub.add_parser("verify", help="run cross-module consistency batteries")
    common(p_verify)
    p_verify.add_argument(
        "--inject-fault",
        dest="inject_fault",
        action="store_const",
        const=True,
        default=None,
        help=argparse.SUPPRESS,  # used to prove the batteries can fail
    )
    p_verify.set_defaults(func=cmd_verify)

    p_dl = sub.add_parser("download", help="Monte Carlo protocol run")
    common(p_dl)
    p_dl.add_argument("--graph", default=None, help="graph spec or JSON file")
    p_dl.add_argument("--r-db", dest="r_db", type=float, default=None,
                      help="source squeezing in dB")
    p_dl.add_argument("--nbar", type=float, default=None, help="thermal occupation")
    p_dl.add_argument("--shots", type=int, default=None, help="number of shots")
    p_dl.add_argument("--records", default=None,
                      help="also write per-shot records to this JSONL file")
    p_dl.set_defaults(func=cmd_download)

    p_th = sub.add_parser("thresholds", help="squeezing-versus-erasure tables")
    common(p_th)
    p_th.add_argument("--db-range", dest="db_range", default=None,
                      help="start:stop:step in dB")
    p_th.add_argument("--targets", default=None,
                      help="comma list of deletion probabilities to invert")
    p_th.add_argument("--rails", type=int, default=None,
                      help="redundant rails per vertex")
    p_th.add_argument("--shots", type=int, default=None,
                      help="Monte Carlo shots per row (0 disables)")
    p_th.set_defaults(func=cmd_thresholds)

    p_plan = sub.add_parser("plan", help="decorrelation recipe for one noise point")
    common(p_plan, fmt_default="json")
    p_plan.add_argument("--graph", default=None, help="graph spec or JSON file")
    p_plan.add_argument("--eps1", type=float, default=None, help="photon loss")
    p_plan.add_argument("--eps2", type=float, default=None,
                        help="detector inefficiency")
    p_plan.add_argument("--r-prime", dest="r_prime", type=float, default=None,
                        help="hardware squeezing budget (nepers)")
    p_plan.set_defaults(func=cmd_plan)

    p_sw = sub.add_parser("sweep", help="cartesian planner feasibility sweep")
    common(p_sw)
    p_sw.add_argument("--graph", default=None, help="graph spec or JSON file")
    p_sw.add_argument("--eps1", default=None, help="comma list of loss values")
    p_sw.add_argument("--eps2", default=None,
                      help="comma list of inefficiency values")
    p_sw.add_argument("--r-prime", dest="r_prime", default=None,
                      help="comma list of squeezing budgets")
    p_sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"cvdownload {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
