"""Command-line front end.

Subcommands
-----------
verify      the paper's ten acceptance criteria (``criteria.CRITERIA``) at
            small sizes, one residual row each (two each for c06 and c08)
download    Monte Carlo protocol shots with a summary row; ``--records``
            adds one JSON line per shot: ``q``, ``kept`` and ``bits`` (0/1)
            and ``post_state`` ``{"format": "factored-v2", "coherence": c}``
thresholds  squeezing-versus-erasure tables plus target inversions
plan        hardware decorrelation recipe for loss / inefficiency
sweep       cartesian sweep of the planner over noise points

``COMMANDS`` holds each key's type, default and help once; its flag and
its ``--config`` value (see ``_convert``) both take that type, with flags
over the config file over the defaults; no flag takes an abbreviation.
Every output starts with a metadata header (tool version, command,
resolved typed config; only the commands that draw take and name a
``seed``, ``download`` and ``thresholds`` with their draw rule,
``rng_scheme`` (``thresholds --shots 0`` draws nothing and has neither
line), and ``plan`` names the layout of its network,
``network_format``) sufficient to reproduce it byte for byte; no
timestamps, so identical inputs give identical files.  Floats print with
17 significant digits.  A ``thresholds`` row's ``p_del_mc`` is the
``p_del_emp`` of ``download --graph path:1 --nbar 0`` at its dB, shots and
seed, under ``run_download``'s cap of 10^8 qubit-shots (10 bytes each); every
target and both ``db_range`` ends are checked before the first row.  A
refusal, a parse error included, is exit 2 and one stderr line.

Every subcommand writes through ``_emit``, as CSV rows or as one JSON
document; only ``verify``'s CSV is its text report.  JSON writes a result
from its own fields (``_plain``): a dataclass by its fields, a structured
array as its columns (``plan``'s network as ``{"i": [...], "j": [...],
"angle": [...]}``) and any other array as nested lists.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, is_dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .criteria import run_criteria
from .error_model import (
    db_to_squeezing,
    p_del_analytic,
    squeezing_db_for_pdel,
    squeezing_to_db,
    vertex_disconnect_prob,
)
from .gaussian import SqueezedThermalParams, _check_r0
from .graphs import Graph, parse_graph_spec, path_graph
from .planner import VERIFY_TOL, NoiseParams, plan, verify_plan
from .protocol import SHOT_BLOCK, ProtocolParams, _check_seed, run_download

_FLOAT_FMT = ".17g"


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)  # nan and inf print as "nan" and "inf"
    if value is None:
        return ""
    return str(value)


def _plain(obj):
    """``obj`` as plain JSON data, each NaN or +-inf float as None: a
    dataclass by its fields, a structured array as its columns, any other
    array or NumPy scalar as lists and Python scalars.  One walk; an integer
    or all-finite float array is converted whole, with no walk of its items."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        if obj.dtype.names:
            return {name: _plain(obj[name]) for name in obj.dtype.names}
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
    if isinstance(obj, (np.ndarray, np.generic)):
        return _plain(obj.tolist())
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_text(obj, **kwargs) -> str:
    """The one JSON writer: strict RFC 8259 text, each NaN or +-inf as null,
    encoded once from the plain data of one walk (``_plain``)."""
    return json.dumps(_plain(obj), allow_nan=False, **kwargs)


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _meta_lines(command: str, config: dict, extra: dict | None = None) -> list[str]:
    return [
        f"# cvdownload {__version__}",
        f"# command: {command}",
        *(f"# {key}: {value}" for key, value in (extra or {}).items()),
        f"# config: {_json_text(config, sort_keys=True)}",
    ]


def _emit(args, command: str, config: dict, header, rows, doc: dict | None = None,
          extra: dict | None = None) -> None:
    """Write one subcommand's result to ``args.out`` in ``args.format``.

    CSV is the metadata header, then ``header`` and one line per row.  JSON
    is one document: the metadata under ``meta``, beside ``doc`` or, without
    one, ``columns`` and ``rows``.  ``extra`` adds keys to the metadata.
    """
    if args.format == "csv":
        lines = [*_meta_lines(command, config, extra), ",".join(header)]
        lines += [",".join(map(_fmt, row)) for row in rows]
    else:
        meta = {"tool": "cvdownload", "version": __version__, "command": command,
                "config": config, **(extra or {})}
        body = {"columns": header, "rows": rows} if doc is None else doc
        lines = [_json_text({"meta": meta, **body}, indent=2, sort_keys=True)]
    _write_lines(args.out, lines)


class Setting(NamedTuple):
    """One key of a subcommand: its type, its default and its flag's help
    (``None`` hides the flag)."""

    type: type
    default: object
    help: str | None


#: The JSON scalar types that each key type takes from a config file.
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str, int, float)}


def _convert(key: str, setting: Setting, value):
    """A config-file value as its key's type, or a ValueError naming the key.

    An int key takes a JSON integer, a float key any JSON number, a string
    key a string or a number (kept as its text); ``true``/``false`` only a
    bool key and ``null`` only a key whose default is ``None``.
    """
    if value is None and setting.default is None:
        return None
    if isinstance(value, _ACCEPTS[setting.type]) and (
        isinstance(value, bool) == (setting.type is bool)
    ):
        try:
            return setting.type(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"config key {key!r} cannot take {json.dumps(value)}")


def _resolve(args: argparse.Namespace, settings: dict[str, Setting]) -> dict:
    """Merge defaults < config file < explicit flags into one typed dict."""
    config = {key: setting.default for key, setting in settings.items()}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold one JSON object")
        unknown = set(loaded) - set(settings)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            config[key] = _convert(key, settings[key], value)
    for key in settings:
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    if "seed" in config:  # refused before a command draws, as ProtocolParams refuses it
        _check_seed(config["seed"])
    return config


def _float_list(config: dict, key: str) -> list[float]:
    try:
        return [float(tok) for tok in config[key].split(",") if tok.strip()]
    except ValueError as exc:  # float() names the bad token
        raise ValueError(f"{key} must be a comma list of numbers ({exc})") from None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace, config: dict) -> int:
    extra = {"seed": config["seed"]}
    checks = run_criteria(np.random.default_rng(config["seed"]), config["inject_fault"])

    n_pass = sum(c.passed for c in checks)
    ok = n_pass == len(checks)
    exit_code = 0 if ok else 1
    if args.format == "json":
        doc = {"checks": checks, "result": "PASS" if ok else "FAIL", "exit_code": exit_code}
        _emit(args, "verify", config, None, None, doc, extra)
        return exit_code

    # the text report, which stands for verify's CSV
    lines = _meta_lines("verify", config, extra)
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

def cmd_download(args: argparse.Namespace, config: dict) -> int:
    # the draws depend on the block size: name the rule with the seed
    extra = {"seed": config["seed"], "rng_scheme": f"block-{SHOT_BLOCK}"}
    graph = parse_graph_spec(config["graph"])
    r = db_to_squeezing(config["r_db"])
    params = ProtocolParams(
        graph, SqueezedThermalParams(r, config["nbar"]), seed=config["seed"]
    )
    records, summary = run_download(params, config["shots"], keep_states=False)

    if config["records"] is not None:
        # kept, bits, c and the graph rebuild the register (register_from_outcomes);
        # phi and gamma follow from q, the graph and r0, so they are not written
        post_state = {"format": "factored-v2", "coherence": params.coherence()}
        columns = (records.q, records.kept.view(np.uint8), records.bits.view(np.uint8))
        with open(config["records"], "w", encoding="utf-8") as fh:
            for q, kept, bits in zip(*columns):
                line = {"q": q, "kept": kept, "bits": bits, "post_state": post_state}
                fh.write(_json_text(line, sort_keys=True) + "\n")

    header = ["r_db", "nbar", "shots", "p_del_emp", "p_del_analytic", "kept_fidelity_mean"]
    row = [
        config["r_db"],
        config["nbar"],
        summary.shots,
        summary.p_del_empirical,
        summary.p_del_analytic,
        summary.mean_kept_fidelity,
    ]
    _emit(args, "download", config, header, [row], {"summary": summary}, extra)
    return 0


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

_MAX_THRESHOLD_ROWS = 100_000  # dB rows per table; the default range has 15


def cmd_thresholds(args: argparse.Namespace, config: dict) -> int:
    try:
        bounds = [float(tok) for tok in config["db_range"].split(":")]
    except ValueError:
        bounds = []
    if (len(bounds) != 3 or not all(map(math.isfinite, bounds)) or bounds[2] <= 0
            or bounds[1] < bounds[0]):
        raise ValueError("db_range must be start:stop:step with finite numbers, "
                         f"stop >= start and a positive step, got {config['db_range']!r}")
    start, stop, step = bounds
    count = (stop + 1e-9 - start) / step  # np.arange makes ceil(count) rows
    if count > _MAX_THRESHOLD_ROWS:
        rows = math.ceil(count) if math.isfinite(count) else count
        raise ValueError(f"db_range asks for {rows:.6g} rows, above the cap of "
                         f"{_MAX_THRESHOLD_ROWS}")
    db_values = np.arange(start, stop + 1e-9, step)
    for db in map(float, db_values[[0, -1]]):  # r0 grows with dB
        _check_r0(db_to_squeezing(db), f"db_range end {db!r} dB as r0")
    rails = config["rails"]
    if rails < 1:
        raise ValueError(f"rails must be >= 1, got {rails}")
    shots = config["shots"]
    if shots < 0:
        raise ValueError(f"shots must be >= 0 (0 turns Monte Carlo off), got {shots}")
    targets = _float_list(config, "targets")
    try:  # every target is inverted before the first row draws
        target_dbs = [squeezing_db_for_pdel(p) for p in targets]
    except ValueError as exc:
        raise ValueError(f"targets: {exc}") from None
    # as download's, when a row draws; 0 shots draw nothing, so name no seed
    extra = {"seed": config["seed"], "rng_scheme": f"block-{SHOT_BLOCK}"} if shots else {}

    header = ["db", "r0", "p_del", "p_del_mc", "stderr", "n_rails", "p_vertex"]

    def one_row(db: float) -> list:
        r0 = db_to_squeezing(db)
        p = p_del_analytic(r0)
        p_mc = err = None
        if shots > 0:  # the shots of download --graph path:1 --nbar 0
            params = ProtocolParams(path_graph(1), SqueezedThermalParams(r0), seed=config["seed"])
            p_mc = run_download(params, shots, keep_states=False)[1].p_del_empirical
            err = math.sqrt(p_mc * (1.0 - p_mc) / shots)
        return [db, r0, p, p_mc, err, rails, vertex_disconnect_prob(p, rails)]

    rows = [one_row(float(db)) for db in [*db_values, *target_dbs]]

    _emit(args, "thresholds", config, header, rows, extra=extra)
    return 0


# ---------------------------------------------------------------------------
# plan / sweep
# ---------------------------------------------------------------------------

_PLAN_HEADER = ["eps1", "eps2", "r_prime", "g_prime", "r_eff_db", "nbar_eff"]


def _plan_row(graph: Graph, noise: NoiseParams) -> tuple:
    p = plan(graph, noise)
    row = (noise.eps1, noise.eps2, noise.r_prime, p.g_prime, squeezing_to_db(p.r_eff), p.nbar_eff)
    return p, row


def cmd_plan(args: argparse.Namespace, config: dict) -> int:
    graph = parse_graph_spec(config["graph"])
    noise = NoiseParams(config["eps1"], config["eps2"], config["r_prime"])
    p, row = _plan_row(graph, noise)
    residual = verify_plan(p, graph, noise)
    doc = {
        "plan": p,
        "verification": {"residual": residual, "threshold": VERIFY_TOL,
                         "passed": residual < VERIFY_TOL},
    }
    # the network is written as the three columns of NETWORK_DTYPE
    extra = {"network_format": "columns i, j, angle"}
    _emit(args, "plan", config, [*_PLAN_HEADER, "residual"], [(*row, residual)], doc, extra)
    return 0


def cmd_sweep(args: argparse.Namespace, config: dict) -> int:
    graph = parse_graph_spec(config["graph"])
    rows = []
    for e1 in _float_list(config, "eps1"):
        for e2 in _float_list(config, "eps2"):
            for rp in _float_list(config, "r_prime"):
                try:
                    _, row = _plan_row(graph, NoiseParams(e1, e2, rp))
                except ValueError as exc:
                    raise ValueError(
                        f"sweep point eps1={e1} eps2={e2} r_prime={rp}: {exc}"
                    ) from exc
                rows.append(row)
    _emit(args, "sweep", config, _PLAN_HEADER, rows)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    """One subcommand: its handler, its help, its keys and its default format."""

    run: Callable[[argparse.Namespace, dict], int]
    help: str
    settings: dict[str, Setting]
    format: str = "csv"


_SEED = Setting(int, 0, "RNG seed")
_GRAPH = Setting(str, "path:3", "graph spec or JSON file")

#: Each subcommand and its keys.  A key ``a_b`` is the flag ``--a-b`` and
#: the config-file key ``a_b``.
COMMANDS = {
    "verify": Command(cmd_verify, "run the ten acceptance criteria at small sizes", {
        "seed": _SEED,
        "inject_fault": Setting(bool, False, None),  # proves the planner replay row can fail
    }),
    "download": Command(cmd_download, "Monte Carlo protocol run", {
        "seed": _SEED,
        "graph": _GRAPH,
        "r_db": Setting(float, 10.0, "source squeezing in dB"),
        "nbar": Setting(float, 0.0, "thermal occupation"),
        "shots": Setting(int, 1000, "number of shots"),
        "records": Setting(str, None, "also write per-shot records to this JSONL file"),
    }),
    "thresholds": Command(cmd_thresholds, "squeezing-versus-erasure tables", {
        "seed": _SEED,
        "db_range": Setting(str, "2:16:1", "start:stop:step in dB"),
        "targets": Setting(str, "0.249,0.5", "comma list of deletion probabilities to invert"),
        "rails": Setting(int, 1, "redundant rails per vertex"),
        "shots": Setting(int, 0, "Monte Carlo shots per row, 0 disables"),
    }),
    "plan": Command(cmd_plan, "decorrelation recipe for one noise point", {
        "graph": _GRAPH,
        "eps1": Setting(float, 0.01, "photon loss"),
        "eps2": Setting(float, 0.01, "detector inefficiency"),
        "r_prime": Setting(float, 1.0, "hardware squeezing budget (nepers)"),
    }, format="json"),
    "sweep": Command(cmd_sweep, "cartesian planner sweep over noise points", {
        "graph": _GRAPH,
        "eps1": Setting(str, "0,0.01,0.02", "comma list of loss values"),
        "eps2": Setting(str, "0,0.01", "comma list of inefficiency values"),
        "r_prime": Setting(str, "0.5,1.0", "comma list of squeezing budgets"),
    }),
}


class _Parser(argparse.ArgumentParser):
    """Raises each parse error, led by ``prog``, for :func:`main` to report in
    one line with no usage block; the subparsers are of this class too."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvdownload",
        allow_abbrev=False,
        description="Simulate and analyze downloading qubit cluster states "
        "from continuous-variable cluster states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format",
            choices=("json", "csv"),
            default=command.format,
            help=f"output format (default {command.format})",
        )
        for key, (kind, default, text) in command.settings.items():
            if text and default is not None:
                text += f" (default {default})"
            action = {"action": "store_const", "const": True} if kind is bool else {"type": kind}
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=text or argparse.SUPPRESS, **action)
    return parser


#: The flags that take a value; every other flag is a bool.  argparse reads
#: ``--r-prime -1e-3`` or ``--db-range -6:0:2`` as two flags, so :func:`main`
#: joins each of these to the next token, ``--key=value``, which takes any value.
#: The parsers take no abbreviations, so these are every spelling of a flag.
_VALUE_FLAGS = {"--config", "--out", "--format"} | {
    "--" + key.replace("_", "-") for command in COMMANDS.values()
    for key, setting in command.settings.items() if setting.type is not bool}


def main(argv: list[str] | None = None) -> int:
    joined, tokens = [], iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_FLAGS else None
        joined.append(token if value is None else f"{token}={value}")
    prefix = ""  # a parse error names its parser's prog itself
    try:
        args = build_parser().parse_args(joined)
        prefix = f"cvdownload {args.command}: "
        command = COMMANDS[args.command]
        return command.run(args, _resolve(args, command.settings))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"{prefix}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
