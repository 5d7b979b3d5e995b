"""Command-line front end: determinism, schemas, config precedence."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvdownload import cli, criteria
from cvdownload.cli import COMMANDS, main
from cvdownload.error_model import amplitude_imbalance, db_to_squeezing, squeezing_to_db
from cvdownload.gaussian import R0_LIMIT, SqueezedThermalParams
from cvdownload.graphs import neighbor_phase, parse_graph_spec
from cvdownload.planner import VERIFY_TOL
from cvdownload.protocol import ProtocolParams, register_from_outcomes, run_download
from cvdownload.qubits import DEFAULT_MAX_QUBITS


def _strict_json(text):
    """Parse RFC 8259 JSON: NaN, Infinity and -Infinity are refused."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def _read_rows(path):
    """Parse a CSV output file into (meta_lines, header, rows)."""
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


#: ``verify``'s rows, in ``CRITERIA`` order, each led by its criterion's key.
_VERIFY_ROWS = [
    "c01 dB gap to the 11.9 and 5.4 dB figures", "c02 all-kept fidelity deficit",
    "c03 equivalent-circuit trace distance", "c04 erasure law z-score",
    "c05 dephasing law z-score", "c06 planner forward verification",
    "c06 first-order plan order shortfall", "c07 collective-mode covariance deviation",
    "c08 grid oracle, one mode", "c08 grid oracle, two modes",
    "c09 post-processing equivalence deviation", "c10 stabilizer residual",
]


class TestVerify:
    def test_default_passes(self, capsys):
        assert main(["verify", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out
        assert "# seed: 42" in out

    def test_injected_fault_fails(self, capsys):
        assert main(["verify", "--seed", "42", "--inject-fault"]) == 1
        out = capsys.readouterr().out
        assert "RESULT: FAIL" in out
        assert "FAIL" in [tok for line in out.splitlines() for tok in line.split()]

    def test_json_report(self, capsys):
        assert main(["verify", "--seed", "42", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "PASS" and doc["exit_code"] == 0
        assert doc["meta"]["command"] == "verify" and doc["meta"]["seed"] == 42
        assert [check["name"] for check in doc["checks"]] == _VERIFY_ROWS
        for check in doc["checks"]:
            assert set(check) == {"name", "residual", "threshold", "passed"}
            assert check["passed"] is True
            assert check["residual"] < check["threshold"]

    def test_rows_are_the_criteria_rows(self, capsys):
        # every criterion of the table, at its verify sizes, from one generator
        assert main(["verify", "--seed", "42", "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert list(criteria.CRITERIA) == [f"c{k:02d}" for k in range(1, 11)]
        rng = np.random.default_rng(42)
        rows = [{**dataclasses.asdict(row), "name": f"{key} {row.name}"}
                for key, (check, sizes) in criteria.CRITERIA.items() for row in check(rng, **sizes)]
        assert checks == rows

    def test_json_report_of_injected_fault(self, capsys):
        assert main(["verify", "--seed", "42", "--format", "json", "--inject-fault"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "FAIL" and doc["exit_code"] == 1
        assert [c["name"] for c in doc["checks"]] == [
            name + " (fault injected)" if name == "c06 planner forward verification" else name
            for name in _VERIFY_ROWS]
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["c06 planner forward verification (fault injected)"]
        assert failed[0]["residual"] >= failed[0]["threshold"]

    def test_text_report_is_the_default(self, capsys):
        main(["verify", "--seed", "42"])
        default = capsys.readouterr().out
        assert default.endswith(f"\nRESULT: PASS ({len(_VERIFY_ROWS)}/{len(_VERIFY_ROWS)} checks)\n")
        main(["verify", "--seed", "42", "--format", "csv"])
        assert capsys.readouterr().out == default

    def test_report_echoes_config(self, capsys):
        main(["verify", "--seed", "7"])
        out = capsys.readouterr().out
        assert "# config:" in out
        assert '"seed": 7' in out


class TestDownload:
    def test_bit_identical_reruns(self, tmp_path):
        args = [
            "download", "--graph", "path:3", "--r-db", "8.686",
            "--nbar", "0", "--shots", "200", "--seed", "42",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_schema(self, tmp_path):
        out = tmp_path / "dl.csv"
        main(["download", "--shots", "50", "--seed", "1", "--out", str(out)])
        meta, header, rows = _read_rows(out)
        assert header == ["r_db", "nbar", "shots", "p_del_emp", "p_del_analytic", "kept_fidelity_mean"]
        assert len(rows) == 1
        assert rows[0][2] == "50"
        assert any(line.startswith("# command: download") for line in meta)

    def test_records_jsonl(self, tmp_path):
        rec_path = tmp_path / "shots.jsonl"
        main([
            "download", "--graph", "path:2", "--shots", "5", "--seed", "3",
            "--records", str(rec_path), "--out", str(tmp_path / "s.csv"),
        ])
        lines = rec_path.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            doc = _strict_json(line)
            assert sorted(doc) == ["bits", "kept", "post_state", "q"]
            assert len(doc["q"]) == 2
            for column in ("kept", "bits"):
                assert len(doc[column]) == 2
                assert all(type(v) is int and v in (0, 1) for v in doc[column])
            assert doc["post_state"]["format"] == "factored-v2"

    def test_records_rebuild_the_dense_registers(self, tmp_path):
        # each factored-v2 line rebuilds its register byte for byte, and its q
        # gives the run's phi and gamma bit for bit
        rec_path = tmp_path / "shots.jsonl"
        assert main([
            "download", "--graph", "grid2d:3x3", "--nbar", "0.2", "--shots", "10",
            "--seed", "4", "--records", str(rec_path), "--out", str(tmp_path / "s.csv"),
        ]) == 0
        graph = parse_graph_spec("grid2d:3x3")
        params = ProtocolParams(graph, SqueezedThermalParams(db_to_squeezing(10.0), 0.2), seed=4)
        records, _ = run_download(params, 10, keep_states=True)
        r0 = params.mixture().r0
        lines = rec_path.read_text().splitlines()
        assert len(lines) == len(records)
        for k, line in enumerate(lines):
            doc = _strict_json(line)
            assert doc["post_state"] == {"format": "factored-v2", "coherence": params.coherence()}
            c = doc["post_state"]["coherence"]
            rho = register_from_outcomes(graph, c, doc["kept"], doc["bits"])
            assert rho.rho.tobytes() == records[k].post_state.rho.tobytes()
            q = np.array(doc["q"])
            assert q.tobytes() == records.q[k].tobytes()
            assert neighbor_phase(graph, q).tobytes() == records.phi[k].tobytes()
            assert amplitude_imbalance(q, r0).tobytes() == records.gamma[k].tobytes()
            assert doc["kept"] == records.kept[k].tolist()
            assert doc["bits"] == records.bits[k].tolist()

    def test_records_above_the_dense_cap(self, tmp_path):
        rec_path = tmp_path / "shots.jsonl"
        assert parse_graph_spec("grid2d:4x4").n > DEFAULT_MAX_QUBITS
        assert main([
            "download", "--graph", "grid2d:4x4", "--nbar", "0.2", "--shots", "20",
            "--records", str(rec_path), "--out", str(tmp_path / "s.csv"),
        ]) == 0
        lines = rec_path.read_text().splitlines()
        assert len(lines) == 20
        assert all(len(json.loads(line)["kept"]) == 16 for line in lines)

    def test_records_leave_the_summary_unchanged(self, tmp_path):
        args = ["download", "--graph", "path:3", "--nbar", "0.2", "--shots", "300"]
        main(args + ["--out", str(tmp_path / "plain.csv")])
        main(args + ["--records", str(tmp_path / "r.jsonl"), "--out", str(tmp_path / "rec.csv")])
        _, header, plain = _read_rows(tmp_path / "plain.csv")
        _, _, with_records = _read_rows(tmp_path / "rec.csv")
        assert plain == with_records
        assert plain[0][header.index("kept_fidelity_mean")] != "nan"

    def test_json_format(self, capsys):
        assert main(["download", "--shots", "20", "--format", "json"]) == 0
        out = capsys.readouterr().out
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        doc = json.loads(body)
        assert doc["summary"]["shots"] == 20

    def test_header_names_the_draw_rule(self, capsys, tmp_path):
        # both commands that draw in blocks of shots
        for command in ("download", "thresholds"):
            out = tmp_path / "o.csv"
            assert main([command, "--shots", "10", "--seed", "5", "--out", str(out)]) == 0
            meta, _, _ = _read_rows(out)
            assert meta[2:4] == ["# seed: 5", "# rng_scheme: block-1024"]
            assert main([command, "--shots", "10", "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["meta"]["rng_scheme"] == "block-1024"

    @pytest.mark.parametrize("command", ["thresholds", "plan", "sweep"])
    def test_other_headers_name_no_draw_rule(self, capsys, tmp_path, command):
        # they draw nothing (thresholds with Monte Carlo off), so they name no
        # seed either; plan names the layout of its network instead
        keys = ["command", *(["network_format"] if command == "plan" else []), "config"]
        argv = [command, *(["--shots", "0"] if command == "thresholds" else [])]
        out = tmp_path / "o.csv"
        assert main([*argv, "--format", "csv", "--out", str(out)]) == 0
        meta, _, _ = _read_rows(out)
        assert [line[2:].split(":")[0] for line in meta[1:]] == keys
        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["meta"]) == sorted([*keys, "tool", "version"])

    def test_json_writes_nan_as_null(self, capsys, tmp_path):
        # no shot keeps all 100 qubits, so the mean kept fidelity is NaN
        args = ["download", "--graph", "grid2d:10x10", "--shots", "200"]
        assert main(args + ["--format", "json"]) == 0
        doc = _strict_json(capsys.readouterr().out)
        assert doc["summary"]["all_kept_shots"] == 0
        assert doc["summary"]["mean_kept_fidelity"] is None
        assert main(args + ["--out", str(tmp_path / "s.csv")]) == 0
        _, header, rows = _read_rows(tmp_path / "s.csv")
        assert rows[0][header.index("kept_fidelity_mean")] == "nan"  # CSV keeps nan

    def test_oversized_run_refused(self, capsys):
        # q, kept and bits would hold 10 bytes a qubit-shot, 3 TB here
        assert main(["download", "--graph", "path:3", "--shots", "100000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cvdownload download: shots ")


class TestThresholds:
    def test_target_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["thresholds", "--db-range", "4:12:2", "--targets", "0.249,0.5", "--out", str(out)])
        _, header, rows = _read_rows(out)
        assert header[:3] == ["db", "r0", "p_del"]
        dbs = [float(r[0]) for r in rows]
        p_dels = [float(r[2]) for r in rows]
        # grid rows followed by one inversion row per target
        assert abs(dbs[-2] - 11.9) < 0.05
        assert abs(p_dels[-2] - 0.249) < 1e-9
        assert abs(dbs[-1] - 5.4) < 0.05
        assert abs(p_dels[-1] - 0.5) < 1e-9

    def test_targets_across_the_whole_domain(self, tmp_path):
        # above p_del(r0 = 0) = 0.79 and at 100 dB: inverted in closed form
        out = tmp_path / "t.csv"
        assert main(["thresholds", "--db-range", "6:6:1", "--targets", "0.85,1e-5",
                     "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert [float(r[2]) for r in rows[1:]] == pytest.approx([0.85, 1e-5], rel=1e-12)

    @pytest.mark.parametrize("flags, key", [
        (["--targets", "0.5,1e-160"], "targets"),  # r0 = 368, beyond R0_LIMIT
        (["--targets", "0.5,1"], "targets"),
        (["--targets", "0.5,nan"], "targets"),
        (["--targets", "-0.1"], "targets"),
        (["--db-range", "2:3100:1"], "db_range"),  # r0 = 357 at the last row
        (["--db-range=-3100:0:1"], "db_range"),
    ])
    def test_out_of_range_refused_before_any_draw(self, monkeypatch, capsys, flags, key):
        def no_draw(*args, **kwargs):
            raise AssertionError("thresholds drew before refusing")

        monkeypatch.setattr(cli, "run_download", no_draw)
        assert main(["thresholds", "--shots", "100", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"cvdownload thresholds: {key}")

    def test_p_del_monotone_in_db(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["thresholds", "--db-range", "2:14:1", "--targets", "", "--out", str(out)])
        _, _, rows = _read_rows(out)
        p_dels = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(p_dels, p_dels[1:]))

    def test_monte_carlo_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        main([
            "thresholds", "--db-range", "6:8:1", "--targets", "",
            "--shots", "2000", "--seed", "5", "--out", str(out),
        ])
        _, header, rows = _read_rows(out)
        mc = header.index("p_del_mc")
        err = header.index("stderr")
        for row in rows:
            assert abs(float(row[mc]) - float(row[2])) < 4.0 * float(row[err])

    @pytest.mark.parametrize("flags, shots, seed", [
        (["--db-range", "7:7:1", "--targets", ""], 2500, 3),  # crosses two block edges
        (["--db-range", "-3:-3:1", "--targets", ""], 1000, 0),  # negative squeezing
        (["--db-range", "6:6:1", "--targets", "0.249"], 1500, 11),  # a target row
    ])
    def test_monte_carlo_column_is_a_one_qubit_download(self, tmp_path, flags, shots, seed):
        draws = ["--shots", str(shots), "--seed", str(seed)]
        table, summary = tmp_path / "t.csv", tmp_path / "d.csv"
        assert main(["thresholds", *flags, *draws, "--out", str(table)]) == 0
        _, header, rows = _read_rows(table)
        row = rows[-1]
        assert main(["download", "--graph", "path:1", "--r-db", row[0], "--nbar", "0",
                     *draws, "--out", str(summary)]) == 0
        _, dl_header, dl_rows = _read_rows(summary)
        p_mc = row[header.index("p_del_mc")]
        assert p_mc == dl_rows[0][dl_header.index("p_del_emp")]
        p = float(p_mc)
        assert float(row[header.index("stderr")]) == math.sqrt(p * (1.0 - p) / shots)

    def test_empty_mc_columns_without_shots(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["thresholds", "--db-range", "6:7:1", "--targets", "", "--out", str(out)])
        _, header, rows = _read_rows(out)
        assert rows[0][header.index("p_del_mc")] == ""

    def test_rails_column(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["thresholds", "--db-range", "6:6:1", "--targets", "", "--rails", "3", "--out", str(out)])
        _, header, rows = _read_rows(out)
        p = float(rows[0][header.index("p_del")])
        pv = float(rows[0][header.index("p_vertex")])
        assert abs(pv - p**3) < 1e-12

    def test_rails_beyond_the_float_range(self, tmp_path, capsys):
        # a 400-digit rail count raised OverflowError out of the first row
        out = tmp_path / "t.csv"
        rails = "9" * 400
        assert main(["thresholds", "--db-range", "6:6:1", "--targets", "", "--rails", rails,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, header, rows = _read_rows(out)
        assert rows[0][header.index("n_rails")] == rails
        assert float(rows[0][header.index("p_vertex")]) == 0.0

    def test_bad_rails_refused_before_the_first_row(self, capsys):
        # the first row's Monte Carlo alone would hold 100 MB of shot columns
        tracemalloc.start()
        try:
            code = main(["thresholds", "--rails", "0", "--shots", "10000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 64 * 1024
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cvdownload thresholds: rails ")

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--db-range", "5"], "db_range"),  # not start:stop:step
            (["--db-range", "2:16"], "db_range"),
            (["--db-range", "2:x:1"], "db_range"),
            (["--db-range", "nan:16:1"], "db_range"),
            (["--db-range", "2:inf:1"], "db_range"),
            (["--db-range", "2:16:0"], "db_range"),
            (["--db-range", "2:16:-1"], "db_range"),
            (["--shots", "-5"], "shots"),
            (["--db-range", "0:1e12:1e-3"], "db_range"),  # 1e15 rows, refused before allocating
            (["--db-range", "0:16:1e-300"], "db_range"),  # beyond what np.arange can size
            (["--db-range", "16:2:1"], "db_range"),  # stop below start: no rows
            (["--shots", "1000000000000"], "shots"),  # 10 TB of columns, refused before any
            (["--db-range=-7000:-7000:1"], "db_range"),  # exp(-r0) overflows in p_del
            (["--db-range", "7000:7000:1", "--shots", "10"], "db_range"),  # and exp(r0) in sampling
            (["--rails", "-1"], "rails"),
        ],
    )
    def test_bad_range_or_shots_refused(self, capsys, flags, key):
        assert main(["thresholds", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cvdownload thresholds: {key} ")


class TestPlan:
    def test_noiseless_identity_network(self, capsys):
        assert main(["plan", "--graph", "path:3", "--eps1", "0", "--eps2", "0"]) == 0
        out = capsys.readouterr().out
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        doc = json.loads(body)
        assert doc["plan"]["g_prime"] == 1.0
        assert doc["plan"]["network"] == {"i": [], "j": [], "angle": []}
        assert doc["plan"]["sign_layer"] == [1.0, 1.0, 1.0]
        assert "orthogonal" not in doc["plan"]

    def test_verification_block(self, capsys):
        main(["plan", "--graph", "complete:3", "--eps1", "0.01", "--eps2", "0.02"])
        doc = json.loads(
            "\n".join(l for l in capsys.readouterr().out.splitlines() if not l.startswith("#"))
        )
        ver = doc["verification"]
        assert ver["passed"] is True
        assert ver["residual"] < ver["threshold"]

    def test_complete_bipartite_plan_verifies(self, tmp_path):
        # K_{320,320}: with one BLAS thread the smallest A^2 eigenvalue is
        # about -1.2e-10 against a largest of 1.02e5, round-off that the clamp
        # must take at the spectrum's own scale; a fresh interpreter pins the
        # thread count, and the CSV row carries the check's residual
        m = 320
        graph, out = tmp_path / "k.json", tmp_path / "plan.csv"
        graph.write_text(json.dumps({"n": 2 * m, "edges": [[i, m + j] for i in range(m) for j in range(m)]}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "cvdownload", "plan", "--graph", str(graph), "--format", "csv",
             "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        _, header, rows = _read_rows(out)
        assert float(dict(zip(header, rows[0]))["residual"]) < VERIFY_TOL

    def test_unconverged_eigh_exits_2(self, monkeypatch, capsys):
        # LinAlgError is a ValueError, so it reaches the user as one line
        def unconverged(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", unconverged)
        assert main(["plan", "--graph", "complete:5"]) == 2
        assert capsys.readouterr().err == "cvdownload plan: Eigenvalues did not converge\n"

    def test_noiseless_plan_at_large_squeezing_verifies(self, capsys):
        # sqrt(B1) sqrt(B2) - 1/2 rounds below 0 here; nbar_eff is clamped
        assert main(["plan", "--eps1", "0", "--eps2", "0", "--r-prime", "300"]) == 0
        doc = json.loads(
            "\n".join(l for l in capsys.readouterr().out.splitlines() if not l.startswith("#"))
        )
        assert doc["plan"]["nbar_eff"] == 0.0
        assert doc["verification"]["residual"] is not None

    def test_exact_plan_prints_where_e4rp_overflows(self, capsys):
        # e^{4 r'} overflows at r' = 200; the exact plan still prints
        assert main(["plan", "--r-prime", "200"]) == 0
        doc = json.loads(
            "\n".join(l for l in capsys.readouterr().out.splitlines() if not l.startswith("#"))
        )
        assert 0.0 < doc["plan"]["r_eff"] < 200.0
        assert doc["plan"]["physical"] is True

    def test_csv_row(self, tmp_path, capsys):
        # the JSON plan's own numbers, with r_eff in dB, and the residual of
        # the check that the CSV run makes too
        args = ["plan", "--eps1", "0.01", "--eps2", "0.01"]
        out = tmp_path / "p.csv"
        assert main([*args, "--format", "csv", "--out", str(out)]) == 0
        _, header, rows = _read_rows(out)
        assert header == ["eps1", "eps2", "r_prime", "g_prime", "r_eff_db", "nbar_eff", "residual"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        recipe = doc["plan"]
        row = dict(zip(header, map(float, rows[0])))
        assert row["g_prime"] == recipe["g_prime"] and row["nbar_eff"] == recipe["nbar_eff"]
        assert row["r_eff_db"] == squeezing_to_db(recipe["r_eff"])
        assert row["residual"] == doc["verification"]["residual"]


class TestSweep:
    def test_cartesian_row_count(self, tmp_path):
        out = tmp_path / "s.csv"
        main([
            "sweep", "--eps1", "0,0.01,0.02", "--eps2", "0,0.01",
            "--r-prime", "0.5,1.0", "--out", str(out),
        ])
        _, header, rows = _read_rows(out)
        assert len(rows) == 3 * 2 * 2
        assert header == ["eps1", "eps2", "r_prime", "g_prime", "r_eff_db", "nbar_eff"]
        # row order is the declared cartesian order, not completion order
        assert [r[0] for r in rows[:4]] == ["0", "0", "0", "0"]

    def test_feasibility_flags(self, tmp_path):
        # every plan is physical by construction, so no row carries a flag
        # that could only read 1
        out = tmp_path / "s.csv"
        main(["sweep", "--eps1", "0,0.01", "--eps2", "0", "--r-prime", "1.0", "--out", str(out)])
        _, header, rows = _read_rows(out)
        assert "feasible" not in header
        assert [len(r) for r in rows] == [len(header)] * 2

    def test_heavy_noise_plans_are_feasible(self, tmp_path):
        out = tmp_path / "s.csv"
        main([
            "sweep", "--graph", "grid2d:4x4", "--eps1", "0.9", "--eps2", "0.9",
            "--r-prime=-0.1,15", "--out", str(out),
        ])
        _, header, rows = _read_rows(out)
        assert len(rows) == 2
        assert all(math.isfinite(float(r[header.index("g_prime")])) for r in rows)


class TestConfigHandling:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shots": 77, "seed": 12}))
        out = tmp_path / "o.csv"
        main(["download", "--config", str(cfg), "--out", str(out)])
        _, header, rows = _read_rows(out)
        assert rows[0][header.index("shots")] == "77"

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shots": 77}))
        out = tmp_path / "o.csv"
        main(["download", "--config", str(cfg), "--shots", "33", "--out", str(out)])
        _, header, rows = _read_rows(out)
        assert rows[0][header.index("shots")] == "33"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_knob": 1}))
        assert main(["download", "--config", str(cfg)]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_seed_recorded_in_header(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["download", "--shots", "10", "--seed", "123", "--out", str(out)])
        meta, _, _ = _read_rows(out)
        assert any(line == "# seed: 123" for line in meta)

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"kind": "path"}, "n"),  # missing size
            ({"kind": "grid2d", "rows": 2}, "cols"),  # missing second size
            ({"n": 3, "edges": [[0]]}, "edges"),  # an edge that is not a pair
            ({"kind": 5, "n": 3}, "kind"),  # ill-typed kind
            ({"kind": "path", "n": 3, "m": 1}, "m"),  # unknown key
        ],
    )
    def test_malformed_graph_file_is_refused(self, tmp_path, capsys, doc, key):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", "--graph", str(path), "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cvdownload plan: ")
        assert repr(key) in captured.err
        assert "Traceback" not in captured.err

    def test_bad_graph_spec_is_reported(self, capsys):
        assert main(["download", "--graph", "moebius:9"]) == 2
        assert "moebius" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, keys",
        [
            ("grid2d:3x", "rows x cols"),
            ("grid2d:x", "rows x cols"),
            ("grid2d:3", "rows x cols"),
            ("path:1e3", "n"),
            ("path:3x3", "n"),
            ("star:", "n"),
            ("cycle:5.0", "n"),
        ],
    )
    def test_malformed_spec_size_names_spec_and_keys(self, capsys, spec, keys):
        with pytest.raises(ValueError) as refused:
            parse_graph_spec(spec)
        message = str(refused.value)
        assert repr(spec) in message and f"needs {keys}," in message
        assert main(["download", "--graph", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cvdownload download: {message}\n"

    def test_sweep_error_names_grid_point(self, capsys):
        # eps2 = 1 is outside the channel's domain
        assert main(["sweep", "--eps1", "0", "--eps2", "1.0", "--r-prime", "1.0"]) == 2
        err = capsys.readouterr().err
        assert "eps2=1.0" in err

    def test_sweep_error_names_out_of_range_r_prime(self, capsys):
        assert main(["sweep", "--eps1", "0.01", "--eps2", "0.01", "--r-prime", "1.0,400"]) == 2
        err = capsys.readouterr().err
        assert "r_prime=400.0" in err
        assert "float range" in err

    @pytest.mark.parametrize(
        "command, loaded, key",
        [
            ("download", {"shots": [1]}, "shots"),  # not a scalar
            ("download", {"graph": {"kind": "path", "n": 3}}, "graph"),  # not a scalar
            ("download", {"r_db": None}, "r_db"),  # null where the default is not
            ("download", {"shots": True}, "shots"),  # int(True) would pass silently
            ("verify", {"inject_fault": 1}, "inject_fault"),  # bool key, non-bool value
            ("download", {"shots": 2.7}, "shots"),  # int() would truncate to 2
            ("download", {"seed": 1.9}, "seed"),  # int() would truncate to 1
            ("thresholds", {"rails": 2.5}, "rails"),  # int() would truncate to 2
            ("download", {"shots": "5"}, "shots"),  # an int key takes only integers
            ("download", {"r_db": 10**400}, "r_db"),  # beyond the float range
            ("plan", {"graph": True}, "graph"),  # a bool is not text
        ],
    )
    def test_config_value_type_rejected(self, tmp_path, capsys, command, loaded, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(loaded))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cvdownload {command}: ")
        assert repr(key) in err

    @pytest.mark.parametrize(
        "command, flags, loaded, key, token",
        [
            ("thresholds", ["--targets", "0.2,x"], None, "targets", "x"),
            ("sweep", ["--eps1", "0,y"], None, "eps1", "y"),
            ("sweep", [], {"r_prime": "1,z"}, "r_prime", "z"),
        ],
    )
    def test_bad_comma_list_token_names_its_key(
        self, tmp_path, capsys, command, flags, loaded, key, token
    ):
        if loaded is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(loaded))
            flags = ["--config", str(cfg)]
        assert main([command, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cvdownload {command}: {key} ")
        assert repr(token) in captured.err

    @pytest.mark.parametrize("loaded", [5, [], "shots"])
    def test_config_file_must_be_an_object(self, tmp_path, capsys, loaded):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(loaded))
        assert main(["download", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "JSON object" in captured.err

    def test_flags_and_config_give_identical_output(self, tmp_path, capsys):
        assert main(["download", "--r-db", "10", "--shots", "3"]) == 0
        from_flags = capsys.readouterr().out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r_db": 10, "shots": 3}))
        assert main(["download", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == from_flags
        assert '"r_db": 10.0' in from_flags

    @pytest.mark.parametrize("command, key, value, code", [
        ("plan", "--r-prime", "-1e-3", 0),
        ("download", "--r-db", "-1e6", 2),
        ("thresholds", "--db-range", "-6:0:2", 0),
    ])
    def test_negative_value_in_either_form(self, capsys, command, key, value, code):
        # argparse alone reads "-1e-3" after a flag as another flag, not as its value
        results = []
        for form in ([key, value], [f"{key}={value}"]):
            results.append((main([command, *form]), *capsys.readouterr()))
        assert results[0] == results[1]
        exit_code, out, err = results[0]
        assert exit_code == code
        if code == 0:
            assert err == ""
        else:
            assert out == "" and err.count("\n") == 1 and str(R0_LIMIT) in err

    @pytest.mark.parametrize("flags, code", [
        (["--r-pr", "-1e-3"], 2),
        (["--r-pr", "0.5"], 2),  # a prefix is refused whatever its value
        (["--r-prime", "-1e-3"], 0),
    ])
    def test_flags_take_no_abbreviation(self, capsys, flags, code):
        assert main(["plan", *flags]) == code
        err = capsys.readouterr().err
        assert ("unrecognized arguments: --r-pr" in err) == (code == 2)

    def test_config_numbers_and_null_where_allowed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps1": 0.01, "eps2": 0, "r_prime": 1.0}))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = _read_rows(out)
        assert len(rows) == 1
        cfg.write_text(json.dumps({"records": None, "shots": 5}))
        assert main(["download", "--config", str(cfg), "--out", str(out)]) == 0


class TestSeed:
    @pytest.mark.parametrize("command", ["verify", "download", "thresholds"])
    def test_negative_seed_refused(self, capsys, command):
        assert main([command, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cvdownload {command}: seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["plan", "sweep"])
    def test_commands_that_draw_nothing_take_no_seed(self, tmp_path, capsys, command):
        assert main([command, "--seed", "1"]) == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"cvdownload {command}: unknown config keys: ['seed']\n"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_writes_both_formats(capsys, command):
    draws = "seed" in COMMANDS[command].settings
    # thresholds draws, and so names its seed, only with Monte Carlo on
    args = [command, *(["--seed", "3"] if draws else []),
            *(["--shots", "10"] if command == "thresholds" else [])]
    assert main([*args, "--format", "json"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["meta"]["command"] == command
    assert doc["meta"].get("seed") == (3 if draws else None)
    assert main([*args, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# cvdownload ") and f"# command: {command}\n" in out


@pytest.mark.parametrize("argv, line", [
    (["thresholds", "--seed", "1.5"],
     "cvdownload thresholds: argument --seed: invalid int value: '1.5'"),
    (["download", "--format", "xml"], "cvdownload download: argument --format: invalid choice: "
     "'xml' (choose from 'json', 'csv')"),
    (["plan", "--r-pr", "0.5"], "cvdownload: unrecognized arguments: --r-pr 0.5"),
    (["plan", "--r-prime"], "cvdownload plan: argument --r-prime: expected one argument"),
], ids=["int-type", "choice", "abbreviation", "missing-value"])
def test_parse_error_is_one_line(capsys, argv, line):
    # no usage block: one line, as every other refusal
    assert main(argv) == 2
    assert capsys.readouterr() == ("", line + "\n")


def test_version_prints_and_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{cli.__version__}\n"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_names_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key, setting in COMMANDS[command].settings.items():
        flag = "--" + key.replace("_", "-")
        # a setting without help is a hidden flag
        assert (flag in out) == (setting.help is not None), flag
    for flag in ("--config", "--out", "--format"):
        assert flag in out


#: SHA-256 of outputs whose digits come only from scalar arithmetic, the
#: seeded draws, closed-form path factors (``plan`` on a grid), CPHASE as
#: sparse-adjacency sums in a fixed order (no BLAS) and, for ``verify``,
#: ``einsum`` sums of the grid and LAPACK ``eigvalsh``, with BLAS products on
#: matrices of at most 28x28 (c07's seven copies of four modes), too small to
#: be split across threads, so no BLAS thread count changes them.  1500 shots cross the first block edge.
#: A change to any of them is a deliberate output change, to be recorded
#: with its new digest.
_PINNED_DIGESTS = [
    (["download", "--graph", "path:3", "--shots", "1500", "--nbar", "0.2"],
     "881dda5c2fed65530e62785fe37cc0fb42c95e1ac550147e7c4d095f0b1fa457"),
    (["download", "--graph", "path:3", "--shots", "1500", "--nbar", "0.2", "--format", "json"],
     "68d168da61c786799b301f847ed1dab19212f21dc60f711dbbf56936acd7bb57"),
    (["download", "--graph", "grid2d:3x3", "--shots", "1500", "--nbar", "0.2"],
     "9ec8616e1c0555b38f1442d66d95d406696e2c831f93a5704abf0d63d1f380dd"),
    (["download", "--graph", "grid2d:3x3", "--shots", "1500", "--nbar", "0.2", "--format", "json"],
     "95ace1548607b208a7433f3032174cda331ce718fda113cf0bbf545d3b572dd1"),
    (["thresholds", "--shots", "1000"],
     "05a360d02e5a28c5e6934ba06e1d8a765049f40c8947811551af31b20077ddc6"),
    (["thresholds", "--shots", "1000", "--format", "json"],
     "012a3a7d6d8a8a8a9f5adbc16ec58c3a0362725af4f57067af93a4e16d7f5213"),
    (["sweep"], "b78a66d20b924798e8fb4df45ea9a7631a9bb2dc26e558e9f047ed58da064311"),
    (["plan", "--graph", "grid2d:3x3"],
     "100957a34a9dc4e48110ffde59c46444951683639f46ddfaca420b5680a9100c"),
    (["plan", "--graph", "grid2d:3x3", "--format", "csv"],
     "707cdbafc78ace3e8a9f9d325704231cfdd40ad1f28ed150304ffa927a1f3d56"),
    (["verify", "--seed", "0"],
     "5e6ff01307b0b21a778922d1a4d8ac17862b75dd7ae2e1c6b7a635f2eb8c084c"),
    (["verify", "--seed", "0", "--format", "json"],
     "8e60099aa55eec686ec0465836e9de86e630e6fa56e267fe8c220fc668605481"),
    # no shot keeps all 100 qubits, so mean_kept_fidelity is NaN, written as null
    (["download", "--graph", "grid2d:10x10", "--format", "json"],
     "ff035e5d58666993650fba05a92f376e1cd8c49a145fcc0eae38e13c9f9307b5"),
    # the factored-v2 records file itself (the summary names its path)
    (["download", "--graph", "path:3", "--shots", "1500", "--nbar", "0.2", "--records"],
     "ee426eb10e9707486078c601865863263a684cb18ca69bf3a562e6286e3985c6"),
]


@pytest.mark.parametrize(
    "args, digest", _PINNED_DIGESTS, ids=[" ".join(args) for args, _ in _PINNED_DIGESTS]
)
def test_reproducible_output_digests(tmp_path, args, digest):
    out, records = tmp_path / "out", tmp_path / "records.jsonl"
    if args[-1] == "--records":
        args, out = [*args, str(records), "--out", str(out)], records
    else:
        args = [*args, "--out", str(out)]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
