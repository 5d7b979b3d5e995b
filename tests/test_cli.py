"""Command-line front end: determinism, schemas, config precedence."""

import json

import numpy as np
import pytest

from cvdownload.cli import main


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
        assert len(doc["checks"]) == 5
        for check in doc["checks"]:
            assert set(check) == {"name", "residual", "threshold", "passed"}
            assert check["passed"] is True
            assert check["residual"] < check["threshold"]

    def test_json_report_of_injected_fault(self, capsys):
        assert main(["verify", "--seed", "42", "--format", "json", "--inject-fault"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == "FAIL" and doc["exit_code"] == 1
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["planner forward verification (fault injected)"]
        assert failed[0]["residual"] >= failed[0]["threshold"]

    def test_text_report_is_the_default(self, capsys):
        main(["verify", "--seed", "42"])
        default = capsys.readouterr().out
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
        doc = json.loads(lines[0])
        assert len(doc["q"]) == 2
        assert doc["outcomes"][0][0] in ("keep", "delete")
        assert "post_state" in doc

    def test_json_format(self, capsys):
        assert main(["download", "--shots", "20", "--format", "json"]) == 0
        out = capsys.readouterr().out
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        doc = json.loads(body)
        assert doc["summary"]["shots"] == 20


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


class TestPlan:
    def test_noiseless_identity_network(self, capsys):
        assert main(["plan", "--graph", "path:3", "--eps1", "0", "--eps2", "0"]) == 0
        out = capsys.readouterr().out
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        doc = json.loads(body)
        assert doc["plan"]["g_prime"] == 1.0
        assert doc["plan"]["network"] == []
        assert np.allclose(doc["plan"]["orthogonal"], np.eye(3))

    def test_verification_block(self, capsys):
        main(["plan", "--graph", "complete:3", "--eps1", "0.01", "--eps2", "0.02"])
        doc = json.loads(
            "\n".join(l for l in capsys.readouterr().out.splitlines() if not l.startswith("#"))
        )
        ver = doc["verification"]
        assert ver["passed"] is True
        assert ver["residual"] < ver["threshold"]

    def test_linearized_variants_differ_when_dmax_below_d_squared(self, capsys):
        # path n=3: D_max=2 while d^2=4
        main(["plan", "--graph", "path:3", "--eps1", "0.01", "--eps2", "0.01"])
        doc = json.loads(
            "\n".join(l for l in capsys.readouterr().out.splitlines() if not l.startswith("#"))
        )
        spectral = doc["linearized"]["spectral"]["nbar_eff"]
        degree = doc["linearized"]["degree_bound"]["nbar_eff"]
        assert degree > spectral

    def test_csv_row(self, tmp_path):
        out = tmp_path / "p.csv"
        main(["plan", "--eps1", "0.01", "--eps2", "0.01", "--format", "csv", "--out", str(out)])
        _, header, rows = _read_rows(out)
        assert header == ["eps1", "eps2", "r_prime", "feasible", "g_prime", "r_eff_db", "nbar_eff"]
        assert rows[0][3] == "1"


class TestSweep:
    def test_cartesian_row_count(self, tmp_path):
        out = tmp_path / "s.csv"
        main([
            "sweep", "--eps1", "0,0.01,0.02", "--eps2", "0,0.01",
            "--r-prime", "0.5,1.0", "--out", str(out),
        ])
        _, header, rows = _read_rows(out)
        assert len(rows) == 3 * 2 * 2
        assert header[3] == "feasible"
        # row order is the declared cartesian order, not completion order
        assert [r[0] for r in rows[:4]] == ["0", "0", "0", "0"]

    def test_feasibility_flags(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep", "--eps1", "0,0.01", "--eps2", "0", "--r-prime", "1.0", "--out", str(out)])
        _, _, rows = _read_rows(out)
        assert all(r[3] == "1" for r in rows)


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

    def test_bad_graph_spec_is_reported(self, capsys):
        assert main(["download", "--graph", "moebius:9"]) == 2
        assert "moebius" in capsys.readouterr().err

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
