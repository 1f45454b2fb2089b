"""Command-line surface: artifacts, config handling, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

from tauberlab.cli import main


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def profile_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("profile")
    assert main(["construct", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def oscillation_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("osc")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["oscillate", "--out", str(out), "--x-range", "10:20:25"])
    assert rc == 0
    (out / "stdout.txt").write_text(buf.getvalue())
    return out


@pytest.fixture(scope="module")
def continuation_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cont")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({
        "s_grid": [[2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-2.0, 3.0]],
        "out_dir": str(out),
    }))
    assert main(["continue", "--config", str(cfg)]) == 0
    return out


class TestConstruct:
    def test_header_and_row_count(self, profile_dir):
        header, rows = read_csv(profile_dir / "w_profile.csv")
        assert header == ["x", "omega", "W", "Wp", "V", "phase"]
        assert len(rows) == 200

    def test_default_grid_is_log_spaced(self, profile_dir):
        _, rows = read_csv(profile_dir / "w_profile.csv")
        xs = [float(r[0]) for r in rows]
        assert math.isclose(xs[0], 1.0) and math.isclose(xs[-1], 1e4)
        ratios = [b / a for a, b in zip(xs, xs[1:])]
        assert max(ratios) - min(ratios) < 1e-6

    def test_V_column_identity(self, profile_dir):
        _, rows = read_csv(profile_dir / "w_profile.csv")
        for r in rows:
            x, w, wp, v = (float(r[i]) for i in (0, 2, 3, 4))
            # all four columns come from one evaluator, so they agree to rounding
            assert abs(v - (w + x * wp)) <= 1e-15 * abs(v)

    def test_phase_column_identity(self, profile_dir):
        _, rows = read_csv(profile_dir / "w_profile.csv")
        for r in rows:
            x, w, phase = float(r[0]), float(r[2]), float(r[5])
            assert math.isclose(phase, x * w, rel_tol=1e-12)

    def test_floats_round_trip(self, profile_dir):
        _, rows = read_csv(profile_dir / "w_profile.csv")
        for r in rows[:20]:
            for cell in r:
                assert repr(float(cell)) == cell

    def test_rerun_byte_identical(self, profile_dir, tmp_path):
        assert main(["construct", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "w_profile.csv").read_bytes() == \
            (profile_dir / "w_profile.csv").read_bytes()

    def test_power_rate_flag(self, tmp_path):
        rc = main(["construct", "--out", str(tmp_path),
                   "--rate", "pow", "--alpha", "0.5", "--x-range", "1:50:10"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "w_profile.csv")
        assert len(rows) == 10


class TestOscillate:
    def test_headers(self, oscillation_dir):
        header, rows = read_csv(oscillation_dir / "oscillation.csv")
        assert header == ["x", "T_scaled", "T_main", "S_scaled", "tau", "D"]
        assert len(rows) == 25
        w_header, _ = read_csv(oscillation_dir / "witnesses.csv")
        assert w_header == ["k", "x_k", "deviation", "sign"]

    def test_column_identities(self, oscillation_dir):
        # S and D columns are exact functions of the T column and the rate
        _, rows = read_csv(oscillation_dir / "oscillation.csv")
        for r in rows:
            x, t_scaled, s_scaled, d = (float(r[i]) for i in (0, 1, 3, 5))
            rho = 1.0 / math.log(math.e + x)
            assert math.isclose(s_scaled, 1.0 - math.exp(-x) + t_scaled,
                                rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(d, (t_scaled - math.exp(-x)) / rho,
                                rel_tol=1e-12)

    def test_main_term_tracks_scaled(self, oscillation_dir):
        _, rows = read_csv(oscillation_dir / "oscillation.csv")
        for r in rows:
            x, t_scaled, t_main = (float(r[i]) for i in (0, 1, 2))
            v = 1.0  # V > 1 on [10, 20]; a crude floor keeps this standalone
            assert abs(t_scaled - t_main) <= 2.0 / v

    def test_reported_remainder_max(self, oscillation_dir, log_sg):
        # the printed summary must equal the max of |T_scaled - T_main| V^2
        # recomputed from the table itself
        line = next(l for l in (oscillation_dir / "stdout.txt").read_text().splitlines()
                    if l.startswith("max scaled remainder: "))
        reported = float(line.split(": ")[1])
        _, rows = read_csv(oscillation_dir / "oscillation.csv")
        gaps = [abs(float(r[1]) - float(r[2])) * float(log_sg.V(float(r[0]))) ** 2
                for r in rows]
        assert math.isclose(reported, max(gaps), rel_tol=1e-9)
        assert 0.0 < reported < 5.0

    def test_witness_signs_alternate(self, oscillation_dir):
        _, rows = read_csv(oscillation_dir / "witnesses.csv")
        assert len(rows) >= 4
        ks = [int(r[0]) for r in rows]
        signs = [int(r[3]) for r in rows]
        xs = [float(r[1]) for r in rows]
        devs = [float(r[2]) for r in rows]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)
        assert all(b > a for a, b in zip(xs, xs[1:]))
        assert all(10.0 <= x <= 20.0 for x in xs)
        assert all(s in (-1, 1) for s in signs)
        assert all(b == -a for a, b in zip(signs, signs[1:]))
        assert all(math.copysign(1, d) == s for d, s in zip(devs, signs))


class TestContinue:
    def test_table_shape(self, continuation_dir):
        header, rows = read_csv(continuation_dir / "continuation.csv")
        assert header == ["re_s", "im_s", "re_F", "im_F",
                          "re_Lcos", "im_Lcos", "re_LdS", "im_LdS"]
        assert len(rows) == 4

    def test_pole_guard_blanks_stieltjes_columns(self, continuation_dir):
        _, rows = read_csv(continuation_dir / "continuation.csv")
        at_pole = [r for r in rows if float(r[0]) == 1.0 and float(r[1]) == 0.0]
        assert len(at_pole) == 1
        assert at_pole[0][6] == "" and at_pole[0][7] == ""
        for r in rows:
            if r is not at_pole[0]:
                assert r[6] != "" and math.isfinite(float(r[6]))

    def test_real_axis_symmetry(self, continuation_dir):
        # on the real axis the symmetrized transform is exactly real and
        # shares its real part with the raw contour value
        _, rows = read_csv(continuation_dir / "continuation.csv")
        real_rows = [r for r in rows if float(r[1]) == 0.0]
        assert len(real_rows) == 3
        for r in real_rows:
            assert float(r[5]) == 0.0
            assert r[4] == r[2]

    def test_continuation_beyond_halfplane_finite(self, continuation_dir):
        _, rows = read_csv(continuation_dir / "continuation.csv")
        left = [r for r in rows if float(r[0]) < 0.0]
        assert left
        for r in left:
            assert all(math.isfinite(float(r[i])) for i in range(6))

    def test_checks_json(self, continuation_dir):
        doc = json.loads((continuation_dir / "checks.json").read_text())
        names = [r["name"] for r in doc["records"]]
        assert names == ["continuation_overlap", "path_independence",
                         "transform_holomorphy", "pole_residue"]
        assert all(r["status"] == "pass" for r in doc["records"])
        assert all(r["anchor"] for r in doc["records"])
        assert "total_seconds" not in doc
        assert all("seconds" not in r for r in doc["records"])
        by_name = {r["name"]: r for r in doc["records"]}
        assert by_name["continuation_overlap"]["measured"]["max_error"] <= 1e-6
        assert by_name["pole_residue"]["measured"]["abs_error"] <= 1e-4


    def test_default_grid_exits_zero(self, tmp_path):
        from tauberlab.cli import _DEFAULT_S_GRID

        assert main(["continue", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "continuation.csv")
        assert len(rows) == len(_DEFAULT_S_GRID)

    def test_unreachable_point_exits_one_with_reason(self, tmp_path, capsys):
        # F(-1+20j) peaks past the hump cap, or fails to decay, on every ray
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"s_grid": [[-1, 20]], "out_dir": str(tmp_path)}))
        assert main(["continue", "--config", str(cfg)]) == 1
        assert "QuadratureError" in capsys.readouterr().err


class TestVerify:
    def test_default_run_passes_every_group(self, tmp_path, capsys):
        rc = main(["verify", "--out", str(tmp_path)])
        assert rc == 0
        assert "status: pass (12 checks)" in capsys.readouterr().out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["status"] == "pass"
        assert len(doc["records"]) == 12
        groups = {r["group"] for r in doc["records"]}
        assert groups == {"lemma21", "lemma22", "continuation",
                          "residue", "witness_s", "witness_tau"}

    def test_only_flag_filters_battery(self, tmp_path, capsys):
        rc = main(["verify", "--only", "lemma21", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status: pass (4 checks)" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert [r["name"] for r in doc["records"]] == [
            "growth_slope_sign", "growth_scaling_lower_bound",
            "derivative_envelope", "growth_envelope_bracket",
        ]
        assert all("measured" in r for r in doc["records"])

    def test_report_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--only", "residue", "--out", str(a)]) == 0
        assert main(["verify", "--only", "residue", "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_artifacts_byte_identical_across_blas_threads(self, tmp_path):
        # the kernel sums run on BLAS matrix-vector products; one and two
        # BLAS threads must write the same bytes
        import tauberlab

        src = os.path.dirname(os.path.dirname(tauberlab.__file__))
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / threads
            for args in (["verify", "--only", "continuation,residue"], ["continue"]):
                proc = subprocess.run([sys.executable, "-m", "tauberlab", *args, "--out", str(out)],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
        for name in ("report.json", "checks.json", "continuation.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_failing_check_exits_one(self, tmp_path, capsys):
        rc = main(["verify", "--only", "witness_s",
                   "--x-range", "10:10.8:5", "--out", str(tmp_path)])
        assert rc == 1
        assert "cumulative_oscillation: fail" in capsys.readouterr().out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["status"] == "fail"
        assert doc["records"][0]["error"]

    def test_config_file_checks_list(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"checks": ["residue"],
                                   "out_dir": str(tmp_path)}))
        assert main(["verify", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert [r["name"] for r in doc["records"]] == ["pole_residue"]


class TestConfigErrors:
    def run_expect_2(self, argv, capsys, needle):
        assert main(argv) == 2
        assert needle in capsys.readouterr().err

    def test_zero_tolerance(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"tolerances": {"abs": 0}}')
        self.run_expect_2(["verify", "--config", str(cfg)], capsys, "tolerances")

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{bad")
        self.run_expect_2(["verify", "--config", str(cfg)], capsys, "line 1")

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"grid": {}}')
        self.run_expect_2(["verify", "--config", str(cfg)], capsys, "'grid'")

    def test_unknown_rate(self, capsys):
        self.run_expect_2(["construct", "--rate", "bogus"], capsys, "rate")

    def test_unknown_check(self, capsys):
        self.run_expect_2(["verify", "--only", "nope"], capsys, "unknown check")

    def test_empty_check_list(self, capsys):
        self.run_expect_2(["verify", "--only", ","], capsys, "at least one check")

    def test_duplicate_checks(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"checks": ["residue", "residue"]}')
        self.run_expect_2(["verify", "--config", str(cfg)], capsys, "duplicate")

    def test_reversed_x_range(self, capsys):
        self.run_expect_2(["verify", "--x-range", "5:4:10"], capsys, "x_min")

    def test_unparseable_x_range(self, capsys):
        self.run_expect_2(["verify", "--x-range", "a:b:c"], capsys, "--x-range")
        self.run_expect_2(["verify", "--x-range", "1:2"], capsys, "A:B:N")

    def test_bad_s_grid_entry(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"s_grid": [[1.0]]}')
        self.run_expect_2(["continue", "--config", str(cfg)], capsys, "s_grid[0]")

    def test_zero_x_min_rejected_not_defaulted(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"grids": {"x_min": 0}}')
        self.run_expect_2(["construct", "--config", str(cfg)], capsys, "x_min")

    def test_bad_scale(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"grids": {"scale": "cubic"}}')
        self.run_expect_2(["construct", "--config", str(cfg)], capsys, "scale")

    def test_single_point_grid(self, tmp_path, capsys):
        self.run_expect_2(["construct", "--x-range", "1:10:1", "--out",
                           str(tmp_path)], capsys, "points")

    def test_table_rate_needs_path(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"rate": {"kind": "table"}}')
        self.run_expect_2(["construct", "--config", str(cfg)], capsys, "table")

    def test_table_rate_with_nan_row(self, tmp_path, capsys):
        table = tmp_path / "rate.csv"
        table.write_text("x,rho\n0.01,1.0\n1,nan\n1000000,0.001\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"rate": {"kind": "table", "table": str(table)}}))
        self.run_expect_2(["construct", "--config", str(cfg)], capsys,
                          "rate: non-finite table row 1")

    def test_missing_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


class TestConfigPlumbing:
    def test_table_rate_round_trip(self, tmp_path):
        table = tmp_path / "rate.csv"
        table.write_text("x,rho\n0.01,1.0\n1,0.5\n100,0.1\n1000000,0.001\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "rate": {"kind": "table", "table": str(table)},
            "out_dir": str(tmp_path),
        }))
        assert main(["construct", "--config", str(cfg),
                     "--x-range", "1:50:8"]) == 0
        _, rows = read_csv(tmp_path / "w_profile.csv")
        assert len(rows) == 8

    def test_out_flag_beats_config(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"out_dir": str(a)}))
        rc = main(["construct", "--config", str(cfg), "--out", str(b),
                   "--x-range", "1:10:5"])
        assert rc == 0
        assert (b / "w_profile.csv").exists()
        assert not (a / "w_profile.csv").exists()

    def test_cli_import_loads_no_scipy(self):
        # scipy is a test-only oracle; a cold command must not pay its import
        import tauberlab

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(tauberlab.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, tauberlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_entry_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tauberlab", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for name in ("construct", "oscillate", "continue", "verify"):
            assert name in proc.stdout
