"""The benchmark's own tests: every output check fails on a corrupted
artifact, the result line carries every metric BENCHMARK.json names, and the
probe and tracer run end to end on a small command.

    python3 -m pytest perfbench/tests -q

The artifacts under data/ were written by the program (oscillate on the
seed-0 grid, and the two verify workloads); the checks compare them with the
benchmark's own computation, never with these files.
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
from reference import Reference

DATA = Path(__file__).resolve().parent / "data"
REPO = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pow_ref():
    return Reference("pow", 0.5)


@pytest.fixture(scope="module")
def log_ref():
    return Reference("log")


def _osc_grid():
    x_min, x_max, points = run._oscillate_grid(0)
    return np.linspace(x_min, x_max, points)


@pytest.fixture
def osc_dir(tmp_path):
    shutil.copytree(DATA / "oscillate_pow_table", tmp_path, dirs_exist_ok=True)
    return tmp_path


def _edit_csv(path: Path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _report(name):
    return json.loads((DATA / name / "report.json").read_text())


def _record(report, name):
    return next(r for r in report["records"] if r["name"] == name)


# -- reference ----------------------------------------------------------


def test_reference_half_knots_are_on_the_phase(log_ref):
    required, _ = log_ref.half_knot_ks(10.0, 60.0)
    assert len(required) >= 20
    k = min(required)
    # bisection on the reference phase lands within the knot tolerance
    lo, hi = 10.0, 60.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if log_ref.phase(mid)[0] < 0.5 * math.pi + k * math.pi else (lo, mid)
    assert abs(log_ref.phase(lo)[0] - (0.5 * math.pi + k * math.pi)) < checks.KNOT_TOL


def test_reference_W_tends_to_omega_scale(log_ref):
    # Lemma 2.1(a): W is bracketed by omega up to constants; W' >= 0
    y = np.geomspace(1.0, 1e6, 30)
    ratio = log_ref.W(y) / log_ref.omega(y)
    assert np.all(ratio > 0.5) and np.all(ratio < 2.0)
    assert np.all(log_ref.W_prime(y) > 0)


# -- oscillate_pow_table ------------------------------------------------


def test_oscillation_artifacts_pass(pow_ref, osc_dir):
    assert checks.check_oscillation(pow_ref, osc_dir, _osc_grid()) == []


def test_oscillation_T_scaled_moved_consistently_is_caught(pow_ref, osc_dir):
    # move T_scaled by 1e-6 and keep S_scaled and D consistent with it, so
    # only the comparison with the dense rule can see the change
    def edit(rows):
        row = rows[1 + 57]
        x, t = float(row[0]), float(row[1]) + 1e-6
        row[1] = repr(t)
        row[3] = repr(1.0 - math.exp(-x) + t)
        row[5] = repr((t - math.exp(-x)) / float(pow_ref.rho(x)))

    _edit_csv(osc_dir / "oscillation.csv", edit)
    problems = checks.check_oscillation(pow_ref, osc_dir, _osc_grid())
    assert problems and all("T_scaled" in p for p in problems)


@pytest.mark.parametrize("column, word", [(2, "T_main"), (4, "tau"), (3, "S_scaled"), (5, "D")])
def test_oscillation_column_moved_is_caught(pow_ref, osc_dir, column, word):
    def edit(rows):
        rows[1 + 120][column] = repr(float(rows[1 + 120][column]) + 1e-6)

    _edit_csv(osc_dir / "oscillation.csv", edit)
    problems = checks.check_oscillation(pow_ref, osc_dir, _osc_grid())
    assert any(word in p for p in problems)


def test_oscillation_wrong_grid_or_missing_file_is_caught(pow_ref, osc_dir):
    assert checks.check_oscillation(pow_ref, osc_dir, _osc_grid() + 1e-9)
    (osc_dir / "witnesses.csv").unlink()
    assert any("missing" in p for p in checks.check_oscillation(pow_ref, osc_dir, _osc_grid()))


def test_flipped_witness_sign_is_caught(pow_ref, osc_dir):
    def edit(rows):
        rows[5][2] = repr(-float(rows[5][2]))
        rows[5][3] = str(-int(rows[5][3]))

    _edit_csv(osc_dir / "witnesses.csv", edit)
    problems = checks.check_oscillation(pow_ref, osc_dir, _osc_grid())
    assert any("alternate" in p for p in problems)
    assert any("parity" in p for p in problems)


def test_whole_witness_list_with_wrong_parity_is_caught(pow_ref, osc_dir):
    # every sign and deviation flipped: alternation holds, the parity and
    # the deviation values do not
    def edit(rows):
        for row in rows[1:]:
            row[2] = repr(-float(row[2]))
            row[3] = str(-int(row[3]))

    _edit_csv(osc_dir / "witnesses.csv", edit)
    problems = checks.check_oscillation(pow_ref, osc_dir, _osc_grid())
    assert not any("alternate" in p for p in problems)
    assert any("parity" in p for p in problems)
    assert any("deviation off" in p for p in problems)


def test_witness_off_its_half_knot_is_caught(pow_ref, osc_dir):
    def edit(rows):
        rows[3][1] = repr(float(rows[3][1]) + 1e-8)

    _edit_csv(osc_dir / "witnesses.csv", edit)
    problems = checks.check_oscillation(pow_ref, osc_dir, _osc_grid())
    assert any("phase misses" in p for p in problems)


def test_dropped_witness_is_caught(pow_ref, osc_dir):
    _edit_csv(osc_dir / "witnesses.csv", lambda rows: rows.pop())
    problems = checks.check_oscillation(pow_ref, osc_dir, _osc_grid())
    assert any("cover k" in p for p in problems)


# -- verify_real_axis ---------------------------------------------------


def test_real_axis_report_passes(log_ref):
    report = _report("verify_real_axis")
    assert checks.failed_records(report, checks.REAL_AXIS_RECORDS) == []
    assert checks.check_real_axis_report(log_ref, report, (10.0, 60.0)) == []


@pytest.mark.parametrize("record", ["cumulative_oscillation", "tail_oscillation"])
def test_real_axis_flipped_witness_is_caught(log_ref, record):
    report = _report("verify_real_axis")
    w = _record(report, record)["witnesses"][4]
    w["deviation"], w["sign"] = -w["deviation"], -w["sign"]
    problems = checks.check_real_axis_report(log_ref, report, (10.0, 60.0))
    assert any("alternate" in p for p in problems)


@pytest.mark.parametrize("record", ["cumulative_oscillation", "tail_oscillation"])
def test_real_axis_deviation_moved_is_caught(log_ref, record):
    report = _report("verify_real_axis")
    w = _record(report, record)["witnesses"][7]
    w["deviation"] += 1e-6 * math.copysign(1.0, w["deviation"])
    problems = checks.check_real_axis_report(log_ref, report, (10.0, 60.0))
    assert any("deviation off" in p for p in problems)


@pytest.mark.parametrize("record, key, shift, words", [
    ("growth_slope_sign", "min_slope", 1e-6, "min_slope"),
    ("growth_scaling_lower_bound", "max_violation", 1e-6, "max_violation"),
    ("growth_envelope_bracket", "lower_ratio_min", 1e-6, "lower_ratio_min"),
    ("derivative_envelope", "max_ratio", 1.0, "envelope ratio"),
    ("quadrature_cross_check", "max_abs_diff", 1e-7, "cross-check"),
])
def test_real_axis_measured_value_moved_is_caught(log_ref, record, key, shift, words):
    report = _report("verify_real_axis")
    _record(report, record)["measured"][key] += shift
    problems = checks.check_real_axis_report(log_ref, report, (10.0, 60.0))
    assert any(words in p for p in problems)


def test_real_axis_remainder_moved_is_caught(log_ref):
    report = _report("verify_real_axis")
    _record(report, "main_term_remainder")["measured"]["remainder_scaled"][2] += 1e-5
    problems = checks.check_real_axis_report(log_ref, report, (10.0, 60.0))
    assert any("remainders" in p for p in problems)


def test_real_axis_failed_record_counts_as_failed(log_ref):
    report = _report("verify_real_axis")
    _record(report, "tail_oscillation")["status"] = "fail"
    report["records"] = [r for r in report["records"] if r["name"] != "derivative_envelope"]
    assert checks.failed_records(report, checks.REAL_AXIS_RECORDS) == [
        "derivative_envelope", "tail_oscillation"]


# -- verify_continuation ------------------------------------------------


def test_continuation_report_passes():
    report = _report("verify_continuation")
    assert checks.failed_records(report, checks.CONTINUATION_RECORDS) == []
    assert checks.check_continuation_report(report) == []


def test_residue_not_one_is_caught():
    report = _report("verify_continuation")
    m = _record(report, "pole_residue")["measured"]
    m["residue_re"] += 2e-4
    problems = checks.check_continuation_report(report)
    assert any("not 1" in p for p in problems)


@pytest.mark.parametrize("record, key, value", [
    ("transform_holomorphy", "max_relative", 1e-3),
    ("continuation_overlap", "max_error", 1e-5),
    ("path_independence", "max_diff", 1e-7),
])
def test_circle_or_path_defect_is_caught(record, key, value):
    report = _report("verify_continuation")
    _record(report, record)["measured"][key] = value
    problems = checks.check_continuation_report(report)
    assert any(record in p and "exceeds" in p for p in problems)


def test_loosened_record_tolerance_is_caught():
    report = _report("verify_continuation")
    _record(report, "transform_holomorphy")["measured"]["tolerance"] = 1e-2
    assert any("looser" in p for p in checks.check_continuation_report(report))


def test_failed_continuation_record_counts_as_failed():
    report = _report("verify_continuation")
    _record(report, "pole_residue")["status"] = "fail"
    assert checks.failed_records(report, checks.CONTINUATION_RECORDS) == ["pole_residue"]


# -- result line ----------------------------------------------------------


def _names(section):
    return {m["name"] for m in BENCHMARK[section]}


def test_end_to_end_line_parses_with_every_metric():
    rounds = [{"wall_s": 20.0 + i, "setup_s": 0.7, "cpu_s": 30.0, "peak_rss_mb": 380.0}
              for i in range(3)]
    line = run.result_line(True, 8, 0, run.end_to_end_metrics(rounds))
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert set(doc["metrics"]) == _names("end_to_end")
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(doc["metrics"][k]["unit"] == units[k] for k in units)
    assert doc["metrics"]["wall_s"]["value"] == 21.0


def test_per_layer_line_parses_with_every_metric():
    traced = {"per_layer": tracing.Tracer().metrics(), "wall_s": 1.0,
              "wrapped_calls": 10, "wrapper_cost_s": 1e-6}
    doc = json.loads(run.result_line(True, 201, 0, run.per_layer_metrics(traced)))
    assert set(doc["metrics"]) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(doc["metrics"][k]["unit"] == units[k] for k in units)


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


# -- processes ------------------------------------------------------------


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "data"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_real_axis",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_traced_probe_counts_a_small_command(tmp_path):
    timing = tmp_path / "timing.json"
    env = {"PYTHONPATH": f"{REPO / 'src'}:{REPO / 'perfbench'}", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "probe.py"), str(timing), "1", "--",
         "construct", "--x-range", "1:100:20", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(timing.read_text())
    layer = doc["per_layer"]
    assert doc["exit_code"] == 0 and doc["missing"] == []
    assert doc["setup"] < doc["done"]
    # construct asks W, W', V (two calls) and the phase on one 20-point grid
    assert layer["smoothing.real_calls"] == 5
    assert layer["smoothing.real_points"] == 100
    assert layer["oscillatory.phase_roots"] == 0
    assert 0.0 <= layer["cli.self_s"] <= doc["done"] - doc["setup"] + 1.0
