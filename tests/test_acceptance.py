"""Acceptance gate: every advertised guarantee, at its stated tolerance.

Each test prints one verdict line; run with -s (or read failure output)
to see the battery summary. Suite-backed criteria share one default run.
"""

import json
import math

from tauberlab import (
    ContourPath,
    QuadratureConfig,
    SmoothedGrowth,
    catalog,
    eval_tau,
    growth_target,
    laplace_cos,
    laplace_tau,
    signs_alternate,
)
from tauberlab.cli import main


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_growth_profile_battery(default_suite_report):
    rep = default_suite_report
    slope = rep.record("growth_slope_sign")
    scaling = rep.record("growth_scaling_lower_bound")
    envelope = rep.record("derivative_envelope")
    bracket = rep.record("growth_envelope_bracket")
    recs = (slope, scaling, envelope, bracket)
    elapsed = sum(r.seconds for r in recs)

    grid = slope.grids["y"]
    ok = (
        all(r.status == "pass" for r in recs)
        and grid == {"lo": 1.0, "hi": 1e6, "points": 60, "scale": "log"}
        and slope.measured["min_slope"] >= -1e-9
        and scaling.measured["max_violation"] <= 1e-9
        and scaling.measured["scale_factors"] == [0.1, 0.25, 0.5, 0.75, 1.0]
        and envelope.measured["max_ratio"] <= 1.0 + 1e-6
        and envelope.measured["n_max"] == 6
        and bracket.measured["lower_ratio_min"] > 0.0
        and math.isfinite(bracket.measured["upper_ratio_max"])
        and math.isfinite(bracket.measured["linear_ratio_max"])
        and elapsed < 60.0
    )
    _verdict(
        "growth profile battery", ok,
        f"min slope {slope.measured['min_slope']:.2e}, "
        f"scaling gap {scaling.measured['max_violation']:.2e}, "
        f"derivative ratio {envelope.measured['max_ratio']:.3f}, "
        f"bracket [{bracket.measured['lower_ratio_min']:.3f}, "
        f"{bracket.measured['upper_ratio_max']:.3f}], "
        f"linear cap {bracket.measured['linear_ratio_max']:.3f}, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_main_term_remainder_battery(default_suite_report):
    rep = default_suite_report
    rem = rep.record("main_term_remainder")
    oracle = rep.record("quadrature_cross_check")
    elapsed = rem.seconds + oracle.seconds
    ok = (
        rem.status == "pass" and oracle.status == "pass"
        and rem.grids["x"] == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
        and rem.measured["max"] <= 10.0 * rem.measured["median"]
        and oracle.grids["x"] == [10.0, 20.0, 30.0]
        and oracle.measured["max_abs_diff"] <= 1e-8
        and oracle.measured["min_points_per_oscillation"] >= 50
        and elapsed < 120.0
    )
    _verdict(
        "main-term remainder battery", ok,
        f"scaled remainder max {rem.measured['max']:.3f} vs "
        f"median {rem.measured['median']:.3f} (ratio "
        f"{rem.measured['ratio']:.2f} <= 10), independent quadrature gap "
        f"{oracle.measured['max_abs_diff']:.2e} <= 1e-8 at "
        f"{oracle.measured['min_points_per_oscillation']:.0f} pts/osc, "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_continuation_battery(default_suite_report):
    rep = default_suite_report
    overlap = rep.record("continuation_overlap")
    paths = rep.record("path_independence")
    circles = rep.record("transform_holomorphy")
    elapsed = overlap.seconds + paths.seconds + circles.seconds
    ok = (
        all(r.status == "pass" for r in (overlap, paths, circles))
        and overlap.grids["re_s"] == [1.0, 2.0, 3.0]
        and overlap.grids["im_s"] == [0.0, 1.0, -1.0, 5.0, -5.0]
        and overlap.measured["max_error"] <= 1e-6
        and paths.grids["s"] == [[2.0, 0.0], [-1.0, 0.0], [-2.0, 3.0]]
        and paths.measured["max_diff"] <= 1e-8
        and paths.measured["anchors"][1] == 2.0 * paths.measured["anchors"][0]
        and circles.grids["centers"] == [[-1.0, 0.0], [0.0, 0.0],
                                         [1.0, 0.0], [-2.0, 3.0]]
        and circles.grids["radius"] == 0.5
        and circles.grids["points"] == 64
        and circles.measured["max_relative"] <= 1e-6
        and elapsed < 300.0
    )
    _verdict(
        "analytic continuation battery", ok,
        f"half-plane overlap {overlap.measured['max_error']:.2e} <= 1e-6 "
        f"(scaled by 1+|F|), radius-doubling gap "
        f"{paths.measured['max_diff']:.2e} <= 1e-8, circle integrals "
        f"{circles.measured['max_relative']:.2e} <= 1e-6 relative, "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_pole_residue(default_suite_report):
    rec = default_suite_report.record("pole_residue")
    ok = (
        rec.status == "pass"
        and rec.grids == {"center": [1.0, 0.0], "radius": 0.3, "points": 64}
        and rec.measured["abs_error"] <= 1e-4
    )
    _verdict(
        "simple pole residue", ok,
        f"circle integral {rec.measured['residue_re']:.12f}"
        f"{rec.measured['residue_im']:+.2e}i, error "
        f"{rec.measured['abs_error']:.2e} <= 1e-4",
    )


def _witness_criterion(rec, label):
    m = rec.measured
    ok = (
        rec.status == "pass"
        and m["witness_count"] >= 10
        and m["alternating"] is True
        and signs_alternate(rec.witnesses)
        and m["c_measured"] > 0.0
        and 0.5 <= m["magnitude_min"] and m["magnitude_max"] <= 1.5
        and rec.grids["x_range"] == [10.0, 60.0]
    )
    _verdict(
        label, ok,
        f"{m['witness_count']} alternating witnesses "
        f"({m['positive_count']}+/{m['negative_count']}-), "
        f"c = {m['c_measured']:.4f} > 0, scaled magnitudes "
        f"[{m['magnitude_min']:.4f}, {m['magnitude_max']:.4f}] within "
        f"[0.5, 1.5] on x in [10, 60]",
    )


def test_cumulative_deviation_oscillates(default_suite_report):
    _witness_criterion(default_suite_report.record("cumulative_oscillation"),
                       "cumulative deviation oscillation")


def test_tail_integral_oscillates(default_suite_report):
    _witness_criterion(default_suite_report.record("tail_oscillation"),
                       "tail integral oscillation")


def test_tail_transform_removable_point():
    cfg = QuadratureConfig(abs_tol=1e-8)
    sg = SmoothedGrowth(growth_target(catalog("log")))
    path = ContourPath(quad_config=cfg)
    doubled = ContourPath(R0=2.0 * path.R0, quad_config=cfg)

    gap = abs(laplace_cos(sg, path, 0.0) - eval_tau(sg, 0.0, cfg))
    vals, shifts = {}, {}
    for s in (0.0 + 0.0j, -2.0 + 3.0j):
        vals[s] = laplace_tau(sg, path, s)
        shifts[s] = abs(vals[s] - laplace_tau(sg, doubled, s))
    finite = all(math.isfinite(v.real) and math.isfinite(v.imag)
                 for v in vals.values())
    stable = max(shifts.values()) <= 1e-8

    ok = gap <= 1e-5 and finite and stable
    _verdict(
        "tail transform removable point", ok,
        f"transform-vs-tail gap at 0 is {gap:.2e} <= 1e-5, values finite "
        f"at 0 and -2+3i, radius-doubling shift {max(shifts.values()):.2e}"
        f" <= 1e-8",
    )


def test_reproducible_artifacts(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["construct", "--out", str(out),
                     "--x-range", "1:100:40"]) == 0
        assert main(["oscillate", "--out", str(out),
                     "--x-range", "12:16:6"]) == 0
        assert main(["verify", "--only", "residue", "--out", str(out)]) == 0
        runs.append(out)

    names = ("w_profile.csv", "oscillation.csv", "witnesses.csv", "report.json")
    identical = all(
        (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        for name in names
    )
    doc = json.loads((runs[0] / "report.json").read_text())
    no_timings = "total_seconds" not in doc and all(
        "seconds" not in r for r in doc["records"]
    )
    ok = identical and no_timings
    _verdict(
        "reproducible artifacts", ok,
        f"{len(names)} artifacts byte-identical across independent runs; "
        f"reports carry no timing fields",
    )
