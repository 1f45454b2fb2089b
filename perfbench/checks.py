"""Checks of the artifacts a workload's command wrote, run after the timed part.

Nothing here trusts the program's numbers: values are compared with the
benchmark's own evaluation (reference.py) or with properties the
mathematics fixes (half-knot phases, sign parity, residue 1, vanishing
circle integrals). Each function returns a list of problems; an empty
list means the artifacts are correct.

Tolerances are the benchmark's own, set from the measured agreement of the
two independent evaluations (about 1e-14) and from the suite's stated
contract, so a record cannot pass here by loosening its own tolerance.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

# T_scaled, T_main and tail differences: program vs reference, absolute
VALUE_TOL = 1e-9
# half-knot residual: the suite polishes to 1e-9 in its own phase
KNOT_TOL = 2e-9
# identities between columns of one row
IDENTITY_TOL = 1e-13

OSCILLATION_HEADER = ["x", "T_scaled", "T_main", "S_scaled", "tau", "D"]
WITNESS_HEADER = ["k", "x_k", "deviation", "sign"]

REAL_AXIS_RECORDS = (
    "growth_slope_sign", "growth_scaling_lower_bound", "derivative_envelope",
    "growth_envelope_bracket", "main_term_remainder", "quadrature_cross_check",
    "cumulative_oscillation", "tail_oscillation",
)
CONTINUATION_RECORDS = (
    "continuation_overlap", "path_independence", "transform_holomorphy",
    "pole_residue",
)

# the contract of each continuation record: (measured key, largest tolerance)
_CONTINUATION_BOUNDS = {
    "continuation_overlap": ("max_error", 1e-6),
    "path_independence": ("max_diff", 1e-8),
    "transform_holomorphy": ("max_relative", 1e-6),
    "pole_residue": ("abs_error", 1e-4),
}

# the suite's lemma 2.1/2.2 grids
_LEMMA21_GRID = np.logspace(0.0, 6.0, 60)
_SCALE_FACTORS = (0.1, 0.25, 0.5, 0.75, 1.0)
_REMAINDER_XS = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)


def _read_csv(path: Path, header):
    if not path.exists():
        return None, [f"{path.name} missing"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != list(header):
        return None, [f"{path.name}: header {rows[:1]} is not {list(header)}"]
    return rows[1:], []


def _parse_floats(rows):
    try:
        data = np.array([[float(c) for c in row] for row in rows], dtype=float)
    except ValueError as exc:
        return None, [f"unparseable cell: {exc}"]
    if data.size and not np.all(np.isfinite(data)):
        return None, ["non-finite cell"]
    return data, []


def check_witnesses(ref, witnesses, x_lo: float, x_hi: float, kind: str):
    """Witness list (k, x_k, deviation, sign) of Theorem 1.1 (i) or (ii).

    kind "S": deviation (T_scaled - e^-x) / rho, sign +1 at even k.
    kind "tau": deviation tau / rho, sign -1 at even k.
    """
    problems = []
    if not witnesses:
        return ["no witnesses"]
    ks = np.array([w[0] for w in witnesses], dtype=int)
    xs = np.array([w[1] for w in witnesses], dtype=float)
    devs = np.array([w[2] for w in witnesses], dtype=float)
    signs = np.array([w[3] for w in witnesses], dtype=int)
    required, optional = ref.half_knot_ks(x_lo, x_hi)
    got = set(ks.tolist())
    if not required <= got or not got <= required | optional:
        problems.append(f"{kind} witnesses cover k {min(got)}..{max(got)}, "
                        f"half-knots in range are {min(required)}..{max(required)}")
    if np.any(np.diff(ks) != 1) or np.any(np.diff(xs) <= 0):
        problems.append(f"{kind} witnesses are not consecutive and ascending")
    resid = np.abs(ref.phase(xs) - (0.5 * math.pi + math.pi * ks))
    if resid.max() > KNOT_TOL:
        k = int(ks[resid.argmax()])
        problems.append(f"{kind} witness k={k}: phase misses pi/2 + k pi by {resid.max():.2e}")
    if np.any(signs != np.sign(devs)) or np.any(signs == 0):
        problems.append(f"{kind} witness signs disagree with their deviations")
    if np.any(signs[1:] != -signs[:-1]):
        problems.append(f"{kind} witness signs do not alternate")
    even_sign = 1 if kind == "S" else -1
    expected = np.where(ks % 2 == 0, even_sign, -even_sign)
    if np.any(signs != expected):
        problems.append(f"{kind} witness signs break the parity of Theorem 1.1")
    rho = ref.rho(xs)
    t_scaled, integral = ref.cumulative(xs)
    if kind == "S":
        err = np.abs(devs * rho - (t_scaled - np.exp(-xs)))
    else:
        # tau(x_0) - tau(x_i) is the integral of cos(u W(u)) over [x_0, x_i]
        tau = devs * rho
        err = np.abs((tau[0] - tau) - (integral - integral[0]))
    if err.max() > VALUE_TOL:
        k = int(ks[err.argmax()])
        problems.append(f"{kind} witness k={k}: deviation off the reference by "
                        f"{err.max():.2e} (times rho)")
    return problems


def read_witness_csv(path: Path):
    rows, problems = _read_csv(path, WITNESS_HEADER)
    if rows is None:
        return None, problems
    try:
        return [(int(r[0]), float(r[1]), float(r[2]), int(r[3])) for r in rows], []
    except ValueError as exc:
        return None, [f"{path.name}: {exc}"]


def check_oscillation(ref, out_dir: Path, x_grid: np.ndarray):
    """oscillation.csv and witnesses.csv of `oscillate` on x_grid."""
    rows, problems = _read_csv(out_dir / "oscillation.csv", OSCILLATION_HEADER)
    if rows is not None:
        data, problems = _parse_floats(rows)
    if rows is None or data is None:
        return problems
    if data.shape != (x_grid.size, 6):
        return [f"oscillation.csv has {data.shape[0]} rows, wanted {x_grid.size}"]
    x, t_scaled, t_main, s_scaled, tau, d = data.T
    if np.max(np.abs(x - x_grid) / x_grid) > 1e-15:
        problems.append("oscillation.csv x column is not the requested grid")
    t_ref, integral = ref.cumulative(x)
    err = np.abs(t_scaled - t_ref)
    if err.max() > VALUE_TOL:
        problems.append(f"T_scaled at x={x[err.argmax()]:.6g} off the dense rule by {err.max():.2e}")
    err = np.abs(t_main - np.sin(ref.phase(x)) / ref.V(x))
    if err.max() > VALUE_TOL:
        problems.append(f"T_main at x={x[err.argmax()]:.6g} off sin(phase)/V by {err.max():.2e}")
    err = np.abs((tau[0] - tau) - (integral - integral[0]))
    if err.max() > VALUE_TOL:
        problems.append(f"tau(x0) - tau(x) at x={x[err.argmax()]:.6g} off the direct "
                        f"integral by {err.max():.2e}")
    if np.max(np.abs(s_scaled - (1.0 - np.exp(-x) + t_scaled))) > IDENTITY_TOL:
        problems.append("S_scaled != 1 - e^-x + T_scaled")
    d_ref = (t_scaled - np.exp(-x)) / ref.rho(x)
    if np.max(np.abs(d - d_ref) / np.maximum(1.0, np.abs(d_ref))) > IDENTITY_TOL:
        problems.append("D != (T_scaled - e^-x) / rho")
    witnesses, more = read_witness_csv(out_dir / "witnesses.csv")
    problems += more
    if witnesses is not None:
        problems += check_witnesses(ref, witnesses, float(x_grid[0]), float(x_grid[-1]), "S")
    return problems


def read_report(path: Path):
    if not path.exists():
        return None, [f"{path.name} missing"]
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except json.JSONDecodeError as exc:
        return None, [f"{path.name}: {exc}"]


def _records(report) -> dict:
    return {r["name"]: r for r in report.get("records", [])}


def failed_records(report, expected) -> list:
    """Expected records that are missing or did not pass."""
    recs = _records(report) if report else {}
    return [name for name in expected
            if name not in recs or recs[name].get("status") != "pass"]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_real_axis_report(ref, report, x_range) -> list:
    """Records of lemma21, lemma22, witness_s and witness_tau on the log rate."""
    problems = []
    recs = _records(report)
    cfg = report.get("config", {})
    if cfg.get("rate", {}).get("kind") != "log" or cfg.get("x_range") != list(x_range):
        problems.append(f"report config {cfg.get('rate')} {cfg.get('x_range')} is not the workload's")
    skip = set(failed_records(report, REAL_AXIS_RECORDS))
    m = {name: rec.get("measured", {}) for name, rec in recs.items()}
    y = _LEMMA21_GRID
    w = ref.W(y)
    if "growth_slope_sign" not in skip:
        if not _close(m["growth_slope_sign"]["min_slope"], float(ref.W_prime(y).min()), 1e-9):
            problems.append("min_slope differs from the reference W' on the lemma 2.1 grid")
    if "growth_scaling_lower_bound" not in skip:
        worst = max(float(np.max(a * w - ref.W(a * y))) for a in _SCALE_FACTORS)
        if not _close(m["growth_scaling_lower_bound"]["max_violation"], worst, 1e-9):
            problems.append("scaling max_violation differs from the reference")
    if "growth_envelope_bracket" not in skip:
        lower = float(np.min(w / ref.omega(y)))
        if not _close(m["growth_envelope_bracket"]["lower_ratio_min"], lower, 1e-9):
            problems.append("envelope lower_ratio_min differs from the reference")
    if "derivative_envelope" not in skip:
        if m["derivative_envelope"]["max_ratio"] > 1.0 + 1e-6:
            problems.append("derivative envelope ratio exceeds 1 + 1e-6")
    if "main_term_remainder" not in skip:
        xs = np.array(_REMAINDER_XS)
        t_ref, _ = ref.cumulative(xs)
        v = ref.V(xs)
        rem = np.abs(t_ref - np.sin(ref.phase(xs)) / v) * v * v
        got = np.array(m["main_term_remainder"]["remainder_scaled"], dtype=float)
        if got.shape != rem.shape or np.max(np.abs(got - rem)) > VALUE_TOL * 100:
            problems.append("scaled remainders differ from the reference")
        if rem.max() > 10.0 * np.median(rem):
            problems.append("Lemma 2.2: reference remainder max exceeds 10x its median")
    if "quadrature_cross_check" not in skip:
        if m["quadrature_cross_check"]["max_abs_diff"] > 1e-8:
            problems.append("quadrature cross-check difference exceeds 1e-8")
    for name, kind in (("cumulative_oscillation", "S"), ("tail_oscillation", "tau")):
        if name in skip:
            continue
        wit = [(w["k"], w["x_k"], w["deviation"], w["sign"]) for w in recs[name]["witnesses"]]
        problems += check_witnesses(ref, wit, x_range[0], x_range[1], kind)
    return problems


def check_continuation_report(report) -> list:
    """Continuation and residue records: the contract, not the record's claim."""
    problems = []
    recs = _records(report)
    skip = set(failed_records(report, CONTINUATION_RECORDS))
    for name, (key, bound) in _CONTINUATION_BOUNDS.items():
        if name in skip:
            continue
        m = recs[name].get("measured", {})
        if m.get("tolerance", math.inf) > bound:
            problems.append(f"{name}: stated tolerance {m.get('tolerance')} is looser than {bound}")
        if not m.get(key, math.inf) <= bound:
            problems.append(f"{name}: {key}={m.get(key)} exceeds {bound}")
    if "pole_residue" not in skip:
        m = recs["pole_residue"]["measured"]
        err = abs(complex(m["residue_re"], m["residue_im"]) - 1.0)
        if not err <= _CONTINUATION_BOUNDS["pole_residue"][1]:
            problems.append(f"residue at s = 1 is {m['residue_re']}+{m['residue_im']}j, not 1")
        if abs(err - m["abs_error"]) > 1e-12:
            problems.append("pole_residue abs_error does not match its residue")
    return problems
