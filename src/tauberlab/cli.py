"""Command-line front end: profile tables, oscillation tables, continued
transforms, and the verification suite, emitted as CSV and JSON artifacts.

One config file (JSON) plus flag overrides; flags win. All numeric output
uses shortest round-trip decimals, so re-parsing reproduces the doubles
bit for bit. Files are written atomically (temp then rename), and fixed
configs reproduce byte-identical artifacts: reports carry no timestamps
or timings (those go to stderr under --verbose).

Exit codes: 0 all enabled checks pass (or artifact command succeeded),
1 runtime failure or non-passing verification, 2 configuration error.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .contour import ContourPath, contour_F, laplace_cos, laplace_dS
from .oscillatory import eval_T_main, eval_T_scaled, eval_tau
from .quadrature import QuadratureConfig
from .rates import RateFunction, catalog, growth_target, load_table, validate_rate
from .smoothing import SmoothedGrowth
from .suite import (DEFAULT_CHECKS, SuiteConfig, omega_pm_witnesses, run_suite,
                    validate_checks, validate_range)

W_PROFILE_HEADER = ("x", "omega", "W", "Wp", "V", "phase")
OSCILLATION_HEADER = ("x", "T_scaled", "T_main", "S_scaled", "tau", "D")
WITNESS_HEADER = ("k", "x_k", "deviation", "sign")
CONTINUATION_HEADER = ("re_s", "im_s", "re_F", "im_F",
                       "re_Lcos", "im_Lcos", "re_LdS", "im_LdS")

# distance from the pole inside which the Laplace-Stieltjes columns are
# left blank rather than evaluated
POLE_GUARD = 1e-3

_DEFAULT_S_GRID = tuple(
    complex(re, im) for re in (1.0, 2.0, 3.0) for im in (0.0, 1.0, -1.0, 5.0, -5.0)
) + (complex(-1.0, 0.0), complex(-2.0, 3.0))

# grid meaning is per command: construct sweeps the profile argument,
# oscillate tabulates x, verify takes only the witness window from it
_GRID_DEFAULTS = {
    "construct": (1.0, 1e4, 200, "log"),
    "oscillate": (10.0, 60.0, 200, "linear"),
    "continue": (10.0, 60.0, 200, "linear"),
    "verify": (10.0, 60.0, 200, "linear"),
}

_TOP_KEYS = {"rate", "grids", "s_grid", "tolerances", "checks", "out_dir"}
_RATE_KEYS = {"kind", "alpha", "table"}
_GRID_KEYS = {"x_min", "x_max", "points", "scale"}
_TOL_KEYS = {"abs", "rel"}


class ConfigError(Exception):
    """Configuration problem; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    rate: RateFunction
    x_min: float
    x_max: float
    points: int
    scale: str
    s_grid: Tuple[complex, ...]
    quad: QuadratureConfig
    checks: Tuple[str, ...]
    out_dir: Path
    verbose: bool = False


# -- config assembly ------------------------------------------------------


def _load_json(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _check_keys(doc: dict, allowed: set, where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _number(doc: dict, key: str, where: str) -> Optional[float]:
    if key not in doc:
        return None
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {val!r}")
    return float(val)


def _build_rate(doc: dict, args) -> RateFunction:
    block = doc.get("rate", {})
    if not isinstance(block, dict):
        raise ConfigError("rate: expected an object")
    _check_keys(block, _RATE_KEYS, "rate")
    kind = block.get("kind", "log")
    alpha = _number(block, "alpha", "rate")
    if args.rate is not None:
        kind = args.rate
    if args.alpha is not None:
        alpha = args.alpha
    if not isinstance(kind, str):
        raise ConfigError(f"rate.kind: expected a string, got {kind!r}")
    try:
        if kind == "table":
            table = block.get("table")
            if not isinstance(table, str):
                raise ConfigError("rate.table: kind 'table' needs a file path")
            rho = load_table(table)
        else:
            rho = catalog(kind, alpha=alpha)
        validate_rate(rho)
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError(f"rate: {exc}") from exc
    return rho


def _build_grid(doc: dict, args, command: str) -> Tuple[float, float, int, str]:
    x_min, x_max, points, scale = _GRID_DEFAULTS[command]
    block = doc.get("grids", {})
    if not isinstance(block, dict):
        raise ConfigError("grids: expected an object")
    _check_keys(block, _GRID_KEYS, "grids")
    got_min = _number(block, "x_min", "grids")
    got_max = _number(block, "x_max", "grids")
    x_min = x_min if got_min is None else got_min
    x_max = x_max if got_max is None else got_max
    if "points" in block:
        if isinstance(block["points"], bool) or not isinstance(block["points"], int):
            raise ConfigError(f"grids.points: expected an integer, got {block['points']!r}")
        points = block["points"]
    scale = block.get("scale", scale)
    if args.x_range is not None:
        x_min, x_max, points = _parse_x_range(args.x_range)
    if scale not in ("log", "linear"):
        raise ConfigError(f"grids.scale: must be 'log' or 'linear', got {scale!r}")
    try:
        validate_range(x_min, x_max, "grids: x_min, x_max")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if points < 2:
        raise ConfigError(f"grids.points: need at least 2, got {points}")
    return x_min, x_max, points, scale


def _parse_x_range(text: str) -> Tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--x-range wants A:B:N, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--x-range: {exc}") from exc


def _build_s_grid(doc: dict) -> Tuple[complex, ...]:
    if "s_grid" not in doc:
        return _DEFAULT_S_GRID
    block = doc["s_grid"]
    if not isinstance(block, list) or not block:
        raise ConfigError("s_grid: expected a non-empty list of [re, im] pairs")
    out = []
    for i, entry in enumerate(block):
        ok = (isinstance(entry, list) and len(entry) == 2
              and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in entry))
        if not ok:
            raise ConfigError(f"s_grid[{i}]: expected [re, im], got {entry!r}")
        val = complex(float(entry[0]), float(entry[1]))
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise ConfigError(f"s_grid[{i}]: non-finite point {entry!r}")
        out.append(val)
    return tuple(out)


def _build_quad(doc: dict) -> QuadratureConfig:
    block = doc.get("tolerances", {})
    if not isinstance(block, dict):
        raise ConfigError("tolerances: expected an object")
    _check_keys(block, _TOL_KEYS, "tolerances")
    abs_tol = _number(block, "abs", "tolerances")
    rel_tol = _number(block, "rel", "tolerances")
    try:
        return QuadratureConfig(
            abs_tol=1e-8 if abs_tol is None else abs_tol,
            rel_tol=1e-10 if rel_tol is None else rel_tol,
        )
    except ValueError as exc:
        raise ConfigError(f"tolerances: {exc}") from exc


def _build_checks(doc: dict, args) -> Tuple[str, ...]:
    checks: Sequence[str] = doc.get("checks", DEFAULT_CHECKS)
    if getattr(args, "only", None):
        checks = [tok.strip() for tok in args.only.split(",") if tok.strip()]
    if not isinstance(checks, (list, tuple)):
        raise ConfigError("checks: expected a list of names")
    try:
        validate_checks(checks)
    except ValueError as exc:
        raise ConfigError(f"checks: {exc}") from exc
    return tuple(checks)


def build_config(args, command: str) -> RunConfig:
    doc = _load_json(args.config) if args.config else {}
    _check_keys(doc, _TOP_KEYS, "config")
    out_dir = doc.get("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir: expected a string, got {out_dir!r}")
    if args.out is not None:
        out_dir = args.out
    x_min, x_max, points, scale = _build_grid(doc, args, command)
    return RunConfig(
        rate=_build_rate(doc, args),
        x_min=x_min, x_max=x_max, points=points, scale=scale,
        s_grid=_build_s_grid(doc),
        quad=_build_quad(doc),
        checks=_build_checks(doc, args),
        out_dir=Path(out_dir),
        verbose=bool(args.verbose),
    )


# -- output plumbing ------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: Tuple[str, ...], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def _x_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.scale == "log":
        return np.geomspace(cfg.x_min, cfg.x_max, cfg.points)
    return np.linspace(cfg.x_min, cfg.x_max, cfg.points)


def _note(cfg: RunConfig, label: str, t0: float) -> None:
    if cfg.verbose:
        print(f"{label}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)


# -- commands --------------------------------------------------------------


def cmd_construct(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    sg = SmoothedGrowth(growth_target(cfg.rate))
    xs = _x_grid(cfg)
    omega = [float(sg.target(x)) for x in xs]
    # every column from the proxy's y^n W^(n)(y), n = 0, 1, as W, V and phase are
    w = np.asarray(sg.scaled(xs, 0), dtype=float)
    xwp = np.asarray(sg.scaled(xs, 1), dtype=float)
    wp = xwp / xs
    v = w + xwp
    phase = xs * w
    rows = (
        tuple(_fmt(c) for c in cols)
        for cols in zip(xs, omega, w, wp, v, phase)
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "w_profile.csv"
    _write_csv(path, W_PROFILE_HEADER, rows)
    print(f"wrote {path}")
    _note(cfg, "construct", t0)
    return 0


def cmd_oscillate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    sg = SmoothedGrowth(growth_target(cfg.rate))
    rho = cfg.rate

    def row(x: float):
        r = float(rho(x))
        if r == 0.0:
            raise ValueError(f"rate vanishes at x = {x:g}; deviation undefined")
        t_scaled = eval_T_scaled(sg, x, cfg.quad)
        t_main = float(eval_T_main(sg, x))
        tau = eval_tau(sg, x, cfg.quad)
        s_scaled = 1.0 - math.exp(-x) + t_scaled
        d = (t_scaled - math.exp(-x)) / r
        gap = abs(t_scaled - t_main) * float(sg.V(x)) ** 2
        cells = tuple(_fmt(c) for c in (x, t_scaled, t_main, s_scaled, tau, d))
        return cells, gap

    results = [row(float(x)) for x in _x_grid(cfg)]
    rows = [cells for cells, _ in results]
    remainder_max = max(gap for _, gap in results)
    witnesses, _ = omega_pm_witnesses(sg, rho, (cfg.x_min, cfg.x_max), cfg.quad)
    w_rows = [
        (str(w.k), _fmt(w.x_k), _fmt(w.deviation), str(w.sign))
        for w in witnesses
    ]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for name, header, data in (
        ("oscillation.csv", OSCILLATION_HEADER, rows),
        ("witnesses.csv", WITNESS_HEADER, w_rows),
    ):
        path = cfg.out_dir / name
        _write_csv(path, header, data)
        print(f"wrote {path}")
    print(f"max scaled remainder: {_fmt(remainder_max)}")
    _note(cfg, "oscillate", t0)
    return 0


def cmd_continue(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    sg = SmoothedGrowth(growth_target(cfg.rate))
    bent_path = ContourPath(quad_config=cfg.quad)

    def row(s: complex) -> Tuple[str, ...]:
        f = contour_F(sg, bent_path, s)
        lcos = laplace_cos(sg, bent_path, s)
        cells = [_fmt(s.real), _fmt(s.imag), _fmt(f.real), _fmt(f.imag),
                 _fmt(lcos.real), _fmt(lcos.imag)]
        if abs(s - 1.0) <= POLE_GUARD:
            cells += ["", ""]
        else:
            lds = laplace_dS(sg, bent_path, s)
            cells += [_fmt(lds.real), _fmt(lds.imag)]
        return tuple(cells)

    rows = [row(s) for s in cfg.s_grid]
    report = run_suite(SuiteConfig(
        rate=cfg.rate, checks=("continuation", "residue"), quad_config=cfg.quad,
    ))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out_dir / "continuation.csv"
    _write_csv(csv_path, CONTINUATION_HEADER, rows)
    print(f"wrote {csv_path}")
    json_path = cfg.out_dir / "checks.json"
    _write_atomic(json_path, report.to_json())
    print(f"wrote {json_path}")
    _note(cfg, "continue", t0)
    if report.status == "pass":
        return 0
    print(f"continuation checks: {report.status}", file=sys.stderr)
    return 1


def cmd_verify(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    report = run_suite(SuiteConfig(
        rate=cfg.rate,
        x_range=(cfg.x_min, cfg.x_max),
        checks=cfg.checks,
        quad_config=cfg.quad,
    ))
    for rec in report.records:
        print(f"{rec.name}: {rec.status}")
        if cfg.verbose:
            detail = rec.error if rec.error else json.dumps(rec.measured)
            print(f"  [{rec.seconds:.1f}s] {detail}", file=sys.stderr)
    print(f"status: {report.status} ({len(report.records)} checks)")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "report.json"
    _write_atomic(path, report.to_json())
    print(f"wrote {path}")
    _note(cfg, "verify", t0)
    return 0 if report.status == "pass" else 1


_COMMANDS = {
    "construct": cmd_construct,
    "oscillate": cmd_oscillate,
    "continue": cmd_continue,
    "verify": cmd_verify,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauberlab",
        description="Tabulate smoothed growth profiles, oscillating "
                    "counterexamples, and continued transforms; run the "
                    "verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "construct": "write the smoothed growth profile table",
        "oscillate": "write oscillation and witness tables",
        "continue": "write the continued-transform table and its checks",
        "verify": "run the check suite and write report.json",
    }
    for name, text in helps.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", type=Path, metavar="PATH",
                         help="JSON config file; flags override it")
        cmd.add_argument("--rate", metavar="NAME",
                         help="catalog rate id (log, pow, loglog)")
        cmd.add_argument("--alpha", type=float, metavar="F",
                         help="exponent for the pow rate")
        cmd.add_argument("--out", metavar="DIR", help="output directory")
        cmd.add_argument("--x-range", dest="x_range", metavar="A:B:N",
                         help="grid override: x_min:x_max:points")
        cmd.add_argument("--verbose", action="store_true",
                         help="timing and detail lines on stderr")
        if name == "verify":
            cmd.add_argument("--only", metavar="CHECK[,CHECK...]",
                             help="run only the named check groups")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg)
    except Exception as exc:  # contract: runtime failures exit 1, with a reason
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
