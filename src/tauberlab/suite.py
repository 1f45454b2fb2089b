"""Verification suite: assemble the counterexamples and check every claim.

Builds the cumulative integral S and the tail integral tau from one
smoothed growth function, extracts their oscillation witnesses at the
phase half-knots (where sin of the phase peaks), and runs the full
property battery: kernel growth properties, main-term remainder,
continuation overlap and holomorphy, pole residue, and both witness
extractions. Results land in a structured report whose records carry
their source anchors as data; a failing check marks its record and the
run continues.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .contour import ContourPath, cauchy_circle, contour_F, laplace_cos, laplace_dS
from .oscillatory import (
    TAU_CAP,
    direct_F,
    eval_T_main,
    eval_T_scaled,
    eval_tau,
    phase_knots,
    phase_panels,
)
from .quadrature import QuadratureConfig
from .rates import RateFunction, catalog, growth_target, validate_rate
from .smoothing import SmoothedGrowth

__all__ = [
    "OscillationWitness",
    "CheckRecord",
    "VerificationReport",
    "SuiteConfig",
    "DEFAULT_CHECKS",
    "eval_S_scaled",
    "deviation_D",
    "locate_half_knots",
    "omega_pm_witnesses",
    "tau_witnesses",
    "signs_alternate",
    "run_suite",
]

# grid tolerances fixed by the verification contract
_SLOPE_TOL = 1e-9
_SCALING_TOL = 1e-9
_ENVELOPE_TOL = 1e-6
_REMAINDER_RATIO_LIMIT = 10.0
_ORACLE_TOL = 1e-8
_OVERLAP_TOL = 1e-6
_PATH_TOL = 1e-8
_HOLOMORPHY_TOL = 1e-6
_RESIDUE_TOL = 1e-4


@dataclass(frozen=True)
class OscillationWitness:
    """One detected oscillation extremum.

    `k` indexes the half-knot (phase = pi/2 + k*pi), `x_k` is its
    location, `deviation` the normalized deviation evaluated there, and
    `sign` the sign of that deviation. Valid witness lists have strictly
    increasing x_k, alternating signs, and nonzero deviations; those are
    checked by the suite, not the constructor, so a broken list is
    representable and reportable.
    """

    k: int
    x_k: float
    deviation: float
    sign: int

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "x_k": self.x_k,
            "deviation": self.deviation,
            "sign": self.sign,
        }


@dataclass
class CheckRecord:
    """Outcome of one suite check. Status is pass, fail, or warn."""

    name: str
    group: str
    anchor: str
    status: str
    measured: Dict[str, object] = field(default_factory=dict)
    grids: Dict[str, object] = field(default_factory=dict)
    witnesses: List[OscillationWitness] = field(default_factory=list)
    error: Optional[str] = None
    seconds: float = 0.0  # wall time, for --verbose; never serialized

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "group": self.group,
            "anchor": self.anchor,
            "status": self.status,
            "measured": self.measured,
            "grids": self.grids,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "error": self.error,
        }


@dataclass
class VerificationReport:
    """Ordered check records plus the config they were produced under."""

    records: List[CheckRecord]
    config: Dict[str, object]

    @property
    def status(self) -> str:
        statuses = {r.status for r in self.records}
        if "fail" in statuses:
            return "fail"
        if "warn" in statuses:
            return "warn"
        return "pass"

    def record(self, name: str) -> CheckRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(f"no record named {name!r}")

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "status": self.status,
            "records": [r.as_dict() for r in self.records],
        }

    def to_json(self) -> str:
        # fixed key order and repr floats keep equal configs byte-identical;
        # strict JSON: run_suite already nulls non-finite measurements
        return json.dumps(self.as_dict(), indent=2, allow_nan=False) + "\n"


# -- counterexample evaluation ------------------------------------------------


def eval_S_scaled(sg: SmoothedGrowth, x: float,
                  config: Optional[QuadratureConfig] = None) -> float:
    """e^(-x) * integral over [0, x] of e^u (1 + cos(u W(u))) du.

    Splits off the exponential part exactly: 1 - e^(-x) plus the scaled
    oscillatory integral. The integrand is nonnegative, so S itself is
    non-decreasing.
    """
    return 1.0 - math.exp(-x) + eval_T_scaled(sg, x, config)


def deviation_D(sg: SmoothedGrowth, rho: Callable, x: float,
                config: Optional[QuadratureConfig] = None) -> float:
    """Normalized deviation D(x) = (e^(-x) S(x) - 1) / rho(x).

    Computed in the decomposed form (T_scaled - e^(-x)) / rho, which is
    the same number without subtracting two values near 1.
    """
    if x <= 0:
        raise ValueError("need x > 0")
    r = float(rho(x))
    if r == 0.0:
        raise ValueError(f"rate vanishes at x = {x:g}; deviation undefined")
    return (eval_T_scaled(sg, x, config) - math.exp(-x)) / r


# -- half-knot location -------------------------------------------------------


def locate_half_knots(sg: SmoothedGrowth, k_min: int,
                      k_max: int) -> List[Tuple[int, float]]:
    """Solve phase(x) = pi/2 + k*pi for each k in [k_min, k_max].

    The phase is strictly increasing from 0, so each positive target has
    exactly one root; the knot table is read out to the first power of
    two x with phase(x) past the last target. Returns ascending (k, x_k)
    pairs with the phase residual at most 1e-9. Raises ValueError when a
    target cannot be bracketed (negative targets have no root at all).
    """
    if k_max < k_min:
        return []
    if 0.5 * math.pi + math.pi * k_min <= 0:
        raise ValueError(
            f"phase target for k = {int(k_min)} is not positive; root not bracketed"
        )
    t_hi = 0.5 * math.pi + math.pi * k_max
    x = 1.0
    while not float(sg.phase(x)) > t_hi:
        if x > 2.0 ** 200:
            raise ValueError(f"root for k = {int(k_max)} not bracketed within x <= {x:g}")
        x *= 2.0
    j, u = phase_knots(sg, 0.0, x)
    keep = (j >= 2 * k_min + 1) & (j <= 2 * k_max + 1) & (j % 2 == 1)
    return [(int(jj) // 2, float(xx)) for jj, xx in zip(j[keep], u[keep])]


# -- oscillation witnesses ----------------------------------------------------


def signs_alternate(witnesses: Sequence[OscillationWitness]) -> bool:
    """True when consecutive witness signs flip and none is zero."""
    if any(w.sign == 0 for w in witnesses):
        return False
    return all(b.sign == -a.sign for a, b in zip(witnesses, witnesses[1:]))


def _extract_witnesses(sg: SmoothedGrowth, x_range, value: Callable,
                       min_count: int) -> Tuple[List[OscillationWitness], float]:
    x_lo, x_hi = float(x_range[0]), float(x_range[1])
    validate_range(x_lo, x_hi, "x_range")
    j, u = phase_knots(sg, x_lo, x_hi)
    half = j % 2 == 1
    ks, roots = j[half] // 2, u[half]
    if ks.size < min_count:
        raise ValueError(
            f"only {ks.size} half-knots in [{x_lo:g}, {x_hi:g}]; "
            f"need at least {min_count}"
        )
    witnesses = []
    for k, xk in zip(ks, roots):
        d = float(value(float(xk)))
        witnesses.append(OscillationWitness(
            k=int(k), x_k=float(xk), deviation=d,
            sign=1 if d > 0 else (-1 if d < 0 else 0),
        ))
    c = min(abs(w.deviation) for w in witnesses)
    return witnesses, c


def omega_pm_witnesses(sg: SmoothedGrowth, rho: Callable, x_range,
                       config: Optional[QuadratureConfig] = None,
                       min_count: int = 4) -> Tuple[List[OscillationWitness], float]:
    """Deviation witnesses for the cumulative integral at the half-knots.

    Evaluates D at every half-knot inside x_range and returns the list
    with c_measured = min |deviation|. Alternation and sign parity are
    reported by the suite as statuses, not raised here; the only hard
    error is a range too thin to hold `min_count` half-knots.
    """
    return _extract_witnesses(
        sg, x_range, lambda x: deviation_D(sg, rho, x, config), min_count
    )


def tau_witnesses(sg: SmoothedGrowth, rho: Callable, x_range,
                  config: Optional[QuadratureConfig] = None,
                  min_count: int = 4) -> Tuple[List[OscillationWitness], float]:
    """Tail-integral witnesses: deviation tau(x)/rho(x) at the half-knots.

    The tail's main term carries the opposite sign pattern to the
    cumulative integral's, which the suite checks per witness.
    """
    return _extract_witnesses(
        sg, x_range, lambda x: eval_tau(sg, x, config) / float(rho(x)), min_count
    )


# -- suite configuration ------------------------------------------------------

DEFAULT_CHECKS = ("lemma21", "lemma22", "continuation", "residue",
                  "witness_s", "witness_tau")

_REMAINDER_XS = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
_ORACLE_XS = (10.0, 20.0, 30.0)
_SCALE_FACTORS = (0.1, 0.25, 0.5, 0.75, 1.0)
# the Lemma 2.1 grid: _GRID_POINTS log-spaced y in [_GRID_LO, _GRID_HI]
_GRID_LO, _GRID_HI, _GRID_POINTS = 1.0, 1e6, 60
# a witness record with fewer than 2 * _N_WITNESSES witnesses is a warn
_N_WITNESSES = 10


def _grid_echo() -> Dict[str, object]:
    return {"lo": _GRID_LO, "hi": _GRID_HI, "points": _GRID_POINTS, "scale": "log"}


def validate_range(lo: float, hi: float, name: str) -> None:
    """Raise ValueError naming `name` unless lo and hi are finite with 0 < lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError(f"{name} must be finite with 0 < lo < hi, got ({lo!r}, {hi!r})")


def validate_checks(checks: Sequence[str]) -> None:
    """Raise ValueError unless `checks` is a non-empty list of distinct known ids."""
    if not checks:
        raise ValueError("need at least one check id")
    unknown = [c for c in checks if c not in DEFAULT_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; known ids are {list(DEFAULT_CHECKS)}")
    if len(set(checks)) != len(checks):
        raise ValueError("duplicate check ids")


@dataclass(frozen=True)
class SuiteConfig:
    """What to build and which checks to run.

    `rate` picks the decay rate the construction targets. `x_range` is
    the oscillation window (it must hold 2 * _N_WITNESSES half-knots for
    a clean pass; thinner data demotes the record to warn). `checks`
    selects battery groups by id, keeping registry order regardless of
    the order given here. `quad_config` is every integral's budget.
    """

    rate: RateFunction = field(default_factory=lambda: catalog("log"))
    x_range: Tuple[float, float] = (10.0, 60.0)
    checks: Tuple[str, ...] = DEFAULT_CHECKS
    quad_config: QuadratureConfig = QuadratureConfig(abs_tol=1e-8)

    def __post_init__(self):
        validate_range(*self.x_range, "x_range")
        validate_checks(self.checks)

    def echo(self) -> Dict[str, object]:
        rate: Dict[str, object] = {"kind": self.rate.kind}
        if self.rate.alpha is not None:
            rate["alpha"] = self.rate.alpha
        if self.rate.table is not None:
            rate["table_points"] = len(self.rate.table)
        return {
            "rate": rate,
            "x_range": [self.x_range[0], self.x_range[1]],
            "n_witnesses": _N_WITNESSES,
            "checks": list(self.checks),
            "quadrature": {
                "abs_tol": self.quad_config.abs_tol,
                "rel_tol": self.quad_config.rel_tol,
                "tail_cutoff": TAU_CAP,
            },
            "grid": _grid_echo(),
        }


class _SuiteContext:
    def __init__(self, config: SuiteConfig):
        self.config = config
        self.rho = config.rate
        self.sg = SmoothedGrowth(growth_target(config.rate))
        self.path = ContourPath(quad_config=config.quad_config)
        self.grid = np.logspace(math.log10(_GRID_LO), math.log10(_GRID_HI), _GRID_POINTS)
        self._grid_derivatives = None

    def grid_derivatives(self) -> Tuple[np.ndarray, ...]:
        """W^(n) on the Lemma 2.1 grid for n = 0..6, from one exact pass."""
        if self._grid_derivatives is None:
            self._grid_derivatives = self.sg.derivative_orders(self.grid, range(7))
        return self._grid_derivatives

    def grid_echo(self) -> Dict[str, object]:
        return {"y": _grid_echo()}


# -- kernel growth property battery -------------------------------------------


def _check_growth_slope(ctx: _SuiteContext):
    slope = ctx.grid_derivatives()[1]
    worst = float(slope.min())
    status = "pass" if worst >= -_SLOPE_TOL else "fail"
    return status, {"min_slope": worst, "tolerance": _SLOPE_TOL}, ctx.grid_echo(), []


def _check_growth_scaling(ctx: _SuiteContext):
    y = ctx.grid
    w = ctx.grid_derivatives()[0]
    worst = -math.inf
    for a in _SCALE_FACTORS:
        gap = a * w - np.asarray(ctx.sg.derivative(a * y, 0), dtype=float)
        worst = max(worst, float(gap.max()))
    status = "pass" if worst <= _SCALING_TOL else "fail"
    measured = {"max_violation": worst, "tolerance": _SCALING_TOL,
                "scale_factors": list(_SCALE_FACTORS)}
    return status, measured, ctx.grid_echo(), []


def _check_derivative_envelope(ctx: _SuiteContext):
    y = ctx.grid
    w = ctx.grid_derivatives()[0]
    worst = 0.0
    for n in range(1, 7):
        dn = ctx.grid_derivatives()[n]
        bound = 2.0 ** (n + 1) * math.factorial(n) * w / y ** n
        worst = max(worst, float(np.max(np.abs(dn) / bound)))
    status = "pass" if worst <= 1.0 + _ENVELOPE_TOL else "fail"
    measured = {"max_ratio": worst, "n_max": 6, "tolerance": _ENVELOPE_TOL}
    return status, measured, ctx.grid_echo(), []


def _check_envelope_bracket(ctx: _SuiteContext):
    y = ctx.grid
    w = ctx.grid_derivatives()[0]
    om = np.asarray(ctx.sg.target.omega(y), dtype=float)
    om_sq = np.asarray(ctx.sg.target.omega(y * y), dtype=float)
    c1 = float(np.min(w / om))
    c2 = float(np.max(w / (om_sq + 1.0)))
    c3 = float(np.max(w / y))
    ok = c1 > 0.0 and math.isfinite(c2) and math.isfinite(c3)
    measured = {"lower_ratio_min": c1, "upper_ratio_max": c2,
                "linear_ratio_max": c3}
    return ("pass" if ok else "fail"), measured, ctx.grid_echo(), []


# -- main-term remainder battery ----------------------------------------------


def _scaled_remainders(ctx: _SuiteContext, xs: Sequence[float]) -> List[float]:
    out = []
    for x in xs:
        gap = eval_T_scaled(ctx.sg, x, ctx.config.quad_config) - eval_T_main(ctx.sg, x)
        out.append(float(abs(gap)) * float(ctx.sg.V(x)) ** 2)
    return out


def _check_main_term_remainder(ctx: _SuiteContext):
    r = _scaled_remainders(ctx, _REMAINDER_XS)
    mx, med = max(r), statistics.median(r)
    status = "pass" if mx <= _REMAINDER_RATIO_LIMIT * med else "fail"
    measured = {"remainder_scaled": r, "max": mx, "median": med,
                "ratio": mx / med, "limit_ratio": _REMAINDER_RATIO_LIMIT}
    return status, measured, {"x": list(_REMAINDER_XS)}, []


def _simpson(y: np.ndarray, h: float) -> float:
    # uniform composite Simpson rule on an odd number of samples spaced h
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _check_quadrature_oracle(ctx: _SuiteContext):
    # dense uniform Simpson rule: same integrand, none of the panel machinery
    diffs, ppo = [], []
    for x in _ORACLE_XS:
        n = 40001
        u = np.linspace(0.0, x, n)
        vals = np.empty(n)
        w = np.asarray(ctx.sg.W(u[1:]), dtype=float)
        vals[1:] = np.exp(u[1:] - x) * np.cos(u[1:] * w)
        vals[0] = math.exp(-x)  # integrand limit at u = 0: cos(0) = 1
        ref = _simpson(vals, x / (n - 1))
        diffs.append(abs(ref - eval_T_scaled(ctx.sg, x, ctx.config.quad_config)))
        ppo.append(n / (float(ctx.sg.phase(x)) / (2.0 * math.pi)))
    status = "pass" if max(diffs) <= _ORACLE_TOL else "fail"
    measured = {"abs_diff": diffs, "max_abs_diff": max(diffs),
                "tolerance": _ORACLE_TOL,
                "min_points_per_oscillation": min(ppo)}
    return status, measured, {"x": list(_ORACLE_XS), "points": 40001}, []


# -- continuation battery -----------------------------------------------------


def _check_overlap(ctx: _SuiteContext):
    res, ims = (1.0, 2.0, 3.0), (0.0, 1.0, -1.0, 5.0, -5.0)
    worst = 0.0
    for re in res:
        for im in ims:
            s = complex(re, im)
            fc = contour_F(ctx.sg, ctx.path, s)
            fd = direct_F(ctx.sg, s, 42.0 / re, ctx.config.quad_config)
            worst = max(worst, abs(fc - fd) / (1.0 + abs(fd)))
    status = "pass" if worst <= _OVERLAP_TOL else "fail"
    measured = {"max_error": worst, "tolerance": _OVERLAP_TOL}
    grids = {"re_s": list(res), "im_s": list(ims),
             "r_trunc": [42.0 / re for re in res]}
    return status, measured, grids, []


def _check_path_independence(ctx: _SuiteContext):
    ss = (2.0 + 0.0j, -1.0 + 0.0j, -2.0 + 3.0j)
    doubled = replace(ctx.path, R0=2.0 * ctx.path.R0)
    worst = 0.0
    for s in ss:
        worst = max(worst, abs(contour_F(ctx.sg, ctx.path, s)
                               - contour_F(ctx.sg, doubled, s)))
    status = "pass" if worst <= _PATH_TOL else "fail"
    measured = {"max_diff": worst, "tolerance": _PATH_TOL,
                "anchors": [ctx.path.R0, doubled.R0]}
    grids = {"s": [[s.real, s.imag] for s in ss]}
    return status, measured, grids, []


def _check_holomorphy(ctx: _SuiteContext):
    # circle points near -2+3.5i carry integrand humps whose cancellation
    # noise fits this check's 1e-6 relative tolerance but not tighter
    # budgets, so the circles run under a matching evaluation budget
    path = ContourPath(quad_config=QuadratureConfig(abs_tol=_HOLOMORPHY_TOL))
    centers = (-1.0 + 0.0j, 0.0 + 0.0j, 1.0 + 0.0j, -2.0 + 3.0j)
    worst = 0.0
    for c in centers:
        samples: List[complex] = []

        def G(s):
            v = laplace_cos(ctx.sg, path, s)
            samples.append(v)
            return v

        z = cauchy_circle(G, c, 0.5, N=64)
        worst = max(worst, abs(z) / max(abs(v) for v in samples))
    status = "pass" if worst <= _HOLOMORPHY_TOL else "fail"
    measured = {"max_relative": worst, "tolerance": _HOLOMORPHY_TOL}
    grids = {"centers": [[c.real, c.imag] for c in centers],
             "radius": 0.5, "points": 64, "abs_tol": _HOLOMORPHY_TOL}
    return status, measured, grids, []


def _check_pole_residue(ctx: _SuiteContext):
    z = cauchy_circle(lambda s: laplace_dS(ctx.sg, ctx.path, s), 1.0, 0.3, N=64)
    err = abs(z - 1.0)
    status = "pass" if err <= _RESIDUE_TOL else "fail"
    measured = {"residue_re": z.real, "residue_im": z.imag,
                "abs_error": err, "tolerance": _RESIDUE_TOL}
    grids = {"center": [1.0, 0.0], "radius": 0.3, "points": 64}
    return status, measured, grids, []


# -- oscillation witness batteries --------------------------------------------


def _remainder_probes(ctx: _SuiteContext, limit: int = 12) -> np.ndarray:
    # pi-knots inside the witness window: the main term vanishes there,
    # so the evaluations measure the remainder alone
    x_lo, x_hi = ctx.config.x_range
    knots = phase_panels(ctx.sg, x_lo, x_hi).knots
    if knots.size == 0:
        return knots
    step = max(1, knots.size // limit)
    return knots[::step][:limit]


def _witness_record(ctx: _SuiteContext, witnesses, c: float,
                    expected_sign: Callable[[int], int],
                    delta: float, remainder_constant: float, probes: int):
    n = len(witnesses)
    pos = sum(1 for w in witnesses if w.sign > 0)
    neg = sum(1 for w in witnesses if w.sign < 0)
    alternating = signs_alternate(witnesses)
    parity_ok = all(w.sign == expected_sign(w.k) for w in witnesses)
    v = np.asarray(ctx.sg.V(np.array([w.x_k for w in witnesses])), dtype=float)
    rho_vals = np.asarray(ctx.rho(np.array([w.x_k for w in witnesses])), dtype=float)
    mags = np.abs([w.deviation for w in witnesses]) * rho_vals * v
    window_lo, window_hi = 1.0 - delta, 1.0 + delta
    window_ok = bool(np.all((mags >= window_lo) & (mags <= window_hi)))
    healthy = alternating and parity_ok and c > 0.0 and window_ok
    if not healthy:
        status = "fail"
    elif n < 2 * _N_WITNESSES:
        status = "warn"  # verified, but on thinner data than requested
    else:
        status = "pass"
    measured = {
        "witness_count": n,
        "positive_count": pos,
        "negative_count": neg,
        "c_measured": float(c),
        "alternating": alternating,
        "parity_ok": parity_ok,
        "magnitude_min": float(mags.min()),
        "magnitude_max": float(mags.max()),
        "remainder_constant": float(remainder_constant),
        "delta": float(delta),
        "window": [window_lo, window_hi],
    }
    grids = {"x_range": [ctx.config.x_range[0], ctx.config.x_range[1]],
             "witnesses_requested": 2 * _N_WITNESSES,
             "remainder_probes": probes}
    return status, measured, grids, list(witnesses)


def _check_cumulative_oscillation(ctx: _SuiteContext):
    witnesses, c = omega_pm_witnesses(ctx.sg, ctx.rho, ctx.config.x_range,
                                      ctx.config.quad_config)
    probes = _remainder_probes(ctx)
    rem = _scaled_remainders(ctx, [float(z) for z in probes])
    c_rem = max(rem) if rem else 0.0
    v = np.asarray(ctx.sg.V(np.array([w.x_k for w in witnesses])), dtype=float)
    delta = c_rem / float(v.min()) + float(v.max()) * math.exp(-ctx.config.x_range[0])
    return _witness_record(ctx, witnesses, c,
                           lambda k: 1 if k % 2 == 0 else -1,
                           delta, c_rem, len(probes))


def _check_tail_oscillation(ctx: _SuiteContext):
    witnesses, c = tau_witnesses(ctx.sg, ctx.rho, ctx.config.x_range,
                                 ctx.config.quad_config)
    probes = _remainder_probes(ctx)
    rem = [abs(eval_tau(ctx.sg, float(z), ctx.config.quad_config))
           * float(ctx.sg.V(float(z))) ** 2 for z in probes]
    c_rem = max(rem) if rem else 0.0
    v = np.asarray(ctx.sg.V(np.array([w.x_k for w in witnesses])), dtype=float)
    delta = c_rem / float(v.min())
    return _witness_record(ctx, witnesses, c,
                           lambda k: -1 if k % 2 == 0 else 1,
                           delta, c_rem, len(probes))


# -- registry and runner ------------------------------------------------------

_REGISTRY: Tuple[Tuple[str, Tuple], ...] = (
    ("lemma21", (
        ("growth_slope_sign", "Lemma 2.1(c)", _check_growth_slope),
        ("growth_scaling_lower_bound", "Lemma 2.1(b)", _check_growth_scaling),
        ("derivative_envelope", "Lemma 2.1(d)", _check_derivative_envelope),
        ("growth_envelope_bracket", "Lemma 2.1(a)", _check_envelope_bracket),
    )),
    ("lemma22", (
        ("main_term_remainder", "Lemma 2.2", _check_main_term_remainder),
        ("quadrature_cross_check", "Eq. (def T)", _check_quadrature_oracle),
    )),
    ("continuation", (
        ("continuation_overlap", "Lemma 2.3", _check_overlap),
        ("path_independence", "Lemma 2.3", _check_path_independence),
        ("transform_holomorphy", "Lemma 2.3", _check_holomorphy),
    )),
    ("residue", (
        ("pole_residue", "Example 3.1", _check_pole_residue),
    )),
    ("witness_s", (
        ("cumulative_oscillation", "Theorem 1.1(i)", _check_cumulative_oscillation),
    )),
    ("witness_tau", (
        ("tail_oscillation", "Theorem 1.1(ii)", _check_tail_oscillation),
    )),
)


def _null_non_finite(measured: Dict[str, object]) -> List[str]:
    # JSON has no NaN or Infinity: null them, one list level deep, and
    # return the keys that held one
    def bad(v):
        return isinstance(v, float) and not math.isfinite(v)

    keys = [k for k, v in measured.items()
            if bad(v) or (isinstance(v, list) and any(map(bad, v)))]
    for k in keys:
        v = measured[k]
        measured[k] = [None if bad(x) else x for x in v] if isinstance(v, list) else None
    return keys


def run_suite(config: Optional[SuiteConfig] = None) -> VerificationReport:
    """Run the enabled check groups in registry order and report.

    Each record is timed individually; a check that raises is recorded
    as fail with the error message and the run continues, and so is a
    check whose measurements include a NaN or an infinity (written as
    null). Configuration problems (bad rate, unknown check ids) raise
    before any check runs.
    """
    cfg = config or SuiteConfig()
    validate_rate(cfg.rate)
    ctx = _SuiteContext(cfg)
    records: List[CheckRecord] = []
    for group, checks in _REGISTRY:
        if group not in cfg.checks:
            continue
        for name, anchor, fn in checks:
            t0 = time.perf_counter()
            try:
                status, measured, grids, witnesses = fn(ctx)
                rec = CheckRecord(name=name, group=group, anchor=anchor,
                                  status=status, measured=measured,
                                  grids=grids, witnesses=witnesses)
            except Exception as exc:
                rec = CheckRecord(name=name, group=group, anchor=anchor,
                                  status="fail",
                                  error=f"{type(exc).__name__}: {exc}")
            non_finite = _null_non_finite(rec.measured)
            if non_finite:
                rec.status = "fail"
                rec.error = f"non-finite measurement: {', '.join(non_finite)}"
            rec.seconds = time.perf_counter() - t0
            records.append(rec)
    return VerificationReport(records=records, config=cfg.echo())
