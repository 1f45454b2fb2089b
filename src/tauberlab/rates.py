"""Decay rates and the growth targets built from them.

A rate rho is a positive function tending to zero. Its non-increasing
envelope rho_tilde feeds the growth-target recipe

    omega(x) = min(sqrt(x), 1 / rho_tilde(sqrt(x)))

which caps omega at sqrt(x) while forcing it to infinity as slowly as the
rate allows. Everything downstream (smoothing, oscillation, continuation)
consumes omega through the GrowthTarget handle defined here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

CATALOG_KINDS = ("log", "pow", "loglog", "table")


@dataclass(frozen=True)
class RateFunction:
    """A decay rate: catalog entry or user table.

    `kind` identifies the catalog entry ("log", "pow", "loglog") or "table".
    `alpha` is the exponent for "pow". Tabulated rates carry their (x, rho)
    samples and interpolate linearly with flat extension on both sides.
    """

    kind: str
    alpha: Optional[float] = None
    table: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in CATALOG_KINDS:
            raise ValueError(f"unknown rate kind {self.kind!r}")
        if self.kind == "pow":
            if self.alpha is None or not (0.0 < self.alpha <= 0.5):
                raise ValueError("pow rate needs alpha in (0, 1/2]")
        if self.kind == "table":
            if not self.table or len(self.table) == 0:
                raise ValueError("empty table")
            xs = np.array([p[0] for p in self.table], dtype=float)
            rs = np.array([p[1] for p in self.table], dtype=float)
            bad = np.nonzero(~(np.isfinite(xs) & np.isfinite(rs)))[0]
            if bad.size:  # NaN would slip through every comparison below
                i = int(bad[0])
                raise ValueError(f"non-finite table row {i}: "
                                 f"x = {float(xs[i])!r}, rate = {float(rs[i])!r}")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("table x values must be strictly increasing")
            if np.any(rs <= 0):
                raise ValueError("non-positive rate sample in table")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "log":
            out = 1.0 / np.log(math.e + x)
        elif self.kind == "pow":
            out = (1.0 + x) ** (-self.alpha)
        elif self.kind == "loglog":
            out = 1.0 / np.log(math.e + np.log(math.e + x))
        else:
            xs = np.array([p[0] for p in self.table], dtype=float)
            rs = np.array([p[1] for p in self.table], dtype=float)
            out = np.interp(x, xs, rs)
        return out if out.ndim else float(out)

    @property
    def monotone_non_increasing(self) -> bool:
        # Catalog closed forms are non-increasing by inspection; tables are not trusted.
        return self.kind != "table"


def catalog(kind: str, alpha: Optional[float] = None) -> RateFunction:
    """Construct a catalog rate. "log" is the default choice elsewhere."""
    if kind == "table":
        raise ValueError("tabulated rates come from load_table()")
    return RateFunction(kind=kind, alpha=alpha)


def load_table(path) -> RateFunction:
    """Read a two-column CSV (x, rho) with optional header."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec or not rec[0].strip():
                continue
            try:
                x, r = float(rec[0]), float(rec[1])
            except (ValueError, IndexError):
                if not rows:
                    continue  # header line
                raise ValueError(f"bad table row: {rec!r}")
            rows.append((x, r))
    if not rows:
        raise ValueError("empty table")
    return RateFunction(kind="table", table=tuple(rows))


def sup_envelope(rho: RateFunction) -> Callable:
    """Non-increasing envelope rho_tilde(x) = sup over y >= x of rho(y).

    Catalog rates are already non-increasing, so the envelope is the rate
    itself. A tabulated rate is linear between samples, so its sup over
    [x, inf) is the larger of rho(x) and the backward running maximum of
    the samples at or beyond x (the last value past the final sample).
    """
    if rho.monotone_non_increasing:
        return rho
    xs = np.array([p[0] for p in rho.table], dtype=float)
    rs = np.array([p[1] for p in rho.table], dtype=float)
    env = np.maximum.accumulate(rs[::-1])[::-1]

    def rho_tilde(x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(xs, x, side="left")
        out = np.maximum(rho(x), env[np.minimum(idx, len(env) - 1)])
        return out if out.ndim else float(out)

    return rho_tilde


@dataclass(frozen=True)
class GrowthTarget:
    """omega with its envelope; the handle every smoothing call consumes.

    Construction via growth_target() follows the min-branch recipe; tests
    and degenerate inputs may instantiate directly with arbitrary callables
    (validation is a separate, explicit step).
    """

    rho_tilde: Optional[Callable]
    omega: Callable
    branch_point: Optional[float] = field(default=None, compare=False)

    def __call__(self, x):
        return self.omega(x)


def _find_branch_point(rho_tilde) -> Optional[float]:
    # Crossover of sqrt(x) against 1/rho_tilde(sqrt(x)); None when sqrt wins everywhere.
    def gap(u):
        return math.sqrt(u) - 1.0 / float(rho_tilde(math.sqrt(u)))

    lo, hi = 1e-12, 1e12
    if gap(lo) >= 0 or gap(hi) <= 0:
        return None
    # bisection keeps gap(lo) < 0 < gap(hi): geometric midpoints while the
    # bracket spans over an octave, then plain ones down to adjacent doubles
    while True:
        mid = math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if -gap(lo) <= gap(hi) else hi
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid


def growth_target(rho: RateFunction) -> GrowthTarget:
    """Build omega(x) = min(sqrt(x), 1/rho_tilde(sqrt(x))) from a rate."""
    rho_tilde = sup_envelope(rho)

    def omega(x):
        x = np.asarray(x, dtype=float)
        r = np.asarray(rho_tilde(np.sqrt(x)), dtype=float)
        if np.any(r <= 0):
            raise ValueError("rate envelope vanished; invalid rate")
        out = np.minimum(np.sqrt(x), 1.0 / r)
        return out if out.ndim else float(out)

    return GrowthTarget(
        rho_tilde=rho_tilde,
        omega=omega,
        branch_point=_find_branch_point(rho_tilde),
    )


def _log_grid(lo, hi, n):
    return np.logspace(math.log10(lo), math.log10(hi), n)


def validate_rate(rho: RateFunction, lo=1e-2, hi=1e6, n=121):
    """Check positivity and decay-to-zero on a log-spaced grid.

    Decay is accepted when the last decade's maximum sits below the first
    decade's minimum. Raises ValueError on violation.
    """
    grid = _log_grid(lo, hi, n)
    vals = np.asarray(rho(grid), dtype=float)
    if np.any(vals <= 0):
        raise ValueError("rate must be positive")
    decade = max(1, int(round(n / math.log10(hi / lo))))
    if vals[-decade:].max() >= vals[:decade].min():
        raise ValueError("rate does not tend to zero on the test grid")


def validate_growth_target(gt: GrowthTarget, lo=1e-2, hi=1e6, n=121):
    """Grid checks: envelope non-increasing, omega non-decreasing, omega <= sqrt, omega unbounded."""
    grid = _log_grid(lo, hi, n)
    om = np.asarray(gt.omega(grid), dtype=float)
    if np.any(np.diff(om) < -1e-12 * np.abs(om[:-1])):
        raise ValueError("omega must be non-decreasing")
    if np.any(om > np.sqrt(grid) * (1 + 1e-12)):
        raise ValueError("omega must stay below sqrt(x)")
    decade = max(2, int(round(n / math.log10(hi / lo))))
    # growth check: the last decade must clear both the first and the previous one
    if om[-decade:].min() <= om[:decade].max():
        raise ValueError("omega must grow without bound on the test grid")
    if om[-decade:].min() <= om[-2 * decade : -decade].max() * (1.0 + 1e-9):
        raise ValueError("omega must grow without bound on the test grid")
    if gt.rho_tilde is not None:
        rt = np.asarray(gt.rho_tilde(grid), dtype=float)
        if np.any(np.diff(rt) > 1e-12 * np.abs(rt[:-1])):
            raise ValueError("rate envelope must be non-increasing")
