"""Oscillatory integrals driven by the monotone phase phi(u) = u W(u).

Since phi' = V > 0, the phase crosses each multiple of pi exactly once.
Panels bounded by those crossings keep every integrand single-signed in
its cosine factor, so plain Gauss-Legendre per panel converges fast and
the panel sums are compensated exactly (math.fsum).

Exponentially weighted quantities never materialize e^x: integrands are
written against e^(u - x) <= 1, and the cumulative integral leaves this
module already scaled (T_scaled = e^(-x) T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .quadrature import (
    QuadratureConfig,
    QuadratureError,
    gauss_legendre,
    grade_origin,
    refine_edges,
)
from .smoothing import SmoothedGrowth


@dataclass(frozen=True)
class PhasePartition:
    """Knots of phi across multiples of pi inside [x0, x1]."""

    x0: float
    x1: float
    knots: np.ndarray
    root_tol: float = 1e-10

    def edges(self) -> np.ndarray:
        """Panel edges: interval ends plus interior knots."""
        return np.concatenate([[self.x0], self.knots, [self.x1]])


def _phase_targets(sg: SmoothedGrowth, x0: float, x1: float, offset: float = 0.0):
    # multiples of pi (shifted by offset) strictly inside (phi(x0), phi(x1))
    p0 = sg.phase(x0) if x0 > 0 else 0.0
    p1 = sg.phase(x1)
    k_lo = math.floor((p0 - offset) / math.pi) + 1
    k_hi = math.ceil((p1 - offset) / math.pi) - 1
    ks = np.arange(k_lo, k_hi + 1)
    t = offset + math.pi * ks
    keep = (t > p0) & (t < p1)
    return ks[keep], t[keep]


def _phase_roots(sg: SmoothedGrowth, targets: np.ndarray, lo: float, hi: float,
                 root_tol: float = 1e-10) -> np.ndarray:
    """Solve phi(u) = target for each ascending target in (phi(lo), phi(hi)).

    Chunked vectorized Newton from linear seeds (spacing is ~pi/V), with a
    bracketed fallback for any straggler. phi is strictly increasing, so
    roots are simple and ordered.
    """
    if targets.size == 0:
        return np.zeros(0)
    roots = np.empty(targets.size)
    anchor_u = max(lo, 1e-12)
    anchor_p = sg.phase(anchor_u) if lo > 0 else 0.0
    for i in range(0, targets.size, 512):
        t = targets[i : i + 512]
        v0 = max(float(sg.V(anchor_u)), 1e-12)
        u = anchor_u + (t - anchor_p) / v0
        u = np.clip(u, anchor_u, hi)
        for _ in range(4):
            # Newton on phi(u) = u W(u) with phi' = V = W + u W'; each order once
            w0 = sg.scaled(u, 0)
            step = (u * w0 - t) / (w0 + sg.scaled(u, 1))
            u = np.clip(u - step, 0.5 * anchor_u, 2.0 * hi)
        miss = np.abs(sg.phase(u) - t) > 1e-9 * (1.0 + np.abs(t))
        for j in np.nonzero(miss)[0]:
            if j > 0:
                lo_b = float(u[j - 1])
            elif i > 0:
                lo_b = float(roots[i - 1])
            else:
                lo_b = max(lo, 1e-12)
            while sg.phase(lo_b) > t[j] and lo_b > 1e-12:
                lo_b *= 0.5
            hi_b = lo_b + 4.0 * math.pi / max(float(sg.V(lo_b)), 1e-12)
            while sg.phase(hi_b) < t[j]:
                hi_b += 4.0 * math.pi / max(float(sg.V(hi_b)), 1e-12)
            u[j] = brentq(lambda q: float(sg.phase(q)) - t[j], lo_b, hi_b, rtol=1e-13)
        roots[i : i + 512] = u
        anchor_u, anchor_p = float(u[-1]), float(t[-1])
    if np.any(np.diff(roots) <= 0):
        raise QuadratureError("phase root ordering broke; root finder did not converge")
    err = np.abs(sg.phase(roots) - targets)
    if np.any(err > root_tol * (1.0 + np.abs(targets)) * 10):
        raise QuadratureError("phase roots exceeded the requested tolerance")
    return roots


def phase_panels(sg: SmoothedGrowth, x0: float, x1: float,
                 root_tol: float = 1e-10) -> PhasePartition:
    """All u in (x0, x1) with phi(u) on a multiple of pi, ascending."""
    if not (x1 > x0 > 0):
        raise ValueError("phase_panels needs x1 > x0 > 0")
    _, targets = _phase_targets(sg, x0, x1)
    knots = _phase_roots(sg, targets, x0, x1, root_tol)
    return PhasePartition(x0=x0, x1=x1, knots=knots, root_tol=root_tol)


# -- weighted oscillatory integrals -----------------------------------------


def _width_cap(config: QuadratureConfig) -> float:
    # finer panels when the budget is tighter than the default
    return 1.2 if config.rel_tol >= 1e-12 else 0.6


def _panel_quad(edges: np.ndarray, values, order: int = 20):
    """Per-panel Gauss-Legendre integrals of values(u-array) over each panel."""
    gx, gw = gauss_legendre(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    u = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    g = values(u).reshape(mid.size, order)
    return (g * (half[:, None] * gw[None, :])).sum(axis=1)


def panel_contributions(sg: SmoothedGrowth, x: float,
                        config: Optional[QuadratureConfig] = None) -> np.ndarray:
    """Scaled per-panel integrals of e^(u-x) cos(phi(u)) over [0, x], ascending in u."""
    cfg = config or sg.quad_config
    if x < 0:
        raise ValueError("need x >= 0")
    if x == 0.0:
        return np.zeros(0)
    knots = phase_panels(sg, min(1e-9, x / 2), x).knots if x > 1e-9 else np.zeros(0)
    edges = grade_origin(refine_edges(np.concatenate([[0.0], knots, [x]]), _width_cap(cfg)))
    return _panel_quad(edges, lambda u: np.exp(u - x) * np.cos(u * sg.W(u)))


def eval_T_scaled(sg: SmoothedGrowth, x: float,
                  config: Optional[QuadratureConfig] = None) -> float:
    """e^(-x) * integral over [0, x] of e^u cos(u W(u)) du."""
    return math.fsum(panel_contributions(sg, x, config))


def eval_T_main(sg: SmoothedGrowth, x: float) -> float:
    """Leading term sin(phi(x)) / V(x) of the scaled integral."""
    if x <= 0:
        raise ValueError("need x > 0")
    return math.sin(sg.phase(x)) / sg.V(x)


# -- tail integral tau -------------------------------------------------------


def _tau_tail(sg: SmoothedGrowth, y: float) -> float:
    # two integrations by parts of the tail from y; error falls as ~1/(y V^2) per step
    w0, w1, w2 = (sg.scaled(y, n) for n in range(3))
    phi, v, v1 = y * w0, w0 + w1, (2.0 * w1 + w2) / y
    return -math.sin(phi) / v + math.cos(phi) * v1 / v**3


class _TauTable:
    """Suffix sums of cos(phi) panel integrals from a base point out to Y.

    Built once per (evaluator, budget); queries then cost one partial
    panel. The truncation point doubles until the tail estimate moves by
    less than the budget, which is the measured (not modeled) error.
    """

    def __init__(self, sg: SmoothedGrowth, budget: float, cap: float):
        self.sg = sg
        self.budget = budget
        y_prev = 0.0
        y = 2500.0
        seg_edges: list = []
        seg_vals: list = []
        prev = None
        while True:
            lo = max(y_prev, 1e-9)
            knots = _phase_roots(sg, _phase_targets(sg, lo, y)[1], lo, y)
            edges = grade_origin(refine_edges(np.concatenate([[y_prev], knots, [y]]), 3.0))
            seg_edges.append(edges)
            seg_vals.append(_panel_quad(edges, lambda u: np.cos(u * sg.W(u))))
            total = math.fsum(np.concatenate(seg_vals)) + _tau_tail(sg, y)
            if prev is not None and abs(total - prev) <= 0.5 * budget:
                break
            if 2.0 * y > cap:
                moved = "" if prev is None else f" (last refinement moved {abs(total - prev):.2e})"
                raise QuadratureError(
                    f"tau tail not stable to {budget:.1e} within truncation cap {cap:g}; "
                    f"V grows too slowly for this budget{moved}"
                )
            prev, y_prev, y = total, y, 2.0 * y
        self.y = y
        self.edges = np.concatenate([seg_edges[0]] + [e[1:] for e in seg_edges[1:]])
        vals = np.concatenate(seg_vals)
        # suffix[j] = integral from edges[j] to Y plus the tail correction
        self.suffix = np.concatenate([np.cumsum(vals[::-1])[::-1], [0.0]]) + _tau_tail(sg, y)
        self.stability = abs(total - prev)

    def tau(self, x: float) -> float:
        if x >= self.y:
            return _tau_tail(self.sg, x)
        j = int(np.searchsorted(self.edges, x, side="right"))
        # partial panel [x, edges[j]] then the precomputed suffix
        gx, gw = gauss_legendre(20)
        a, b = x, float(self.edges[j])
        sub = np.linspace(a, b, max(2, int(math.ceil((b - a) / 3.0)) + 1))
        mid = 0.5 * (sub[:-1] + sub[1:])
        half = 0.5 * np.diff(sub)
        u = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
        w = (half[:, None] * gw[None, :]).ravel()
        part = float(np.dot(np.cos(u * self.sg.W(u)), w))
        return part + float(self.suffix[j])


def _tau_table(sg: SmoothedGrowth, config: QuadratureConfig) -> _TauTable:
    budget = max(config.abs_tol, 1e-10)
    key = ("tau_table", budget, config.tail_cutoff)
    return sg.memo(key, lambda: _TauTable(sg, budget, config.tail_cutoff))


def eval_tau(sg: SmoothedGrowth, x: float,
             config: Optional[QuadratureConfig] = None) -> float:
    """tau(x): the convergent improper integral of cos(u W(u)) from x on.

    Finite phase-partitioned quadrature to a truncation point Y plus a
    twice-integrated-by-parts tail; Y doubles until the result is stable
    to the configured budget (floored at 1e-10, about the tail scheme's
    double-precision reach). Raises QuadratureError when the cap arrives
    first, which happens when V grows too slowly for the budget.
    """
    if x < 0:
        raise ValueError("need x >= 0")
    return _tau_table(sg, config or sg.quad_config).tau(x)


# -- direct Laplace integral -------------------------------------------------


def direct_F(sg: SmoothedGrowth, s: complex, R_trunc: float,
             config: Optional[QuadratureConfig] = None, return_error: bool = False):
    """Truncated integral over [0, R_trunc] of e^(i u W(u)) e^(-s u) du.

    Valid on Re s > 0 only (the tail bound is e^(-Re s * R) / Re s); left
    of the axis the bent-contour continuation is the right tool.
    """
    cfg = config or sg.quad_config
    s = complex(s)
    if s.real <= 0:
        raise ValueError("direct_F needs Re s > 0; use the contour continuation instead")
    if math.exp(-s.real * R_trunc) >= cfg.abs_tol:
        raise ValueError(
            f"R_trunc={R_trunc:g} leaves exp(-Re s * R)={math.exp(-s.real * R_trunc):.2e} "
            f"at or above abs_tol={cfg.abs_tol:.1e}"
        )
    trunc = math.exp(-s.real * R_trunc) / s.real
    knots = _phase_roots(sg, _phase_targets(sg, 1e-9, R_trunc)[1], 1e-9, R_trunc)
    edges = grade_origin(refine_edges(np.concatenate([[0.0], knots, [R_trunc]]), _width_cap(cfg)))
    vals = _panel_quad(
        edges, lambda u: np.exp((1j * sg.W(u) - s) * u)
    )
    val = complex(math.fsum(vals.real), math.fsum(vals.imag))
    return (val, trunc) if return_error else val
