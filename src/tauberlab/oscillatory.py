"""Oscillatory integrals driven by the monotone phase phi(u) = u W(u).

Since phi' = V > 0, the phase crosses each multiple of pi/2 exactly once.
Every consumer reads those crossings from one knot table per evaluator:
the roots u_j of phi(u_j) = j pi/2 for integers j >= 1. The even j are
the pi-knots that bound the quadrature panels, and the odd j the
half-knots where sin(phi) peaks and the witnesses sit.

The table is filled by segments (e_(m-1), e_m] of a fixed doubling
lattice e_m = 2500 * 2^m, m an integer, whose edges include the tau
table's truncation points. Each segment is one memo entry on the
evaluator, solved once, on first use, from its two endpoints alone, so a
knot's bits depend neither on query order nor on thread count, and a
query on [0, x] solves nothing past the lattice edge above x. Within a
segment one vectorized solve seeds every root by interpolating phi
sampled on the segment, then takes Newton steps on phi' = V, with
bisection steps guarding each root inside its bracket.

Panels bounded by the pi-knots keep every integrand single-signed in its
cosine factor, so plain Gauss-Legendre per panel converges fast and
the panel sums are compensated exactly (math.fsum). The panels of
T_scaled up to the last pi-knot below x, their Gauss nodes and cos(phi)
there do not depend on x, so they are kept per lattice segment as well,
and a call computes only e^(u - x) on them.

Exponentially weighted quantities never materialize e^x: integrands are
written against e^(u - x) <= 1, and the cumulative integral leaves this
module already scaled (T_scaled = e^(-x) T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .quadrature import (
    QuadratureConfig,
    QuadratureError,
    gauss_legendre,
    grade_origin,
    refine_edges,
)
from .smoothing import SmoothedGrowth

_HALF_PI = 0.5 * math.pi
# largest |phi(u_j) - j pi/2| a knot may keep
KNOT_RESIDUAL = 1e-9
# lattice edges e_m = 2500 * 2^m; below e_-60 (~2e-15) no segment is built
_LATTICE_BASE = 2500.0
_LATTICE_MIN = -60
# Newton stops once its step is below this fraction of u (a few ulps);
# bisection alone shrinks any segment bracket that far in 64 steps
_STEP_FLOOR = 2.0 ** -50
_MAX_STEPS = 64


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


def _phase_roots(sg: SmoothedGrowth, targets: np.ndarray, lo: float,
                 hi: float) -> np.ndarray:
    """Solve phi(u) = t for each ascending target t in (phi(lo), phi(hi)].

    phi sampled at evenly spaced points of [lo, hi] brackets every root
    and seeds it by linear interpolation. Newton steps on phi' = V then
    shrink each bracket; a step that would leave its bracket is replaced
    by the bracket's midpoint. All of it is vectorized over the targets.
    Raises QuadratureError naming the first target whose residual stays
    above KNOT_RESIDUAL.
    """
    if targets.size == 0:
        return np.zeros(0)
    grid = np.linspace(lo, hi, targets.size + 2)
    p = sg.phase(grid)
    i = np.clip(np.searchsorted(p, targets), 1, grid.size - 1)
    a, b = grid[i - 1], grid[i]
    u = a + (targets - p[i - 1]) * (b - a) / (p[i] - p[i - 1])
    act = np.arange(targets.size)
    for _ in range(_MAX_STEPS):
        uu = u[act]
        w0, w1 = sg.scaled_orders(uu, (0, 1))
        r = uu * w0 - targets[act]
        aa = np.where(r < 0, uu, a[act])
        bb = np.where(r > 0, uu, b[act])
        step = r / (w0 + w1)
        nxt = uu - step
        nxt = np.where((nxt > aa) & (nxt < bb), nxt, 0.5 * (aa + bb))
        done = np.abs(step) <= _STEP_FLOOR * uu
        u[act] = np.where(done, uu, nxt)
        a[act], b[act] = aa, bb
        act = act[~done]
        if act.size == 0:
            break
    resid = np.abs(sg.phase(u) - targets)
    bad = np.flatnonzero(~(resid <= KNOT_RESIDUAL))
    if bad.size:
        t = float(targets[bad[0]])
        raise QuadratureError(
            f"phase knot phi = {round(t / _HALF_PI)} pi/2 missed by {resid[bad[0]]:.1e} "
            f"(limit {KNOT_RESIDUAL:.0e}) in [{lo:g}, {hi:g}]"
        )
    return u


def _edge(m: int) -> float:
    return math.ldexp(_LATTICE_BASE, m)


def _segment(sg: SmoothedGrowth, m: int) -> Tuple[int, np.ndarray]:
    """(j0, u): the knots u_j, j = j0, j0 + 1, ..., inside (e_(m-1), e_m]."""

    def build():
        lo, hi = _edge(m - 1), _edge(m)
        p_lo, p_hi = sg.phase(np.array([lo, hi]))
        j0 = math.floor(p_lo / _HALF_PI) + 1
        j = np.arange(j0, math.floor(p_hi / _HALF_PI) + 1)
        return j0, _phase_roots(sg, j * _HALF_PI, lo, hi)

    return sg.memo(("phase_knots", m), build)


def phase_knots(sg: SmoothedGrowth, x0: float, x1: float) -> Tuple[np.ndarray, np.ndarray]:
    """(j, u) for every knot phi(u) = j pi/2 with x0 < u < x1, ascending.

    Reads the segments from the one above x1 down to the one holding x0,
    or, from x0 <= 0, down to the one whose lower edge has phi < pi/2.
    """
    m = max(_LATTICE_MIN, math.ceil(math.log2(x1 / _LATTICE_BASE)))
    while _edge(m) < x1:
        m += 1
    parts = []
    while True:
        j0, u = _segment(sg, m)
        parts.append((j0, u))
        if j0 == 1 or _edge(m - 1) <= x0:
            break
        if m == _LATTICE_MIN:
            raise QuadratureError(f"phase passes pi/2 below u = {_edge(m):.1e}")
        m -= 1
    j = np.concatenate([j0 + np.arange(u.size) for j0, u in reversed(parts)])
    u = np.concatenate([u for _, u in reversed(parts)])
    keep = (u > x0) & (u < x1)
    return j[keep], u[keep]


def phase_panels(sg: SmoothedGrowth, x0: float, x1: float) -> PhasePartition:
    """All u in (x0, x1) with phi(u) on a multiple of pi, ascending."""
    if not (x1 > x0 > 0):
        raise ValueError("phase_panels needs x1 > x0 > 0")
    return PhasePartition(x0=x0, x1=x1, knots=_pi_knots(sg, x0, x1))


def _pi_knots(sg: SmoothedGrowth, x0: float, x1: float) -> np.ndarray:
    j, u = phase_knots(sg, x0, x1)
    return u[j % 2 == 0]


# -- weighted oscillatory integrals -----------------------------------------


def _width_cap(config: QuadratureConfig) -> float:
    # finer panels when the budget is tighter than the default
    return 1.2 if config.rel_tol >= 1e-12 else 0.6


def _gauss_panels(edges: np.ndarray, order: int = 20):
    """Gauss-Legendre nodes, one row per panel, and half-width * weight."""
    gx, gw = gauss_legendre(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return mid[:, None] + half[:, None] * gx[None, :], half[:, None] * gw[None, :]


def _panel_quad(edges: np.ndarray, values, order: int = 20):
    """Per-panel Gauss-Legendre integrals of values(u-array) over each panel."""
    u, hw = _gauss_panels(edges, order)
    return (values(u.ravel()).reshape(u.shape) * hw).sum(axis=1)


def _segment_pi_knots(sg: SmoothedGrowth, m: int) -> np.ndarray:
    j0, u = _segment(sg, m)
    return u[(j0 + np.arange(u.size)) % 2 == 0]


def _cos_block(sg: SmoothedGrowth, cap: float, m: int):
    """The panels of [0, x] that end at a pi-knot of segment m, with cos(phi).

    (right edges, Gauss nodes u, cos(phi(u)), half-width * weight), one
    row per panel: the panels between the pi-knot before the segment and
    each pi-knot in it, refined to width cap, the first one graded toward
    0. These are the panels, nodes and factors that panel_contributions
    lays out for every x past them, so one memo entry serves them all.
    """

    def build():
        knots = _segment_pi_knots(sg, m)
        prev, k = None, m
        while knots.size and prev is None and _segment(sg, k)[0] > 1 and k > _LATTICE_MIN:
            k -= 1
            below = _segment_pi_knots(sg, k)
            prev = float(below[-1]) if below.size else None
        if knots.size == 0:
            edges = knots  # no panel ends in this segment
        elif prev is None:
            edges = grade_origin(refine_edges(np.concatenate([[0.0], knots]), cap))
        else:
            edges = refine_edges(np.concatenate([[prev], knots]), cap)
        u, hw = _gauss_panels(edges)
        cos_phi = np.cos(u.ravel() * sg.W(u.ravel())).reshape(u.shape) if u.size else u
        return edges[1:], u, cos_phi, hw

    return sg.memo(("cos_block", cap, m), build)


def panel_contributions(sg: SmoothedGrowth, x: float,
                        config: Optional[QuadratureConfig] = None) -> np.ndarray:
    """Scaled per-panel integrals of e^(u-x) cos(phi(u)) over [0, x], ascending in u.

    The panels up to the last pi-knot below x come from the segments'
    cos blocks, so only e^(u-x) is computed per call there; the panels
    from that knot to x are laid out for x alone. Each panel's value has
    the bits a single layout of all of [0, x] would give it.
    """
    cfg = config or sg.quad_config
    if x < 0:
        raise ValueError("need x >= 0")
    if x == 0.0:
        return np.zeros(0)
    cap = _width_cap(cfg)
    knots = _pi_knots(sg, 0.0, x)

    def integrand(u):
        return np.exp(u - x) * np.cos(u * sg.W(u))

    if knots.size == 0:
        return _panel_quad(grade_origin(refine_edges(np.array([0.0, x]), cap)), integrand)
    last = float(knots[-1])
    m = max(_LATTICE_MIN, math.ceil(math.log2(last / _LATTICE_BASE)))
    while _edge(m) < last:
        m += 1
    vals = [_panel_quad(refine_edges(np.array([last, x]), cap), integrand)]
    top = m
    while True:
        right, u, cos_phi, hw = _cos_block(sg, cap, m)
        # the top block stops at the panel ending on `last`
        n = int(np.searchsorted(right, last, side="right")) if m == top else right.size
        vals.append(((np.exp(u[:n] - x) * cos_phi[:n]) * hw[:n]).sum(axis=1))
        if _segment(sg, m)[0] == 1 or m == _LATTICE_MIN:
            break
        m -= 1
    return np.concatenate(vals[::-1])


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
    w0, w1, w2 = sg.scaled_orders(y, (0, 1, 2))
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
        y = _LATTICE_BASE  # lattice edges, so each piece reads whole knot segments
        seg_edges: list = []
        seg_vals: list = []
        prev = None
        while True:
            knots = _pi_knots(sg, y_prev, y)
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
    knots = _pi_knots(sg, 0.0, R_trunc)
    edges = grade_origin(refine_edges(np.concatenate([[0.0], knots, [R_trunc]]), _width_cap(cfg)))
    vals = _panel_quad(
        edges, lambda u: np.exp((1j * sg.W(u) - s) * u)
    )
    val = complex(math.fsum(vals.real), math.fsum(vals.imag))
    return (val, trunc) if return_error else val
