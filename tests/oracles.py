"""Independent oracles for the fixed-grid evaluators and the bent path.

The package computes W and every integral on fixed Gauss-Legendre panels.
Most functions here reach the same quantities by a different route,
adaptive quadrature with an explicit error policy, so tests can check the
grid tier against an independent reference. `growth_path_F` reaches the
continued transform along a different contour. `per_x_knots` solves the
phase knots of one interval from scratch, the way every consumer did
before the knot table, and `per_x_T_scaled` and `per_x_direct_F` run the
package's panel quadrature on those knots. Import them as
`from oracles import ...`: `tests/` has no `__init__.py`, so pytest puts
this directory on `sys.path`.
"""

import math
import warnings
from typing import Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from tauberlab import GrowthTarget, QuadratureConfig, QuadratureError, kernel_derivative
from tauberlab.oscillatory import _panel_quad, _width_cap
from tauberlab.quadrature import DEFAULT_CONFIG, grade_origin, panel_nodes, refine_edges

_HALF_PI = 0.5 * math.pi


def integrate(f, a, b, config=None, points=None, limit=2000):
    """Adaptive integral of a real integrand on [a, b].

    Returns (value, abserr). Breakpoints in `points` (e.g. a kink of the
    integrand) are forwarded to the subdivision, and `limit` caps the
    number of subintervals. A result whose reported error exceeds ten
    times the configured budget raises QuadratureError; mild roundoff
    complaints on otherwise-converged results are accepted.
    """
    cfg = config or DEFAULT_CONFIG
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(
            f,
            a,
            b,
            epsabs=cfg.abs_tol,
            epsrel=cfg.rel_tol,
            limit=limit,
            points=points,
            full_output=1,
        )
    value, abserr = out[0], out[1]
    if len(out) > 3:  # QUADPACK flagged trouble; accept only if error is in budget
        budget = 10.0 * max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if not abserr <= budget:
            raise QuadratureError(
                f"integral on [{a}, {b}] did not converge: {out[3].strip()} "
                f"(abserr={abserr:.3e})"
            )
    return value, abserr


def integrate_complex(f, a, b, config=None, points=None):
    """Adaptive integral of a complex integrand, by parts."""
    re, re_err = integrate(lambda t: f(t).real, a, b, config, points)
    im, im_err = integrate(lambda t: f(t).imag, a, b, config, points)
    return complex(re, im), math.hypot(re_err, im_err)


def _theta_breakpoints(target: GrowthTarget, y: float):
    bp = target.branch_point
    if bp is None:
        return None
    t = math.atan2(bp, y)
    return [t] if 0.0 < t < _HALF_PI else None


def smooth(omega: GrowthTarget, y: float, config: Optional[QuadratureConfig] = None) -> float:
    """W(y) by adaptive quadrature of the integral of omega(y tan t) over (0, pi/2)."""
    if y <= 0:
        raise ValueError("smooth needs y > 0")
    om = omega.omega
    val, _ = integrate(
        lambda t: float(om(y * math.tan(t))),
        0.0,
        _HALF_PI,
        config,
        points=_theta_breakpoints(omega, y),
    )
    return val


def smooth_derivative(
    omega: GrowthTarget, n: int, y: float, config: Optional[QuadratureConfig] = None
) -> float:
    """n-th derivative of W at y > 0, integrating omega against the kernel derivative.

    The x-integral is mapped through x = y tan(theta) onto a finite
    interval; the kernel derivative itself comes from the closed form, so
    omega is only ever sampled, never differentiated.
    """
    if n < 1:
        raise ValueError("smooth_derivative needs n >= 1")
    if y <= 0:
        raise ValueError("smooth_derivative needs y > 0")
    om = omega.omega

    def integrand(t):
        x = y * math.tan(t)
        sec2 = 1.0 + (x / y) ** 2
        return float(om(x)) * kernel_derivative(n, x, y) * y * sec2

    val, _ = integrate(
        integrand, 0.0, _HALF_PI, config,
        points=_theta_breakpoints(omega, y),
    )
    return val


def growth_path_F(sg, R0: float, s: complex, R_max: float) -> complex:
    """F(s) on the paper's tilted path, out to R_max.

    Stem [0, R0], arc at R0 to arctan(1/sqrt W(R0)), then the curve
    r exp(i arctan(1/sqrt W(r))) with dz/dr by the chain rule. Every node
    takes the exact sum `kernel_complex`, so by Cauchy's theorem this checks
    `contour_F`'s fixed rays and their proxy on another contour. Needs
    W(R0) > 9 (tilt under arctan(1/3)); raises unless the integrand is dead
    (< 1e-19) at R_max.
    """
    s = complex(s)
    w0 = float(sg.W(R0))
    if not w0 > 9.0:
        raise ValueError(f"growth path needs W(R0) > 9; W({R0:g}) = {w0:.3f}")
    u, wu = panel_nodes(grade_origin(np.linspace(0.0, R0, math.ceil(R0 / 0.1) + 1)), 16)
    total = np.sum(np.exp(1j * u * sg.W(u) - s * u) * wu)
    # graded toward the stem: the phase factor collapses within ~1/(R0 W)
    arc = grade_origin(np.linspace(0.0, math.atan(1.0 / math.sqrt(w0)), 9), levels=30)
    t, wt = panel_nodes(arc, 16)
    z = R0 * np.exp(1j * t)
    total += np.sum(np.exp(1j * z * sg.kernel_complex(z) - s * z) * 1j * z * wt)
    r, wr = panel_nodes(np.linspace(R0, R_max, math.ceil((R_max - R0) / 0.05) + 1), 16)
    w, wp = sg.W(r), sg.derivative(r, 1)
    tilt = np.exp(1j * np.arctan(1.0 / np.sqrt(w)))
    dz = tilt * (1.0 - 0.5j * r * wp / (np.sqrt(w) * (1.0 + w)))
    f = np.exp(1j * r * tilt * sg.kernel_complex(r * tilt) - s * r * tilt)
    if not np.abs(f[-16:]).max() < 1e-19:
        raise QuadratureError(f"growth path integrand alive at R_max={R_max:g} for s={s}")
    return complex(total + np.sum(f * dz * wr))


def per_x_knots(sg, x0: float, x1: float) -> np.ndarray:
    """Roots of phi(u) = k pi strictly inside (phi(x0), phi(x1)), by brentq.

    Each root is bracketed by the one before it (or x0) and x1, since phi
    is strictly increasing, and solved to full double precision.
    """
    p0 = float(sg.phase(x0)) if x0 > 0 else 0.0
    p1 = float(sg.phase(x1))
    ks = np.arange(math.floor(p0 / math.pi) + 1, math.ceil(p1 / math.pi))
    roots, lo = [], max(x0, 1e-12)
    for t in math.pi * ks:
        if not p0 < t < p1:
            continue
        lo = brentq(lambda u: float(sg.phase(u)) - t, lo, x1, xtol=1e-300, rtol=1e-15)
        roots.append(lo)
    return np.array(roots)


def per_x_T_scaled(sg, x: float, config: Optional[QuadratureConfig] = None) -> float:
    """eval_T_scaled's panel quadrature on the pi-knots of [0, x] solved for this x alone."""
    knots = per_x_knots(sg, 0.0, x)
    edges = grade_origin(refine_edges(np.concatenate([[0.0], knots, [x]]),
                                      _width_cap(config or DEFAULT_CONFIG)))
    return math.fsum(_panel_quad(edges, lambda u: np.exp(u - x) * np.cos(u * sg.W(u))))


def per_x_direct_F(sg, s: complex, R: float,
                   config: Optional[QuadratureConfig] = None) -> complex:
    """direct_F's panel quadrature on the pi-knots of [0, R] solved for this R alone."""
    knots = per_x_knots(sg, 0.0, R)
    edges = grade_origin(refine_edges(np.concatenate([[0.0], knots, [R]]),
                                      _width_cap(config or DEFAULT_CONFIG)))
    vals = _panel_quad(edges, lambda u: np.exp((1j * sg.W(u) - s) * u))
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def complex_division_W(sg, z) -> np.ndarray:
    """W(z) as the node sum of z / (z^2 + x^2) by complex division.

    The form `SmoothedGrowth.kernel_complex` took before it split the
    sum into two real products; same nodes, same weights.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    nodes, ow = sg._grid()
    out = np.empty(z.shape, dtype=complex)
    for i in range(0, z.size, 1024):
        zz = z[i : i + 1024, None]
        out[i : i + 1024] = (zz / (zz * zz + nodes * nodes)) @ ow
    return out


def full_scan_pick(sg, path, s: complex) -> tuple:
    """_pick_angle's (angle, stop) by computing every node of every ray.

    The skip, peak and stop rules of `tauberlab.contour._pick_angle`,
    without its block bounds.
    """
    from tauberlab.contour import _R_MAX, _RAY_ANGLES, _TRUNC_LOG, _rays

    best = None
    rays = _rays(sg, path)
    for angle in _RAY_ANGLES:
        ray = rays[angle]
        g = ray.g0.real - ray.r * (s * complex(math.cos(angle), math.sin(angle))).real
        peak = g.max()
        if g[ray.n_dense - 1:].max() < _TRUNC_LOG and (best is None or peak < best[0]):
            best = (peak, angle, g)
    if best is None:
        raise QuadratureError(
            f"no ray decays below tolerance within the dense panels of "
            f"R_max={_R_MAX:g} for s={s}"
        )
    _, angle, g = best
    alive = np.flatnonzero(g >= _TRUNC_LOG)
    return angle, int(alive[-1]) + 2 if alive.size else 1
