"""Half-line Poisson smoothing of a growth target.

W(y) convolves omega against the Poisson kernel P(x, y) = y / (y^2 + x^2)
on (0, inf). The rescaled substitution x = y * tan(theta) turns that into

    W(y) = integral over (0, pi/2) of omega(y * tan(theta)) d(theta)

Derivatives in y never touch omega' (omega has a kink at the min-branch
crossover): they use the closed complex-pair form of the kernel
derivative instead.

The SmoothedGrowth handle carries a fixed composite Gauss-Legendre grid
in x on which omega is sampled once, so every consumer (contour rays,
phase sweeps, witness scans) gets W, its derivatives, and the half-plane
extension W(z) as matrix-vector products over shared nodes. An adaptive
quadrature of the rescaled form above stays in the test suite as the
independent oracle this grid is checked against.

`kernel_complex` is the exact reference for W(z): the full node sum per
point. Contour rays need W at ~65k radii per angle, so `kernel_complex_ray`
serves them from a Chebyshev proxy. On a ray of angle theta, t = log r
maps the kernel's poles (the imaginary axis) to the lines
|Im t| = pi/2 - theta, so W(e^t e^{i theta}) is analytic in that strip.
Piecewise Chebyshev interpolation in t then converges geometrically in the
points per panel, at a rate set by the Bernstein ellipse that fits in the
strip (Trefethen, Approximation Theory and Approximation Practice, SIAM
2013, ch. 8). The fixed panel width and point count resolve every angle
up to MAX_COMPLEX_ARG to the exact sum's own rounding (~4e-15 relative).
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Union

import numpy as np

from .quadrature import DEFAULT_CONFIG, QuadratureConfig, geometric_edges, panel_nodes
from .rates import GrowthTarget

# Largest |arg z| the fixed grid resolves to ~1e-8 or better; beyond this the
# node spacing stops resolving the kernel's complex ridge.
MAX_COMPLEX_ARG = 1.29

# Ray proxy: panel width in log r and Chebyshev points per panel. At angle
# theta the kernel's poles sit at |Im log r| = pi/2 - theta >= 0.28 (theta <=
# MAX_COMPLEX_ARG); a panel of half-width 0.25 then has Bernstein ellipse
# parameter >= 2.6, so the error decays like 2.6^-n, ~2e-12 at n = 28 before
# constants. Measured against kernel_complex: <= 4e-15 relative at every
# angle up to the cap.
_PROXY_PANEL = 0.5
_PROXY_POINTS = 28


def poisson_kernel(x, y):
    """P(x, y) = y / (y^2 + x^2) for y > 0."""
    if np.any(np.asarray(y) <= 0):
        raise ValueError("poisson_kernel needs y > 0")
    x = np.asarray(x, dtype=float)
    out = y / (y * y + x * x)
    return out if out.ndim else float(out)


def kernel_derivative(n: int, x, y):
    """n-th y-derivative of the Poisson kernel, via the complex-pair form.

    Writing P = Im(1/(x - iy)) gives

        d^n P / d y^n = Re{ (i/2) n! [ (-i)^n (x+iy)^-(n+1) - i^n (x-iy)^-(n+1) ] }

    which is exact for every n and avoids differencing. Satisfies
    |result| <= 2^(n+1) n! / (y^2 + x^2)^((n+1)/2).
    """
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    if np.any(np.asarray(y) <= 0):
        raise ValueError("kernel_derivative needs y > 0")
    if n == 0:
        return poisson_kernel(x, y)
    x = np.asarray(x, dtype=float)
    fac = math.factorial(n)
    zp = (x + 1j * y) ** (-(n + 1))
    zm = (x - 1j * y) ** (-(n + 1))
    out = (0.5j * fac * ((-1j) ** n * zp - (1j) ** n * zm)).real
    return out if out.ndim else float(out)


class SmoothedGrowth:
    """Evaluator handle for W, its derivatives, V, the phase, and W(z).

    Parameters
    ----------
    target : GrowthTarget
        omega with its envelope and min-branch crossover.
    quad_config : QuadratureConfig, optional
        Budget that downstream consumers (phase quadrature, tau table,
        contour paths) read off the handle; W itself runs on the grid.
    n_max : int
        Largest derivative order served (default 6).
    grid_order, panels_per_octave : int
        Resolution of the fixed composite grid: Gauss-Legendre order per
        panel and panels per octave. The defaults resolve real arguments
        to ~1e-14 relative and complex arguments within |arg z| <= 1.26
        to better than 1e-10 (checked against adaptive quadrature in tests).

    All evaluators are pure; caches only memoize exact re-evaluations and
    are lock-protected, so handles may be shared across worker threads.
    """

    def __init__(
        self,
        target: GrowthTarget,
        quad_config: Optional[QuadratureConfig] = None,
        n_max: int = 6,
        grid_order: int = 16,
        panels_per_octave: int = 2,
    ):
        self.target = target
        self.quad_config = quad_config or DEFAULT_CONFIG
        self.n_max = int(n_max)
        self._grid_order = int(grid_order)
        self._per_octave = int(panels_per_octave)
        self._lock = threading.Lock()
        self._nodes = None
        self._omega_weights = None
        self._built = {}
        self._gates = {}

    # -- fixed grid ----------------------------------------------------

    def _grid(self):
        with self._lock:
            if self._nodes is None:
                anchor = self.target.branch_point or 1.0
                edges = geometric_edges(anchor, -40, 122, self._per_octave)
                nodes, weights = panel_nodes(edges, self._grid_order)
                om = np.asarray(self.target.omega(nodes), dtype=float)
                self._nodes = nodes
                self._omega_weights = om * weights
            return self._nodes, self._omega_weights

    def _kernel_sum(self, y: np.ndarray, n: int) -> np.ndarray:
        nodes, ow = self._grid()
        out = np.empty(y.shape, dtype=float)
        x = nodes[None, :]
        # chunked: a full (len(y), len(nodes)) kernel matrix can exceed memory
        for i in range(0, y.size, 2048):
            yy = y[i : i + 2048, None]
            if n == 0:
                k = yy / (yy * yy + x * x)
            else:
                fac = math.factorial(n)
                # reciprocal first: |x + iy| spans ~50 orders across the node range
                wp = (1.0 / (x + 1j * yy)) ** (n + 1)
                wm = (1.0 / (x - 1j * yy)) ** (n + 1)
                k = (0.5j * fac * ((-1j) ** n * wp - (1j) ** n * wm)).real
            out[i : i + 2048] = k @ ow
        return out

    # -- real evaluators -----------------------------------------------

    def W(self, y) -> Union[float, np.ndarray]:
        """W(y) for scalar or array y > 0."""
        return self.derivative(y, 0)

    def derivative(self, y, n: int) -> Union[float, np.ndarray]:
        """W^(n)(y); n = 0 gives W itself."""
        if not (0 <= n <= max(self.n_max, 0)):
            raise ValueError(f"derivative order {n} outside [0, {self.n_max}]")
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(arr <= 0):
            raise ValueError("W derivatives need y > 0")
        out = self._kernel_sum(arr, n)
        return out if np.ndim(y) else float(out[0])

    def V(self, y) -> Union[float, np.ndarray]:
        """V(y) = W(y) + y W'(y), the phase velocity."""
        return self.W(y) + np.asarray(y, dtype=float) * self.derivative(y, 1)

    def V_prime(self, y) -> Union[float, np.ndarray]:
        return 2.0 * self.derivative(y, 1) + np.asarray(y, dtype=float) * self.derivative(y, 2)

    def phase(self, y) -> Union[float, np.ndarray]:
        """phi(y) = y W(y); strictly increasing since phi' = V > 0."""
        return np.asarray(y, dtype=float) * self.W(y)

    def memo(self, key, build):
        """Cache an expensive derived object on this instance.

        Each key is built once: racing callers wait on a per-key gate
        while the first one builds. ``build`` runs outside ``self._lock``,
        since builds evaluate W, which takes that lock.
        """
        with self._lock:
            if key in self._built:
                return self._built[key]
            gate = self._gates.setdefault(key, threading.Lock())
        with gate:
            with self._lock:
                if key in self._built:
                    return self._built[key]
            val = build()
            with self._lock:
                self._built[key] = val
                del self._gates[key]
            return val

    # -- complex evaluator ----------------------------------------------

    def kernel_complex(self, z) -> Union[complex, np.ndarray]:
        """W(z) on the right half-plane, |arg z| <= MAX_COMPLEX_ARG.

        Same node sum as the real case with kernel z / (z^2 + x^2); the
        integrand's poles sit on the imaginary axis, so the sum is
        analytic in the open half-plane and this grid resolves it up to
        the documented argument cap.
        """
        arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(arr.real <= 0) or np.any(np.abs(np.angle(arr)) > MAX_COMPLEX_ARG):
            raise ValueError("complex evaluation needs |arg z| <= "
                             f"{MAX_COMPLEX_ARG} in the right half-plane")
        nodes, ow = self._grid()
        out = np.empty(arr.shape, dtype=complex)
        x = nodes[None, :]
        for i in range(0, arr.size, 1024):
            zz = arr[i : i + 1024, None]
            out[i : i + 1024] = (zz / (zz * zz + x * x)) @ ow
        return out if np.ndim(z) else complex(out[0])

    def kernel_complex_ray(self, r: np.ndarray, angle: float) -> np.ndarray:
        """W(r e^{i angle}) at ascending radii r > 0, by a Chebyshev proxy.

        kernel_complex runs only at _PROXY_POINTS Chebyshev points on each
        panel of width <= _PROXY_PANEL in log r covering [r[0], r[-1]];
        every r is then filled by barycentric interpolation in log r.
        """
        t = np.log(np.asarray(r, dtype=float))
        n_pan = max(1, math.ceil((t[-1] - t[0]) / _PROXY_PANEL))
        edges = np.linspace(t[0], t[-1], n_pan + 1)
        k = np.arange(_PROXY_POINTS)
        cheb = -np.cos(math.pi * k / (_PROXY_POINTS - 1))
        nodes = 0.5 * (edges[:-1, None] + edges[1:, None]) \
            + 0.5 * (edges[1:, None] - edges[:-1, None]) * cheb
        nodes[:, 0], nodes[:, -1] = edges[:-1], edges[1:]
        rot = complex(math.cos(angle), math.sin(angle))
        vals = self.kernel_complex(np.exp(nodes).ravel() * rot).reshape(nodes.shape)
        bw = (-1.0) ** k
        bw[[0, -1]] *= 0.5
        cuts = np.searchsorted(t, edges[1:-1], side="right")
        out = np.empty(t.shape, dtype=complex)
        for p, sel in enumerate(np.split(np.arange(t.size), cuts)):
            d = t[sel, None] - nodes[p]
            hit = d == 0.0
            c = bw / np.where(hit, 1.0, d)
            out[sel] = (c @ vals[p]) / c.sum(axis=1)
            rows, cols = np.nonzero(hit)
            out[sel[rows]] = vals[p, cols]
        return out
