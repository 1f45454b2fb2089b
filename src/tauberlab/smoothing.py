"""Half-line Poisson smoothing of a growth target.

W(y) convolves omega against the Poisson kernel P(x, y) = y / (y^2 + x^2)
on (0, inf). The rescaled substitution x = y * tan(theta) turns that into

    W(y) = integral over (0, pi/2) of omega(y * tan(theta)) d(theta)

Derivatives in y never touch omega' (omega has a kink at the min-branch
crossover): they use the closed complex form of the kernel derivative
instead.

The SmoothedGrowth handle carries a fixed composite Gauss-Legendre grid
in x on which omega is sampled once, so every consumer (contour rays,
phase sweeps, witness scans) gets W, its derivatives, and the half-plane
extension W(z) as matrix-vector products over shared nodes. An adaptive
quadrature of the rescaled form above stays in the test suite as the
independent oracle this grid is checked against.

Each side has an exact tier and a proxy tier. The exact tier is the full
node sum per point: `derivative` on the real axis, `kernel_complex` off
it. They feed the proxies, the Lemma 2.1 grid checks and the tests. The
proxy tier interpolates the exact tier on Chebyshev panels in a log
variable:

- `scaled` serves y^n W^(n)(y), n <= 2, and `W`, `V`, `V_prime` and
  `phase` are built from it. It reads a lattice of panels of fixed width
  in t = log y, one panel per integer multiple of the width, each filled
  once, on first use, from one exact call of fixed shape. The kernel's
  poles in y sit at +-i x_j, which t = log y maps to the lines
  Im t = +-pi/2, and y^n d^n/dy^n keeps that strip, so y^n W^(n)(e^t) is
  analytic in |Im t| < pi/2.
- `kernel_complex_ray` serves contour rays, which need W at ~65k radii
  per angle. On a ray of angle theta, t = log r maps the poles (the
  imaginary axis) to the lines |Im t| = pi/2 - theta, so W(e^t e^{i theta})
  is analytic in that narrower strip.

Piecewise Chebyshev interpolation in t then converges geometrically in the
points per panel, at a rate set by the Bernstein ellipse that fits in the
strip (Trefethen, Approximation Theory and Approximation Practice, SIAM
2013, ch. 8). The fixed panel width and point count resolve the real axis
and every ray angle up to MAX_COMPLEX_ARG to the exact sum's own rounding
(~4e-15 relative). Both proxies share one barycentric evaluator.
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

# Proxy panels: width in log y (log r on a ray) and Chebyshev points per
# panel. At ray angle theta the kernel's poles sit at |Im log r| = pi/2 -
# theta >= 0.28 (theta <= MAX_COMPLEX_ARG); a panel of half-width 0.25 then
# has Bernstein ellipse parameter >= 2.6, so the error decays like 2.6^-n,
# ~2e-12 at n = 28 before constants (on the real axis, theta = 0, the
# parameter is 12.6). Measured against the exact sums: <= 4e-15 relative at
# every angle up to the cap.
_PROXY_PANEL = 0.5
_PROXY_POINTS = 28
_CHEB = -np.cos(math.pi * np.arange(_PROXY_POINTS) / (_PROXY_POINTS - 1))
_BARY = (-1.0) ** np.arange(_PROXY_POINTS)
_BARY[[0, -1]] *= 0.5


def _cheb_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Chebyshev points on each panel [lo, hi], one row per panel, ends exact."""
    nodes = 0.5 * (lo[:, None] + hi[:, None]) + 0.5 * (hi[:, None] - lo[:, None]) * _CHEB
    nodes[:, 0], nodes[:, -1] = lo, hi
    return nodes


def _bary_rows(d: np.ndarray, samples) -> list:
    """Barycentric sums for rows of offsets d = t - node, one per sample table.

    A sample table is (rows, points), or (points,) shared by every row. A
    t on a node makes its row's sums infinite; that row takes the node's
    sample instead.
    """
    c = _BARY / d
    den = c.sum(axis=1)
    parts = [(c * s).sum(axis=1) / den for s in samples]
    rows = np.flatnonzero(~np.isfinite(den))
    if rows.size:
        hit_rows, cols = np.nonzero(d[rows] == 0.0)
        rows = rows[hit_rows]
        for part, s in zip(parts, samples):
            part[rows] = s[rows, cols] if s.ndim == 2 else s[cols]
    return parts


def _barycentric(t: np.ndarray, pan: np.ndarray, nodes: np.ndarray,
                 *vals: np.ndarray) -> list:
    """Interpolate at each t from the samples v[pan] at the points nodes[pan].

    One output per sample table v; the tables share the weights, which
    are the costly part. Second-kind barycentric formula; a t on a node
    returns that node's sample. Each row sums on its own, so a value does
    not depend on the other points of the call, and chunks keep the
    (len(t), _PROXY_POINTS) temporaries small. A panel with many points
    broadcasts its nodes and samples over them; the points of sparse
    panels are gathered row by row.
    """
    outs = [np.empty(t.shape, dtype=v.dtype) for v in vals]
    if t.size == 0:
        return outs
    order = np.argsort(pan, kind="stable") if np.any(pan[1:] < pan[:-1]) else None
    if order is not None:
        t, pan = t[order], pan[order]

    def put(where, parts):
        where = where if order is None else order[where]
        for out, part in zip(outs, parts):
            out[where] = part

    bounds = np.concatenate([[0], np.flatnonzero(pan[1:] != pan[:-1]) + 1, [t.size]])
    sizes = np.diff(bounds)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi in zip(bounds[:-1][sizes >= 512].tolist(), bounds[1:][sizes >= 512].tolist()):
            k = pan[lo]
            for i in range(lo, hi, 4096):
                j = min(i + 4096, hi)
                put(slice(i, j), _bary_rows(t[i:j, None] - nodes[k], [v[k] for v in vals]))
        sparse = np.flatnonzero(np.repeat(sizes < 512, sizes))
        for i in range(0, sparse.size, 4096):
            q = sparse[i : i + 4096]
            p = pan[q]
            put(q, _bary_rows(t[q, None] - nodes[p], [v[p] for v in vals]))
    return outs


def poisson_kernel(x, y):
    """P(x, y) = y / (y^2 + x^2) for y > 0."""
    return kernel_derivative(0, x, y)


def _kernel_orders(orders, x, y):
    """Yield (n, d^n P / dy^n at (x, y)) for each n in orders, ascending.

    The orders above 0 share w = 1/(x + iy) and its running power, so
    each costs one multiplication more than the order below it; an order
    comes out bit for bit the same whichever others are asked with it.
    Consume each matrix before asking for the next: they are large.
    """
    # P = -Im w with w = 1/(x + iy) and dw/dy = -i w^2, so
    # d^n P / dy^n = -n! Im((-i)^n w^(n+1)); (-i)^n only swaps parts and signs.
    # Each step reuses its operand's storage where it can: a fresh
    # (points, nodes) matrix per step costs page faults that outweigh the
    # arithmetic.
    if 0 in orders:
        den = y * y + x * x
        yield 0, (np.divide(y, den, out=den) if isinstance(den, np.ndarray) else y / den)
        del den
    top = max(orders)
    if top < 1:
        return
    # reciprocal first: |x + iy| spans ~50 orders across the node range
    w = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=complex)
    w.real, w.imag = x, y  # x + iy, bit for bit, without a mixed-type pass
    np.divide(1.0, w, out=w)
    p = w * w
    for n in range(1, top + 1):
        if n > 1:
            p = np.multiply(p, w, out=p) if isinstance(p, np.ndarray) else p * w
        if n in orders:
            part = p.imag if n % 2 == 0 else p.real
            yield n, (-math.factorial(n) if n % 4 in (0, 3) else math.factorial(n)) * part


def kernel_derivative(n: int, x, y):
    """n-th y-derivative of the Poisson kernel, in closed complex form.

    Writing P = -Im w with w = 1/(x + iy) gives

        d^n P / d y^n = -n! Im{ (-i)^n w^(n+1) }

    which is exact for every n and avoids differencing. Satisfies
    |result| <= 2^(n+1) n! / (y^2 + x^2)^((n+1)/2).
    """
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    if np.any(np.asarray(y) <= 0):
        raise ValueError("the Poisson kernel needs y > 0")
    ((_, out),) = _kernel_orders((n,), np.asarray(x, dtype=float), y)
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

    All evaluators are pure; caches hold only data derived deterministically
    from the target (proxy panels, tables) and are lock-protected, so
    handles may be shared across worker threads.
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

    def _kernel_sums(self, y: np.ndarray, orders) -> list:
        nodes, ow = self._grid()
        outs = {n: np.empty(y.shape, dtype=float) for n in orders}
        x = nodes[None, :]
        # chunked: a full (len(y), len(nodes)) kernel matrix can exceed memory
        for i in range(0, y.size, 256):
            for n, mat in _kernel_orders(orders, x, y[i : i + 256, None]):
                outs[n][i : i + 256] = mat @ ow
                del mat  # before the next order's matrix is made
        return [outs[n] for n in orders]

    # -- exact real evaluator --------------------------------------------

    def derivative(self, y, n: int) -> Union[float, np.ndarray]:
        """W^(n)(y) by the exact node sum; n = 0 gives W itself.

        The real twin of kernel_complex: it feeds the proxy panels behind
        W, V, V_prime and phase, and the grid checks of Lemma 2.1.
        """
        return self.derivative_orders(y, (n,))[0]

    def derivative_orders(self, y, orders) -> tuple:
        """(W^(n)(y) for n in orders), each bit for bit what derivative gives.

        The orders share one pass over the nodes, so asking for several at
        once costs little more than asking for the highest.
        """
        orders = tuple(orders)
        for n in orders:
            if not (0 <= n <= max(self.n_max, 0)):
                raise ValueError(f"derivative order {n} outside [0, {self.n_max}]")
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(arr <= 0):
            raise ValueError("W derivatives need y > 0")
        outs = self._kernel_sums(arr, orders)
        return tuple(outs) if np.ndim(y) else tuple(float(out[0]) for out in outs)

    # -- proxy-served real evaluators ------------------------------------

    def _proxy_panel(self, n: int, k: int, nodes: np.ndarray) -> np.ndarray:
        # y^n W^(n)(y) at the Chebyshev points `nodes` (in log y) of panel k,
        # from one exact call of fixed shape, so the bits do not depend on
        # who asks first
        def build():
            y = np.exp(nodes)
            return y ** n * self.derivative(y, n)

        return self.memo(("real_proxy", n, k), build)

    def scaled(self, y, n: int) -> Union[float, np.ndarray]:
        """y^n W^(n)(y) for n <= 2, served by the real-axis proxy.

        Panel k spans [k, k + 1] * _PROXY_PANEL in t = log y, for every
        integer k, so one rule covers every y > 0. W, V, V_prime and phase
        are sums and products of these; callers that need several orders
        at the same points ask scaled_orders for them in one pass.
        """
        return self.scaled_orders(y, (n,))[0]

    def scaled_orders(self, y, orders) -> tuple:
        """(y^n W^(n)(y) for n in orders), each bit for bit what scaled gives."""
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        if not np.all((arr > 0) & np.isfinite(arr)):
            raise ValueError("W needs finite y > 0")  # a panel index needs a finite log y
        t = np.log(arr).ravel()
        k = np.floor(t / _PROXY_PANEL)
        # the panels present, ascending, and each point's index among them
        k_lo = k.min()
        idx = (k - k_lo).astype(np.intp)
        present = np.bincount(idx) > 0
        ks = k_lo + np.flatnonzero(present)
        pan = (np.cumsum(present) - 1)[idx]
        nodes = _cheb_nodes(ks * _PROXY_PANEL, (ks + 1.0) * _PROXY_PANEL)
        vals = [np.stack([self._proxy_panel(n, int(kk), row) for kk, row in zip(ks, nodes)])
                for n in orders]
        outs = _barycentric(t, pan, nodes, *vals)
        if not np.ndim(y):
            return tuple(float(out[0]) for out in outs)
        return tuple(out.reshape(arr.shape) for out in outs)

    def W(self, y) -> Union[float, np.ndarray]:
        """W(y) for scalar or array y > 0."""
        return self.scaled(y, 0)

    def V(self, y) -> Union[float, np.ndarray]:
        """V(y) = W(y) + y W'(y), the phase velocity."""
        w0, w1 = self.scaled_orders(y, (0, 1))
        return w0 + w1

    def V_prime(self, y) -> Union[float, np.ndarray]:
        """V'(y) = 2 W'(y) + y W''(y)."""
        w1, w2 = self.scaled_orders(y, (1, 2))
        return (2.0 * w1 + w2) / np.asarray(y, dtype=float)

    def phase(self, y) -> Union[float, np.ndarray]:
        """phi(y) = y W(y); strictly increasing since phi' = V > 0."""
        return np.asarray(y, dtype=float) * self.scaled(y, 0)

    def memo(self, key, build):
        """Cache an expensive derived object on this instance.

        Each key is built once: racing callers wait on a per-key gate
        while the first one builds. ``build`` runs outside ``self._lock``,
        since builds run the node sums, whose grid takes that lock.
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
        nodes = _cheb_nodes(edges[:-1], edges[1:])
        rot = complex(math.cos(angle), math.sin(angle))
        vals = self.kernel_complex(np.exp(nodes).ravel() * rot).reshape(nodes.shape)
        # a radius on an interior edge belongs to the panel on its left
        pan = np.searchsorted(edges[1:-1], t, side="left")
        return _barycentric(t, pan, nodes, vals)[0]
