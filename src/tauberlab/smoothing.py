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
proxy tier interpolates the exact tier on a lattice of Chebyshev panels
in a log or angle variable t: panel k spans [k, k + 1] times a fixed
width, for every integer k, and is filled once, on first use, from one
exact call of fixed shape, so no value depends on which query came first.

- `scaled` serves y^n W^(n)(y), n <= 2, and `W`, `V`, `V_prime` and
  `phase` are built from it, on a lattice in t = log y. The kernel's
  poles in y sit at +-i x_j, which t = log y maps to the lines
  Im t = +-pi/2, and y^n d^n/dy^n keeps that strip, so y^n W^(n)(e^t) is
  analytic in |Im t| < pi/2.
- `kernel_complex_ray` serves contour rays, which need W at ~65k radii
  at each of six angles, on a lattice in t = log r per angle, which every
  ray at that angle shares whatever its anchor. One call serves every
  angle at the same radii, and the angles share the interpolation
  weights. On a ray of angle theta, t = log r maps the poles (the
  imaginary axis) to the lines |Im t| = pi/2 - theta, so
  W(e^t e^{i theta}) is analytic in that narrower strip.
- `kernel_complex_arc` serves the contour arcs, on three panels in
  t = arg z each side of 0 per arc radius R0. The poles sit on
  |Re t| = pi/2, past the argument cap.

Piecewise Chebyshev interpolation in t then converges geometrically in the
points per panel, at a rate set by the Bernstein ellipse that fits in the
strip (Trefethen, Approximation Theory and Approximation Practice, SIAM
2013, ch. 8). The fixed panel width and point count resolve the real axis,
every ray angle and every arc up to MAX_COMPLEX_ARG to the exact sum's own
rounding (~4e-15 relative). The three proxies share one lattice rule and
one barycentric evaluator, `_barycentric`: the tables of a call share its
weights, and each row sums as its own dot product, without BLAS.
"""

from __future__ import annotations

import math
import threading
from typing import Union

import numpy as np

from .quadrature import geometric_edges, panel_nodes
from .rates import GrowthTarget

# Largest |arg z| the fixed grid resolves to ~1e-8 or better; beyond this the
# node spacing stops resolving the kernel's complex ridge.
MAX_COMPLEX_ARG = 1.29

# The node grid: Gauss-Legendre order per panel, panels per octave. It resolves
# real W to ~1e-14 and |arg z| <= 1.26 to 1e-10 (tested against adaptive quadrature).
_GRID_ORDER, _PANELS_PER_OCTAVE = 16, 2
# largest derivative order served: 170! is the largest factorial a double holds
MAX_DERIVATIVE_ORDER = 170

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
    """Barycentric sums for rows of offsets d = t - node, one per real sample table.

    A sample table is (rows, points), or (points,) shared by every row.
    Each row's sum is its own dot product (einsum, not a BLAS product),
    so its bits do not depend on the other rows. A t on a node makes its
    row's sums infinite; that row takes the node's sample instead.
    """
    c = _BARY / d
    den = c.sum(axis=1)
    parts = [np.einsum("ij,ij->i" if s.ndim == 2 else "ij,j->i", c, s, optimize=False) / den
             for s in samples]
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

    One output per sample table v; the tables share the weights and the
    denominator, which are the costly part, and a complex table is summed
    as its real and imaginary parts. Second-kind barycentric formula; a t
    on a node returns that node's sample. Each row sums on its own, so a
    value does not depend on the other points of the call, and chunks keep
    the (len(t), _PROXY_POINTS) temporaries small. A panel with many
    points broadcasts its nodes and samples over them; the points of
    sparse panels are gathered row by row.
    """
    outs = [np.empty(t.shape, dtype=v.dtype) for v in vals]
    if t.size == 0:
        return outs

    def split(a):  # real tables, and the output views they fill
        return (a.real, a.imag) if a.dtype.kind == "c" else (a,)

    # einsum sums a strided operand in another order than a contiguous
    # one, so both paths below must read contiguous tables
    vals = [np.ascontiguousarray(p) for v in vals for p in split(v)]
    views = [p for out in outs for p in split(out)]
    order = np.argsort(pan, kind="stable") if np.any(pan[1:] < pan[:-1]) else None
    if order is not None:
        t, pan = t[order], pan[order]

    def put(where, parts):
        where = where if order is None else order[where]
        for view, part in zip(views, parts):
            view[where] = part

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


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order {n} outside [0, {MAX_DERIVATIVE_ORDER}]")


def kernel_derivative(n: int, x, y):
    """n-th y-derivative of the Poisson kernel, in closed complex form.

    Writing P = -Im w with w = 1/(x + iy) gives

        d^n P / d y^n = -n! Im{ (-i)^n w^(n+1) }

    which is exact for every n and avoids differencing. Satisfies
    |result| <= 2^(n+1) n! / (y^2 + x^2)^((n+1)/2).
    """
    _check_order(n)
    if np.any(np.asarray(y) <= 0):
        raise ValueError("the Poisson kernel needs y > 0")
    ((_, out),) = _kernel_orders((n,), np.asarray(x, dtype=float), y)
    return out if out.ndim else float(out)


class SmoothedGrowth:
    """Evaluator handle for W, its derivatives, V, the phase, and W(z).

    The target (omega with its envelope and min-branch crossover) is the
    only input: the node grid and the proxy lattices are module constants,
    and error budgets travel with the calls that integrate.

    All evaluators are pure; caches hold only data derived deterministically
    from the target (proxy panels, tables) and are lock-protected, so
    handles may be shared across worker threads.
    """

    def __init__(self, target: GrowthTarget):
        self.target = target
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
                edges = geometric_edges(anchor, -40, 122, _PANELS_PER_OCTAVE)
                nodes, weights = panel_nodes(edges, _GRID_ORDER)
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
        """W^(n)(y) by the exact node sum, 0 <= n <= 170; n = 0 gives W itself.

        The real twin of kernel_complex: it feeds the proxy panels behind
        W, V, V_prime and phase, and the grid checks of Lemma 2.1. A
        value's bits can depend on the batch it is asked in (the BLAS
        matrix-vector product need not sum every row position alike), so
        each proxy panel is filled by one call of fixed shape,
        _PROXY_POINTS points.
        """
        return self.derivative_orders(y, (n,))[0]

    def derivative_orders(self, y, orders) -> tuple:
        """(W^(n)(y) for n in orders), each bit for bit what derivative gives.

        The orders share one pass over the nodes, so asking for several at
        once costs little more than asking for the highest. As with
        derivative, a value's bits can depend on the batch it is asked in.
        """
        orders = tuple(orders)
        for n in orders:
            _check_order(n)
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(arr <= 0):
            raise ValueError("W derivatives need y > 0")
        outs = self._kernel_sums(arr, orders)
        return tuple(outs) if np.ndim(y) else tuple(float(out[0]) for out in outs)

    # -- proxy lattice -----------------------------------------------------

    def _lattice(self, t: np.ndarray, width: float, tables, top=None) -> list:
        """Interpolate each table at every t from a lattice of Chebyshev panels.

        Panel k spans [k, k + 1] * width in t, for every integer k (up to
        `top`, whose panel then also takes the points past its right end).
        A table is a (key, fill) pair: its panel k is the memo entry
        key + (k,), filled once by fill(nodes) at the panel's
        _PROXY_POINTS Chebyshev points, so its bits do not depend on who
        asks first, or on the other points of a call.
        """
        k = np.floor(t / width)
        if top is not None:
            k = np.minimum(k, top)
        # the panels present, ascending, and each point's index among them
        k_lo = k.min()
        idx = (k - k_lo).astype(np.intp)
        present = np.bincount(idx) > 0
        ks = k_lo + np.flatnonzero(present)
        pan = (np.cumsum(present) - 1)[idx]
        nodes = _cheb_nodes(ks * width, (ks + 1.0) * width)
        vals = [np.stack([self.memo(key + (int(kk),), lambda row=row, fill=fill: fill(row))
                          for kk, row in zip(ks, nodes)])
                for key, fill in tables]
        return _barycentric(t, pan, nodes, *vals)

    # -- proxy-served real evaluators ------------------------------------

    def _real_table(self, n: int):
        # y^n W^(n)(y) at Chebyshev points in log y
        def fill(nodes):
            y = np.exp(nodes)
            return y ** n * self.derivative(y, n)

        return ("real_proxy", n), fill

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
        outs = self._lattice(np.log(arr).ravel(), _PROXY_PANEL,
                             [self._real_table(n) for n in orders])
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
        the documented argument cap. It runs in real arithmetic, over
        chunks of 8 points, whose temporaries the allocator reuses instead
        of faulting in fresh pages. A value's bits can depend on the batch
        it is asked in (the BLAS matrix-vector product need not sum every
        row position alike), so each proxy panel is filled by one call of
        fixed shape, _PROXY_POINTS points.
        """
        arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(arr.real <= 0) or np.any(np.abs(np.angle(arr)) > MAX_COMPLEX_ARG):
            raise ValueError("complex evaluation needs |arg z| <= "
                             f"{MAX_COMPLEX_ARG} in the right half-plane")
        nodes, ow = self._grid()
        a, b = arr.real.ravel(), arr.imag.ravel()
        # z = a + ib and d = z^2 + x^2, whose imaginary part 2ab is one per
        # row: z/d = z conj(d)/|d|^2, so the sum takes two real products,
        # s1 = sum ow Re d/|d|^2 and s2 = sum ow/|d|^2
        re0, im_d = a * a - b * b, 2.0 * a * b
        s1, s2 = np.empty(a.shape), np.empty(a.shape)
        x2 = nodes * nodes
        for i in range(0, a.size, 8):
            re_d = re0[i : i + 8, None] + x2
            inv = re_d * re_d
            inv += (im_d[i : i + 8] ** 2)[:, None]
            np.divide(1.0, inv, out=inv)
            s2[i : i + 8] = inv @ ow
            re_d *= inv
            s1[i : i + 8] = re_d @ ow
            del re_d, inv  # before the next chunk's matrices are made
        out = np.empty(a.shape, dtype=complex)
        out.real = a * s1 + b * im_d * s2
        out.imag = b * s1 - a * im_d * s2
        return out.reshape(arr.shape) if np.ndim(z) else complex(out[0])

    def kernel_complex_ray(self, r: np.ndarray, angles) -> list:
        """W(r e^{i theta}) at radii r > 0, one array per theta in angles.

        Served by a Chebyshev proxy in log r: per angle, the lattice of
        panels [k, k + 1] * _PROXY_PANEL that every ray at that angle
        shares, whatever its ends. The angles share the interpolation
        weights, and each angle's values are bit for bit what a call with
        that angle alone gives.
        """
        def table(angle):
            rot = complex(math.cos(angle), math.sin(angle))
            return ("ray_proxy", angle), lambda nodes: self.kernel_complex(np.exp(nodes) * rot)

        return self._lattice(np.log(np.asarray(r, dtype=float)), _PROXY_PANEL,
                             [table(angle) for angle in angles])

    def kernel_complex_arc(self, R0: float, t: np.ndarray) -> np.ndarray:
        """W(R0 e^{i t}) for |t| <= MAX_COMPLEX_ARG, by a Chebyshev proxy in t.

        Three panels of width MAX_COMPLEX_ARG / 3 each side of t = 0, one
        set per R0. The kernel's poles sit at |Re t| = pi/2, 0.28 past the
        end of the lattice, so the interpolant converges faster than on a
        ray.
        """
        t = np.asarray(t, dtype=float)
        if np.any(np.abs(t) > MAX_COMPLEX_ARG):
            raise ValueError(f"arc evaluation needs |t| <= {MAX_COMPLEX_ARG}")
        table = (("arc_proxy", R0), lambda nodes: self.kernel_complex(R0 * np.exp(1j * nodes)))
        return self._lattice(t, MAX_COMPLEX_ARG / 3, [table], top=2)[0]
