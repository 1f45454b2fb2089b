"""Analytic continuation of oscillatory Laplace integrals by path bending.

The integrand e^{izW(z)}e^{-sz} is analytic on the right half-plane (the
kernel behind W has poles only on the imaginary axis), so the real-axis
integral equals any bent path: a real stem [0, R0], a circular arc at R0,
and a ray to _R_MAX = 2000. Off the axis the phase factor decays like
e^{-Im(zW(z))}, which is what buys convergence for Re s <= 0.

Bending into the region where the phase factor decays is the idea of
numerical steepest descent (Huybrechs and Vandewalle, SIAM J. Numer.
Anal. 44, 2006), cut down here to one shape: a ray at one of six fixed
angles, the one with the lowest integrand hump for the given s. Node sets
are cached on the evaluator, six rays per anchor R0 built together, so
a sweep over many s values costs a few exps and dot products each.

A ray fills i z W(z) at its ~65k nodes from the evaluator's Chebyshev
proxy in log r (SmoothedGrowth.kernel_complex_ray), whose panels lie on a
lattice in log r that every ray at that angle shares: 16 panels of 28
exact kernel sums per angle out to _R_MAX, for the anchors at 1 and
2 alike, instead of one sum per node. The six rays of an anchor share
their radii, so one call interpolates all six on shared weights. The ray
at angle theta keeps a strip of half-width pi/2 - theta in log r clear of
the kernel's poles, so the proxy converges geometrically (Trefethen,
Approximation Theory and Approximation Practice, SIAM 2013, ch. 8) and
matches the exact sum to ~4e-15 relative. The arcs read a proxy in arg z
(SmoothedGrowth.kernel_complex_arc), three panels per anchor; the exact
sum, kernel_complex, remains the reference both proxies are tested
against. The stem reads the real-axis W, which its own proxy in log u
serves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .oscillatory import eval_tau
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureError,
    grade_origin,
    panel_nodes,
)
from .smoothing import MAX_COMPLEX_ARG, SmoothedGrowth

# log-magnitude floor for ray truncation; tail beyond it is < 1e-16 * length
_TRUNC_LOG = math.log(1e-19)
# baseline log-magnitude hump cap: cancellation noise scales like e^peak
# (measured 1e-14 * e^peak across independent anchors), and e^15 is what
# the tightest advertised bent-path tolerance (1e-9) can absorb
_HUMP_LIMIT = 15.0
_HUMP_BASE_TOL = 1e-9
# nodes per block of a ray's pick bounds (_RayBlocks)
_BLOCK = 256
# ray angles, shallow to steep: e^{-sz} decays along a shallow ray when Re s > 0;
# a steep one buys the phase decay e^{-Im(zW(z))} that must beat it when Re s <= 0
_RAY_ANGLES = (0.05, 0.3, 0.6, 0.9, 1.15, MAX_COMPLEX_ARG)
# where every ray ends; it bounds ContourPath.R0
_R_MAX = 2000.0


@dataclass(frozen=True)
class ContourPath:
    """Bent integration path: stem [0, R0], arc at R0, ray out to _R_MAX (angle per s)."""

    R0: float = 1.0
    quad_config: QuadratureConfig = DEFAULT_CONFIG

    def __post_init__(self):
        if not (0 < self.R0 <= _R_MAX):
            raise ValueError(f"need 0 < R0 <= {_R_MAX:g}")


class _PieceCache:
    """Frozen node data for one path piece: z, weights*dz, i z W(z).

    n_dense counts the leading nodes whose panels resolve every
    oscillation scale in use; truncation may not land beyond them
    unless the integrand is already dead. A ray also carries its
    _RayBlocks.
    """

    __slots__ = ("z", "w", "g0", "r", "n_dense", "blocks")

    def __init__(self, z: np.ndarray, w: np.ndarray, g0: np.ndarray,
                 r: np.ndarray, n_dense: Optional[int] = None,
                 blocks: Optional["_RayBlocks"] = None):
        self.z = z
        self.w = w
        self.g0 = g0
        self.r = r
        self.n_dense = len(r) if n_dense is None else n_dense
        self.blocks = blocks


class _RayBlocks:
    """Upper bounds on a ray's log|integrand| Re(g0) - r c, block by block.

    Blocks hold _BLOCK consecutive nodes, and one starts at node
    n_dense - 1, where the dead-tail test of _pick_angle begins. Against a
    reference line of slope m (the block's chord) Re(g0) - r c equals
    (Re(g0) - m r) + (m - c) r: the first part's block maximum is stored,
    and the second is linear in r, so its maximum sits at an end. The sum
    plus a margin for the rounding of either side bounds every computed
    node value of the block from above; a block whose bound stays under a
    threshold need not be computed to decide it.
    """

    __slots__ = ("a", "r", "start", "end", "slope", "dev", "scale", "r_first", "r_last",
                 "tail")

    def __init__(self, a: np.ndarray, r: np.ndarray, n_dense: int):
        head = np.arange(0, n_dense - 1, _BLOCK)
        self.start = np.concatenate([head, np.arange(n_dense - 1, r.size, _BLOCK)])
        self.end = np.append(self.start[1:], r.size)
        self.a, self.r = a, r
        first, last = self.start, self.end - 1
        self.r_first, self.r_last = r[first], r[last]
        span = self.r_last - self.r_first
        self.slope = np.divide(a[last] - a[first], span, out=np.zeros(span.shape), where=span > 0)
        self.dev = np.maximum.reduceat(a - np.repeat(self.slope, self.end - first) * r, first)
        self.scale = np.maximum.reduceat(np.abs(a), first) + np.abs(self.slope) * self.r_last
        self.tail = head.size  # index of the first block of the tail test

    def bounds(self, c: float) -> np.ndarray:
        lin = self.slope - c
        # each operation behind a node value, the stored maximum or this sum
        # rounds by at most 2^-53 of scale + |c| r_last, and there are fewer
        # than ten of them on the way; the margin allows for ninety
        return (self.dev + np.maximum(lin * self.r_first, lin * self.r_last)
                + 1e-14 * (self.scale + abs(c) * self.r_last))

    def values(self, j: int, c: float) -> np.ndarray:
        # block j's log|integrand|, bit for bit what the whole ray gives
        i, k = self.start[j], self.end[j]
        return self.a[i:k] - self.r[i:k] * c

    def peak(self, blocks, c: float) -> float:
        return max((float(self.values(j, c).max()) for j in blocks), default=-math.inf)

    def tail_alive(self, ub: np.ndarray, c: float) -> bool:
        """Whether a node from n_dense - 1 on computes at or above _TRUNC_LOG."""
        js = self.tail + np.flatnonzero(ub[self.tail:] >= _TRUNC_LOG)
        # highest bound first: a live block is likeliest there
        return any(self.values(j, c).max() >= _TRUNC_LOG for j in js[np.argsort(-ub[js])])


def _stem_cache(sg: SmoothedGrowth, R0: float) -> _PieceCache:
    def build():
        top = min(R0, 640.0)
        edges = grade_origin(np.linspace(0.0, top, max(10, int(math.ceil(top / 0.1))) + 1))
        u, w = panel_nodes(edges, 16)
        g0 = 1j * u * sg.W(u)
        return _PieceCache(u.astype(complex), w.astype(complex), g0, u)

    return sg.memo(("contour_stem", R0), build)


def _arc_cache(sg: SmoothedGrowth, R0: float, span: float) -> _PieceCache:
    def build():
        # graded toward t=0: the phase factor can collapse within a
        # boundary layer of width ~1/(R0 W) at the stem junction
        edges = grade_origin(np.linspace(0.0, span, 9), levels=30)
        t, w = panel_nodes(edges, 16)
        z = R0 * np.exp(1j * t)
        g0 = 1j * z * sg.kernel_complex_arc(R0, t)
        return _PieceCache(z, w * (1j * z), g0, np.full(t.shape, R0))

    return sg.memo(("contour_arc", R0, span), build)


def _ray_edges(R0: float, R_max: float) -> tuple:
    # uniform 0.15 out to 600 resolves every oscillation scale in use;
    # a 2% geometric tail covers radii only reached by dead integrand
    dense_top = min(R_max, max(600.0, R0 + 40.0))
    edges = [np.arange(R0, dense_top, 0.15), [dense_top]]
    r = dense_top
    tail = []
    while r < R_max:
        r = min(R_max, r * 1.02)
        tail.append(r)
    all_edges = np.concatenate(edges + [tail]) if tail else np.concatenate(edges)
    return all_edges, dense_top


def _rays(sg: SmoothedGrowth, path: ContourPath) -> dict:
    """{angle: _PieceCache} for every angle in _RAY_ANGLES, built together.

    The six rays share their radii, so one proxy call serves them all.
    """
    def build():
        edges, dense_top = _ray_edges(path.R0, _R_MAX)
        r, w = panel_nodes(edges, 16)
        n_dense = int(np.searchsorted(r, dense_top, side="right"))
        rays = {}
        for angle, W in zip(_RAY_ANGLES, sg.kernel_complex_ray(r, _RAY_ANGLES)):
            dz = complex(math.cos(angle), math.sin(angle))
            z = r * dz
            g0 = 1j * z * W
            rays[angle] = _PieceCache(z, w * dz, g0, r, n_dense, _RayBlocks(g0.real, r, n_dense))
        return rays

    return sg.memo(("contour_ray", path.R0), build)


def _hump_limit(config: QuadratureConfig) -> float:
    # a budget looser than the baseline tolerance raises the cap by the
    # same factor the noise model allows; tighter budgets keep the floor
    return _HUMP_LIMIT + max(0.0, math.log(config.abs_tol / _HUMP_BASE_TOL))


def _sum_piece(cache: _PieceCache, s: complex, limit: float,
               stop: Optional[int] = None) -> complex:
    # slice first: the arithmetic then runs only over the nodes kept
    g = cache.g0[:stop] - s * cache.z[:stop]
    peak = float(g.real.max()) if g.size else -math.inf
    if peak > limit:
        raise QuadratureError(
            f"contour integrand peaks at e^{peak:.0f} for s={s}; cancellation "
            "leaves fewer digits than the advertised tolerance on this ray"
        )
    return complex(np.sum(np.exp(g) * cache.w[:stop]))


def _bent_eval(sg: SmoothedGrowth, path: ContourPath, s: complex,
               angle: float, stop: int) -> complex:
    stem = _stem_cache(sg, path.R0)
    if path.R0 > 640.0 and math.exp(-s.real * 640.0) >= 1e-16:
        raise QuadratureError(
            f"stem truncation at r=640 is not converged for s={s}; "
            "use a smaller R0"
        )
    limit = _hump_limit(path.quad_config)
    return (
        _sum_piece(stem, s, limit)
        + _sum_piece(_arc_cache(sg, path.R0, angle), s, limit)
        + _sum_piece(_rays(sg, path)[angle], s, limit, stop)
    )


def _pick_angle(sg: SmoothedGrowth, path: ContourPath, s: complex) -> tuple:
    """(angle, stop): the ray in _RAY_ANGLES with the lowest integrand hump.

    Rays whose integrand is still alive past the dense panels are skipped;
    among the rest the smallest peak of log|integrand| wins, the first
    angle on a tie. The ray is cut after the first node beyond which the
    measured envelope (the running max of log|integrand| from the far end)
    stays under _TRUNC_LOG, that is one node past the last node at or above
    it; the cut lies in the dense panels, since the integrand is already
    under the floor from the last dense node on.

    The decisions read _RayBlocks bounds and compute only the blocks a
    bound cannot settle, so peak, skip and stop are the full scan's bits.
    """
    best = None
    rays = _rays(sg, path)
    for angle in _RAY_ANGLES:
        blocks = rays[angle].blocks
        c = (s * complex(math.cos(angle), math.sin(angle))).real
        ub = blocks.bounds(c)
        peak = blocks.peak([int(np.argmax(ub))], c)
        if best is not None and peak >= best[0]:
            continue  # loses to best whatever the other blocks hold
        peak = blocks.peak(np.flatnonzero(ub >= peak), c)
        if not blocks.tail_alive(ub, c) and (best is None or peak < best[0]):
            best = (peak, angle, blocks, c, ub)
    if best is None:
        raise QuadratureError(
            f"no ray decays below tolerance within the dense panels of "
            f"R_max={_R_MAX:g} for s={s}"
        )
    _, angle, blocks, c, ub = best
    for j in np.flatnonzero(ub >= _TRUNC_LOG)[::-1]:
        alive = np.flatnonzero(blocks.values(j, c) >= _TRUNC_LOG)
        if alive.size:
            return angle, int(blocks.start[j] + alive[-1]) + 2
    return angle, 1


def contour_F(sg: SmoothedGrowth, path: ContourPath, s: complex) -> complex:
    """Continue F(s) = int_0^inf e^{iuW(u)}e^{-su} du to arbitrary s.

    Sum of stem, arc, and ray integrals on the ray _pick_angle chooses.
    The ray is cut after the first node beyond which log|integrand| stays
    below log(1e-19) out to _R_MAX. Where no ray works, a QuadratureError
    names the unreachable s.
    """
    s = complex(s)
    return _bent_eval(sg, path, s, *_pick_angle(sg, path, s))


def laplace_cos(sg: SmoothedGrowth, path: ContourPath, s: complex) -> complex:
    """Laplace transform of cos(uW(u)), continued to all of C.

    Assembled as (F(s) + conj F(conj s))/2, so it is exactly real on the
    real axis and conjugate-symmetric everywhere.
    """
    s = complex(s)
    a = contour_F(sg, path, s)
    b = contour_F(sg, path, s.conjugate())
    return 0.5 * (a + b.conjugate())


def laplace_dS(sg: SmoothedGrowth, path: ContourPath, s: complex) -> complex:
    """Laplace-Stieltjes transform of the cumulative e^u(1 + cos(uW(u))).

    Meromorphic with one simple pole at s = 1 of residue 1: the identity
    1/(s-1) + laplace_cos(s-1) splits the exponential part off exactly.
    """
    s = complex(s)
    if s == 1.0:
        raise ValueError("simple pole at s = 1")
    return 1.0 / (s - 1.0) + laplace_cos(sg, path, s - 1.0)


def laplace_tau(sg: SmoothedGrowth, path: ContourPath, s: complex,
                config: Optional[QuadratureConfig] = None) -> complex:
    """Laplace transform of the tail integral; entire in s.

    Uses (tau(0) - laplace_cos(s))/s; the s = 0 singularity is removable
    because laplace_cos(0) = tau(0), and the value there is recovered by
    averaging over s in {h, -h, ih, -ih} (error O(h^4) by symmetry).
    """
    cfg = config or path.quad_config
    s = complex(s)
    tau0 = eval_tau(sg, 0.0, cfg)
    if s == 0.0:
        h = 0.05
        pts = (h, -h, 1j * h, -1j * h)
        return sum((tau0 - laplace_cos(sg, path, p)) / p for p in pts) / 4.0
    return (tau0 - laplace_cos(sg, path, s)) / s


def cauchy_circle(G: Callable[[complex], complex], s0: complex, radius: float,
                  N: int = 64) -> complex:
    """(1/2 pi i) times the circle integral of G around s0.

    N-point trapezoid on the circle, spectrally accurate for analytic G:
    ~0 for holomorphic G, ~the residue when a simple pole is enclosed.
    If G is analytic in the annulus radius/q < |s - s0| < radius*q, the
    error against the exact circle integral decays like q^-N (Trefethen
    and Weideman, SIAM Review 56, 2014).
    """
    if radius <= 0:
        raise ValueError("need radius > 0")
    if N < 16:
        raise ValueError("need N >= 16")
    rot = np.exp(2j * math.pi * np.arange(N) / N)
    total = 0.0 + 0.0j
    for e in rot:
        total += complex(G(complex(s0) + radius * complex(e))) * complex(e)
    return radius * total / N
