"""Quadrature backends shared by the whole package.

Every integral runs on fixed composite Gauss-Legendre panels whose nodes
are built once and reused, so repeated calls are cheap and bit-stable.
The error budget travels as a QuadratureConfig; QuadratureError names an
integral that cannot meet it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be computed to the configured budget."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Error budget and limits for the panel quadratures.

    Parameters
    ----------
    abs_tol, rel_tol : float
        Requested absolute / relative tolerances. Must be positive.
    tail_cutoff : float
        Hard cap on marched truncation radii (improper-integral tails).
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    tail_cutoff: float = 1e5

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if not self.tail_cutoff > 0:
            raise ValueError("tail_cutoff must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """Nodes and weights on [-1, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges, order: int):
    """Composite Gauss-Legendre rule over consecutive [edges[i], edges[i+1]].

    Returns (nodes, weights) as flat arrays, panel-major so that slicing
    by multiples of `order` recovers individual panels.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two panel edges")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("panel edges must be strictly increasing")
    x, w = gauss_legendre(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def geometric_edges(anchor: float, k_lo: int, k_hi: int, per_octave: int = 1):
    """Edges anchor * 2**(k / per_octave) for k in [k_lo, k_hi]."""
    if anchor <= 0:
        raise ValueError("anchor must be positive")
    k = np.arange(k_lo * per_octave, k_hi * per_octave + 1)
    return anchor * np.exp2(k / per_octave)


def refine_edges(edges, max_width: float):
    """Split panels wider than max_width into equal parts.

    Panel [a, b] in n parts gets the interior edges a + i * ((b - a) / n),
    i = 1 .. n - 1, and b itself: the points np.linspace(a, b, n + 1)
    gives, bit for bit, for all panels at once.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    n = np.maximum(1, np.ceil((b - a) / max_width)).astype(np.intp)
    step = (b - a) / n
    panel = np.repeat(np.arange(n.size), n)
    # i counts 1 .. n within each panel
    i = np.arange(1, panel.size + 1) - np.repeat(np.cumsum(n) - n, n)
    inner = i * step[panel] + a[panel]
    ends = np.cumsum(n) - 1
    inner[ends] = b
    return np.concatenate([edges[:1], inner])


def grade_origin(edges, levels: int = 26):
    """Geometrically subdivide a leading [0, e1] panel toward 0.

    Integrands here are typically u**a with fractional a at the origin;
    a flat Gauss panel loses ~1e-8 there, while geometric subpanels are
    each smooth at their own scale. No-op unless edges[0] == 0.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or edges[0] != 0.0:
        return edges
    ladder = edges[1] * np.exp2(-np.arange(levels, 0, -1.0))
    return np.concatenate([edges[:1], ladder, edges[1:]])
