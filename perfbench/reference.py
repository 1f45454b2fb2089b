"""The benchmark's own evaluation of the construction, written from its
definitions and sharing no code with tauberlab.

    omega(x)   = min(sqrt(x), 1 / rho(sqrt(x)))         (catalog rates are
                                                          non-increasing)
    W(y)       = integral over x > 0 of omega(x) y / (y^2 + x^2) dx
    V(y)       = W(y) + y W'(y),   phase(y) = y W(y)
    T_scaled   = e^(-x) * integral over [0, x] of e^u cos(u W(u)) du
    tau(a) - tau(b) = integral over [a, b] of cos(u W(u)) du

With x = e^t and s = t - log y the Poisson kernel becomes 1 / (2 cosh s), so
W, V are sums over one fixed Gauss-Legendre grid in t whose panels have an
edge at omega's kink. The integrands in u use uniform Gauss-Legendre panels
much narrower than one oscillation, with no phase knots and no tail table.
"""

import math

import numpy as np

# t = log x range of the W sum: wide enough that the dropped ends are below
# 1e-18 relative for every y in [1e-4, 1e7]
_T_LO, _T_HI = -70.0, 90.0
_T_PANEL = 1.0
_T_ORDER = 16
_U_PANEL = 0.25
_U_ORDER = 16
_CHUNK = 512


def rate(kind: str, alpha: float = None):
    """The catalog rates rho(x) as written in the project's README."""
    if kind == "log":
        return lambda x: 1.0 / np.log(math.e + np.asarray(x, dtype=float))
    if kind == "pow":
        return lambda x: (1.0 + np.asarray(x, dtype=float)) ** (-alpha)
    raise ValueError(f"no reference for rate kind {kind!r}")


def _gl_rule(edges: np.ndarray, order: int):
    gx, gw = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def _uniform_edges(a: float, b: float, width: float) -> np.ndarray:
    return np.linspace(a, b, max(1, int(math.ceil((b - a) / width))) + 1)


class Reference:
    """W, V and the oscillatory integrals of one catalog rate."""

    def __init__(self, kind: str, alpha: float = None):
        self.rho = rate(kind, alpha)
        # omega's kink: sqrt(x) = 1 / rho(sqrt(x)), by bisection in log x
        gap = lambda t: math.exp(0.5 * t) - 1.0 / float(self.rho(math.exp(0.5 * t)))
        lo, hi = -30.0, 30.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) < 0 else (lo, mid)
        t_kink = 0.5 * (lo + hi)
        edges = np.union1d(_uniform_edges(_T_LO, _T_HI, _T_PANEL), [t_kink])
        t, w = _gl_rule(edges, _T_ORDER)
        self._t = t
        self._omega_w = self.omega(np.exp(t)) * w

    def omega(self, x):
        x = np.asarray(x, dtype=float)
        return np.minimum(np.sqrt(x), 1.0 / self.rho(np.sqrt(x)))

    def _sums(self, y: np.ndarray):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        w = np.empty(y.shape)
        yw1 = np.empty(y.shape)
        for i in range(0, y.size, _CHUNK):
            s = self._t[None, :] - np.log(y[i:i + _CHUNK, None])
            k = 0.5 / np.cosh(s)
            w[i:i + _CHUNK] = k @ self._omega_w
            yw1[i:i + _CHUNK] = (k * np.tanh(s)) @ self._omega_w
        return w, yw1

    def W(self, y) -> np.ndarray:
        return self._sums(y)[0]

    def V(self, y) -> np.ndarray:
        w, yw1 = self._sums(y)
        return w + yw1

    def W_prime(self, y) -> np.ndarray:
        return self._sums(y)[1] / np.asarray(y, dtype=float)

    def phase(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float) * self.W(y)

    def cumulative(self, xs: np.ndarray):
        """T_scaled(x) and I(x) = integral over [0, x] of cos(u W(u)) du.

        One pass over [0, max xs] with every x (ascending) as a panel edge;
        the e^u weights are carried relative to e^(max xs). Differences of I
        are differences of tau: tau(a) - tau(b) = I(b) - I(a).
        """
        xs = np.asarray(xs, dtype=float)
        top = float(xs[-1])
        edges = np.union1d(_uniform_edges(0.0, top, _U_PANEL), xs)
        u, w = _gl_rule(edges, _U_ORDER)
        c = np.cos(u * self.W(u))
        n_panels = edges.size - 1
        weighted = (w * np.exp(u - top) * c).reshape(n_panels, -1).sum(axis=1)
        plain = (w * c).reshape(n_panels, -1).sum(axis=1)
        idx = np.searchsorted(edges, xs) - 1
        return np.cumsum(weighted)[idx] * np.exp(top - xs), np.cumsum(plain)[idx]

    def half_knot_ks(self, x_lo: float, x_hi: float, slack: float = 1e-9):
        """k with phase = pi/2 + k pi strictly inside (phase(x_lo), phase(x_hi)).

        Returns (required, optional): targets within `slack` of either end
        may go either way and land in `optional`.
        """
        p_lo, p_hi = self.phase(np.array([x_lo, x_hi]))
        k_lo = math.floor((p_lo - 0.5 * math.pi) / math.pi)
        k_hi = math.ceil((p_hi - 0.5 * math.pi) / math.pi)
        required, optional = set(), set()
        for k in range(k_lo, k_hi + 1):
            t = 0.5 * math.pi + k * math.pi
            if p_lo + slack < t < p_hi - slack:
                required.add(k)
            elif abs(t - p_lo) <= slack or abs(t - p_hi) <= slack:
                optional.add(k)
        return required, optional
