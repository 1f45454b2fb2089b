import cmath
import math
import sys
import threading
import time

import numpy as np
import pytest

from tauberlab import (
    GrowthTarget,
    SmoothedGrowth,
    catalog,
    growth_target,
    kernel_derivative,
    poisson_kernel,
)
from oracles import complex_division_W, integrate_complex, smooth, smooth_derivative
from tauberlab.contour import _RAY_ANGLES, _ray_edges
from tauberlab.quadrature import panel_nodes
from tauberlab.smoothing import MAX_COMPLEX_ARG, _PROXY_PANEL, _PROXY_POINTS, _cheb_nodes

SQRT_W_CONST = math.pi / math.sqrt(2.0)  # W(y) = (pi/sqrt 2) sqrt(y) for omega = sqrt


# -- kernel ---------------------------------------------------------------


def test_poisson_kernel_values():
    assert poisson_kernel(0.0, 1.0) == pytest.approx(1.0)
    assert poisson_kernel(1.0, 1.0) == pytest.approx(0.5)
    assert poisson_kernel(3.0, 2.0) == pytest.approx(2.0 / 13.0)
    with pytest.raises(ValueError):
        poisson_kernel(1.0, 0.0)


def test_kernel_derivative_order_zero_is_kernel():
    assert kernel_derivative(0, 1.0, 1.0) == pytest.approx(poisson_kernel(1.0, 1.0))


def test_kernel_derivative_first_order_closed_form():
    # dP/dy = (x^2 - y^2) / (x^2 + y^2)^2
    assert kernel_derivative(1, 2.0, 1.0) == pytest.approx(3.0 / 25.0)
    for x, y in [(0.5, 1.0), (3.0, 2.0), (1.0, 4.0)]:
        expect = (x * x - y * y) / (x * x + y * y) ** 2
        assert kernel_derivative(1, x, y) == pytest.approx(expect, rel=1e-13)


def _fd3(f, y, h):
    return (-f(y - 2 * h) + 2 * f(y - h) - 2 * f(y + h) + f(y + 2 * h)) / (2 * h**3)


def test_kernel_derivative_third_order_vs_finite_difference():
    x, y = 1.0, 2.0
    f = lambda t: poisson_kernel(x, t)
    # Richardson on the second-order stencil gives a fourth-order oracle
    h = 0.02
    oracle = (4.0 * _fd3(f, y, h / 2) - _fd3(f, y, h)) / 3.0
    assert kernel_derivative(3, x, y) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("n", range(1, 7))
def test_kernel_derivative_matches_complex_pair_form(n):
    # the symmetric form Re{(i/2) n! [(-i)^n (x+iy)^-(n+1) - i^n (x-iy)^-(n+1)]}
    for x in (0.0, 0.3, 1.0, 5.0, 40.0):
        for y in (0.1, 1.0, 7.0):
            zp, zm = complex(x, y) ** (-(n + 1)), complex(x, -y) ** (-(n + 1))
            pair = (0.5j * math.factorial(n) * ((-1j) ** n * zp - 1j ** n * zm)).real
            scale = math.factorial(n) / (y * y + x * x) ** ((n + 1) / 2)
            assert kernel_derivative(n, x, y) == pytest.approx(pair, rel=1e-13, abs=1e-14 * scale)


@pytest.mark.parametrize("n", [-1, 171])
def test_derivative_order_outside_factorial_range_rejected(n, log_sg):
    # 170! is the largest factorial that is a finite double
    with pytest.raises(ValueError, match=rf"derivative order {n} outside \[0, 170\]"):
        kernel_derivative(n, np.array([1.0]), 1.0)
    with pytest.raises(ValueError, match=rf"derivative order {n} outside \[0, 170\]"):
        log_sg.derivative(1.0, n)


def test_derivative_order_170_is_served(log_sg):
    assert math.isfinite(kernel_derivative(170, 1.0, 1.0))
    assert math.isfinite(log_sg.derivative(1.0, 170))


@pytest.mark.parametrize("n", range(7))
def test_kernel_derivative_bound(n):
    bound = lambda x, y: 2.0 ** (n + 1) * math.factorial(n) / (y * y + x * x) ** ((n + 1) / 2)
    for x in (0.0, 0.3, 1.0, 5.0, 40.0):
        for y in (0.1, 1.0, 7.0):
            assert abs(kernel_derivative(n, x, y)) <= bound(x, y) * (1 + 1e-12)


# -- smoothing, closed-form targets ---------------------------------------


def test_smooth_constant_target(const_target):
    for y in (0.3, 1.0, 25.0):
        assert smooth(const_target, y) == pytest.approx(math.pi / 2, rel=1e-10)


def test_smooth_sqrt_target(sqrt_target):
    # oracle: independent quadrature of the defining x-integral
    for y in (1.0, 4.0, 100.0):
        val, _ = integrate_complex(
            lambda t: complex(math.sqrt(y * math.tan(t))), 0.0, math.pi / 2 - 1e-13
        )
        assert val.real == pytest.approx(SQRT_W_CONST * math.sqrt(y), rel=1e-8)
        assert smooth(sqrt_target, y) == pytest.approx(SQRT_W_CONST * math.sqrt(y), rel=1e-10)
    assert SQRT_W_CONST == pytest.approx(2.221441, abs=5e-7)


def test_smooth_log_bracket(log_target):
    w10 = smooth(log_target, 10.0)
    lo = log_target.omega(10.0)
    hi = log_target.omega(100.0) + 1.0
    assert lo <= w10 <= 2.0 * hi, f"measured bracket: {lo:.6f} <= {w10:.6f} <= 2*{hi:.6f}"


def test_smooth_rejects_bad_argument(log_target):
    with pytest.raises(ValueError):
        smooth(log_target, 0.0)


def test_smooth_derivative_constant_target(const_target):
    assert smooth_derivative(const_target, 1, 2.0) == pytest.approx(0.0, abs=1e-10)


def test_smooth_derivative_sqrt_target(sqrt_target):
    # differentiate W = (pi/sqrt 2) sqrt(y) by hand: W' = (pi/(2 sqrt 2)) / sqrt(y)
    for y in (1.0, 9.0):
        expect = SQRT_W_CONST / (2.0 * math.sqrt(y))
        assert smooth_derivative(sqrt_target, 1, y) == pytest.approx(expect, rel=1e-9)


def test_smooth_derivative_matches_finite_difference(log_target):
    y, h = 5.0, 0.02
    d1 = lambda hh: (smooth(log_target, y + hh) - smooth(log_target, y - hh)) / (2 * hh)
    oracle = (4.0 * d1(h / 2) - d1(h)) / 3.0
    got = smooth_derivative(log_target, 1, y)
    assert got >= 0.0
    assert got == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("y", np.logspace(0, 3, 10).tolist())
def test_smooth_derivative_fd_grid(log_target, y):
    h = 0.01 * y
    d1 = lambda hh: (smooth(log_target, y + hh) - smooth(log_target, y - hh)) / (2 * hh)
    oracle1 = (4.0 * d1(h / 2) - d1(h)) / 3.0
    assert smooth_derivative(log_target, 1, y) == pytest.approx(oracle1, rel=1e-5)
    d2 = lambda hh: (
        smooth(log_target, y + hh) - 2 * smooth(log_target, y) + smooth(log_target, y - hh)
    ) / hh**2
    oracle2 = (4.0 * d2(h / 2) - d2(h)) / 3.0
    assert smooth_derivative(log_target, 2, y) == pytest.approx(oracle2, rel=1e-5, abs=1e-10)


# -- V --------------------------------------------------------------------


def test_eval_V_constant_and_sqrt(const_sg, sqrt_target):
    assert const_sg.V(3.0) == pytest.approx(math.pi / 2, rel=1e-9)
    sg = SmoothedGrowth(sqrt_target)
    for y in (1.0, 16.0):
        assert sg.V(y) == pytest.approx(1.5 * SQRT_W_CONST * math.sqrt(y), rel=1e-9)


def test_V_positive_and_below_5W(log_sg, pow_sg):
    ys = np.logspace(-1, 5, 25)
    for sg in (log_sg, pow_sg):
        V = sg.V(ys)
        W = sg.W(ys)
        assert np.all(V > 0)
        assert np.all(V <= 5.0 * W * (1 + 1e-10))


# -- complex extension -----------------------------------------------------


def test_smooth_complex_real_axis(log_sg, log_target):
    val = log_sg.kernel_complex(3.0 + 0.0j)
    assert val.imag == pytest.approx(0.0, abs=1e-12)
    assert val.real == pytest.approx(smooth(log_target, 3.0), rel=1e-10)


def test_smooth_complex_conjugate_symmetry(log_sg):
    z = 4.0 * cmath.exp(0.3j)
    assert log_sg.kernel_complex(z.conjugate()) == pytest.approx(
        log_sg.kernel_complex(z).conjugate(), rel=1e-12
    )


def test_smooth_complex_matches_taylor_series(log_target):
    sg = SmoothedGrowth(log_target)
    x0, z = 10.0, 10.0 * cmath.exp(0.05j)
    series = sum(sg.derivative(x0, n) / math.factorial(n) * (z - x0) ** n for n in range(9))
    assert sg.kernel_complex(z) == pytest.approx(series, rel=1e-6)


def test_kernel_complex_wide_angle_vs_adaptive(log_sg, log_target):
    # independent adaptive check beyond the Taylor sector
    for ang in (0.8, 1.05):  # up to ~60 degrees
        z = 5.0 * cmath.exp(1j * ang)
        om = log_target.omega

        def f(t):
            x = abs(z) * math.tan(t)
            sec2 = 1.0 + math.tan(t) ** 2
            return complex(om(x)) * z / (z * z + x * x) * abs(z) * sec2

        # breakpoints: omega's kink and the kernel ridge at x = |z|
        kink = math.atan2(log_target.branch_point, abs(z))
        oracle, _ = integrate_complex(
            f, 0.0, math.pi / 2 - 1e-13, points=[kink, math.pi / 4]
        )
        assert log_sg.kernel_complex(z) == pytest.approx(oracle, rel=5e-10)


def test_kernel_complex_argument_cap(log_sg):
    with pytest.raises(ValueError):
        log_sg.kernel_complex(cmath.exp(1.4j))


def _catalog_sg(name):
    rate = {"log": catalog("log"), "pow0.5": catalog("pow", alpha=0.5),
            "pow0.25": catalog("pow", alpha=0.25), "loglog": catalog("loglog")}[name]
    return SmoothedGrowth(growth_target(rate))


@pytest.mark.parametrize("name", ["log", "pow0.5", "pow0.25", "loglog"])
def test_kernel_complex_matches_complex_division(name):
    # the two real products against the complex quotient they replace, for
    # |z| in [1e-3, 1e4] and |arg z| up to the cap, ends included
    sg = _catalog_sg(name)
    rng = np.random.default_rng(17)
    mod = np.r_[1e-3, 1e4, 1e-3, 1e4, np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 600))]
    arg = np.r_[MAX_COMPLEX_ARG, -MAX_COMPLEX_ARG, 0.0, 0.0,
                rng.uniform(-MAX_COMPLEX_ARG, MAX_COMPLEX_ARG, 600)]
    z = mod * np.exp(1j * arg)
    got, want = sg.kernel_complex(z), complex_division_W(sg, z)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


# -- ray and arc proxies -----------------------------------------------------


@pytest.mark.parametrize("R0", [1.0, 2.0])
@pytest.mark.parametrize("sg_name", ["log_sg", "pow_sg"])
def test_ray_proxy_matches_exact_sum(request, sg_name, R0):
    sg = request.getfixturevalue(sg_name)
    r, _ = panel_nodes(_ray_edges(R0, 2000.0)[0], 16)
    # every 37th node plus both ends: the exact sum on all ~65k is slow
    pick = np.unique(np.r_[np.arange(0, r.size, 37), r.size - 1])
    for ang, proxy in zip(_RAY_ANGLES, sg.kernel_complex_ray(r, _RAY_ANGLES)):
        proxy = proxy[pick]
        exact = sg.kernel_complex(r[pick] * cmath.exp(1j * ang))
        assert np.max(np.abs(proxy - exact) / np.abs(exact)) <= 1e-13, ang


@pytest.mark.parametrize("R0", [0.5, 1.0, 2.0, 7.3])
@pytest.mark.parametrize("sg_name", ["log_sg", "pow_sg"])
def test_arc_proxy_matches_exact_sum(request, sg_name, R0):
    sg = request.getfixturevalue(sg_name)
    # both signs up to the cap, and the graded nodes an arc crowds near t = 0
    t = np.r_[np.linspace(-MAX_COMPLEX_ARG, MAX_COMPLEX_ARG, 301), 1.2 * 0.5 ** np.arange(40)]
    exact = sg.kernel_complex(R0 * np.exp(1j * t))
    proxy = sg.kernel_complex_arc(R0, t)
    assert np.max(np.abs(proxy - exact) / np.abs(exact)) <= 1e-13


def test_arc_proxy_rejects_angles_past_the_cap(log_sg):
    with pytest.raises(ValueError, match="arc evaluation needs"):
        log_sg.kernel_complex_arc(1.0, np.array([0.1, 1.3]))


class _ProbeGrowth(SmoothedGrowth):
    # elementwise stand-in for the kernel sum, so samples are exact
    def kernel_complex(self, z):
        return 1.0 / (1.0 + np.asarray(z))


def _on_node(t: float) -> float:
    # a y whose log is exactly t, so the proxy lands on one of its nodes
    y = math.exp(t)
    while np.log(y) != t:
        y = math.nextafter(y, math.inf if np.log(y) < t else 0.0)
    return y


def test_ray_proxy_returns_sample_at_node():
    # the lattice contract: a radius whose log r is a node of panel k =
    # floor(log r / _PROXY_PANEL) gets that node's sample, whatever else the
    # call holds; the other radii interpolate
    sg = _ProbeGrowth(GrowthTarget(rho_tilde=None, omega=np.sqrt))
    ang = 0.6
    rot = complex(math.cos(ang), math.sin(ang))
    nodes = _cheb_nodes(np.array([2.0]) * _PROXY_PANEL, np.array([3.0]) * _PROXY_PANEL)[0]
    on = np.array([_on_node(t) for t in nodes[[0, 5, 17]]])
    r = np.r_[on, 3.0, 0.9, 55.0]
    (out,) = sg.kernel_complex_ray(r, [ang])
    assert np.all(np.isfinite(out))
    assert np.array_equal(out[:3], sg.kernel_complex(np.exp(nodes[[0, 5, 17]]) * rot))
    assert out[3:] == pytest.approx(1.0 / (1.0 + r[3:] * rot), rel=1e-14)


class _CountingComplex(SmoothedGrowth):
    def __init__(self, target):
        super().__init__(target)
        self.exact_calls = []

    def kernel_complex(self, z):
        self.exact_calls.append(np.size(z))
        return super().kernel_complex(z)


def _ray_radii(R0):
    r, _ = panel_nodes(_ray_edges(R0, 2000.0)[0], 16)
    return r[::53]


def test_ray_and_arc_panels_do_not_depend_on_history(log_target):
    # a fresh handle against one warmed through the other anchor (and, for
    # the arcs, the other spans) first; every panel is filled once, by one
    # exact call of fixed shape
    t2 = np.linspace(0.0, _RAY_ANGLES[2], 97)
    fresh = SmoothedGrowth(log_target)
    ray_ref = fresh.kernel_complex_ray(_ray_radii(2.0), _RAY_ANGLES)
    arc_ref = fresh.kernel_complex_arc(2.0, t2)
    warm = _CountingComplex(log_target)
    warm.kernel_complex_ray(_ray_radii(1.0), _RAY_ANGLES)
    for span in _RAY_ANGLES:
        warm.kernel_complex_arc(1.0, np.linspace(0.0, span, 50))
        warm.kernel_complex_arc(2.0, np.linspace(0.0, span, 50))
    built = len(warm.exact_calls)
    for ang, got, ref in zip(_RAY_ANGLES, warm.kernel_complex_ray(_ray_radii(2.0), _RAY_ANGLES),
                             ray_ref):
        assert np.array_equal(got, ref), ang
    assert np.array_equal(warm.kernel_complex_arc(2.0, t2), arc_ref)
    # log r in [0, log 2000] holds 16 panels, [log 2, log 2000] is inside it,
    # and each anchor has three arc panels on [0, cap]
    assert built == 6 * 16 + 2 * 3
    assert warm.exact_calls == [_PROXY_POINTS] * built


@pytest.mark.parametrize("piece", ["ray", "arc"])
def test_complex_panel_race_builds_once(log_target, piece):
    # two threads ask for one panel nobody has built; one exact call fills it
    if piece == "ray":
        ask = lambda sg: sg.kernel_complex_ray(np.array([3.1, 3.2]), _RAY_ANGLES[-1:])[0]
    else:
        ask = lambda sg: sg.kernel_complex_arc(1.0, np.array([0.5, 0.6]))
    ref = ask(SmoothedGrowth(log_target))
    sg = _CountingComplex(log_target)
    start = threading.Barrier(2)
    out = [None, None]

    def worker(i):
        start.wait()
        out[i] = ask(sg)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sg.exact_calls == [_PROXY_POINTS]
    assert np.array_equal(out[0], ref) and np.array_equal(out[1], ref)


def test_ray_proxy_angles_give_what_each_angle_alone_gives(log_sg):
    # the angles of one call share weights and denominators, nothing else
    r, _ = panel_nodes(_ray_edges(1.0, 2000.0)[0], 16)
    together = log_sg.kernel_complex_ray(r, _RAY_ANGLES)
    for ang, got in zip(_RAY_ANGLES, together):
        assert np.array_equal(got, log_sg.kernel_complex_ray(r, [ang])[0]), ang


def test_ray_proxy_radius_alone_matches_full_ray(log_sg):
    # a radius asked alone is gathered as the one point of a sparse panel;
    # inside the full ray it sits in a broadcast panel (>= 512 points) or a
    # gathered one, and in a broadcast panel on either side of a 4,096-row
    # chunk edge. Its bits must not move.
    r, _ = panel_nodes(_ray_edges(1.0, 2000.0)[0], 16)
    assert r.size == 64880
    k = np.floor(np.log(r) / _PROXY_PANEL)
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    sizes = np.diff(np.r_[starts, r.size])
    assert np.any(sizes < 512) and np.any(sizes > 4096)
    pick = np.r_[starts, starts + sizes - 1]  # both ends of every panel
    for lo in starts[sizes > 4096]:
        pick = np.r_[pick, lo + 4095, lo + 4096]
    full = log_sg.kernel_complex_ray(r, _RAY_ANGLES)
    for i in np.unique(pick):
        alone = log_sg.kernel_complex_ray(r[i : i + 1], _RAY_ANGLES)
        for ang, f, a in zip(_RAY_ANGLES, full, alone):
            assert np.array_equal(f[i : i + 1], a), (i, ang)


# -- real-axis proxy ----------------------------------------------------------

_PROXY_Y = np.exp(np.random.default_rng(7).uniform(math.log(1e-9), math.log(1e6), 4000))


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("sg_name", ["log_sg", "pow_sg", "sqrt_sg"])
def test_real_proxy_matches_exact_sum(request, sg_name, n):
    # |proxy - exact| <= 1e-13 W for y^n W^(n)(y), at random log-uniform y
    sg = request.getfixturevalue(sg_name)
    y = _PROXY_Y
    err = np.abs(sg.scaled(y, n) - y ** n * sg.derivative(y, n))
    assert np.max(err / sg.derivative(y, 0)) <= 1e-13


def test_real_proxy_bits_do_not_depend_on_history(log_target):
    y = np.array([0.37, 3.0, 41.5, 2.2e3])
    fresh = SmoothedGrowth(log_target).W(y)
    warm = SmoothedGrowth(log_target)
    warm.V(np.logspace(-2, 4, 777))
    warm.V_prime(1.1 * y)
    warm.phase(5.0)
    assert np.array_equal(warm.W(y), fresh)


class _CountingGrowth(SmoothedGrowth):
    def __init__(self, target):
        super().__init__(target)
        self.exact_calls = []

    def derivative(self, y, n):
        self.exact_calls.append((np.size(y), n))
        return super().derivative(y, n)


def test_real_proxy_panel_race_builds_once(log_target):
    y = np.array([3.1, 3.2])  # both in the panel [1.0, 1.5] of log y
    ref = SmoothedGrowth(log_target).W(y)
    sg = _CountingGrowth(log_target)
    start = threading.Barrier(2)
    out = [None, None]

    def worker(i):
        start.wait()
        out[i] = sg.W(y)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sg.exact_calls == [(28, 0)]
    assert np.array_equal(out[0], ref) and np.array_equal(out[1], ref)


def test_real_proxy_serves_every_y(log_sg):
    # panels are keyed by floor(log y / width) alone, so far y is served too
    y = np.array([1e-300, 1e-100, 1e-20, 1e20, 1e100, 1e150])
    w = log_sg.derivative(y, 0)
    for n in (0, 1):
        err = np.abs(log_sg.scaled(y, n) - y ** n * log_sg.derivative(y, n))
        assert np.all(err <= 1e-13 * w), n


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_real_proxy_rejects_y_without_a_panel(log_sg, bad):
    with pytest.raises(ValueError, match="finite y > 0"):
        log_sg.W(np.array([1.0, bad]))


def test_real_proxy_bits_do_not_depend_on_the_batch(log_sg):
    # a crowded panel (its nodes broadcast), scattered points (gathered row
    # by row), unsorted input and points on panel edges: every point keeps
    # the bits it gets alone, and several orders asked at once keep theirs
    rng = np.random.default_rng(11)
    crowded = np.exp(rng.uniform(1.0, 1.5, 1500))
    on_nodes = np.array([_on_node(1.0), _on_node(1.5), _on_node(-2.0)])
    y = rng.permutation(np.concatenate([crowded, _PROXY_Y[:300], on_nodes]))
    w0, w1, w2 = log_sg.scaled_orders(y, (0, 1, 2))
    assert np.all(np.isfinite(w0) & np.isfinite(w1) & np.isfinite(w2))
    for n, w in ((0, w0), (1, w1), (2, w2)):
        assert np.array_equal(log_sg.scaled(y, n), w), n
    picks = np.concatenate([np.arange(0, y.size, 41), np.flatnonzero(np.isin(y, on_nodes))])
    for i in picks:
        assert log_sg.scaled_orders(float(y[i]), (0, 1, 2)) == (w0[i], w1[i], w2[i]), y[i]


def test_exact_orders_share_one_pass_bit_for_bit(log_sg):
    y = np.logspace(-3, 6, 300)  # more points than one chunk of the node sum
    orders = (6, 0, 3, 1)
    for n, got in zip(orders, log_sg.derivative_orders(y, orders)):
        assert np.array_equal(got, log_sg.derivative(y, n)), n
    assert log_sg.derivative_orders(2.5, (2, 0)) == (log_sg.derivative(2.5, 2),
                                                     log_sg.derivative(2.5, 0))


def test_real_proxy_scalar_matches_array(log_sg):
    y = np.logspace(-3, 5, 97)
    for f in (log_sg.W, log_sg.V, log_sg.V_prime, log_sg.phase):
        arr = f(y)
        assert all(f(float(v)) == arr[i] for i, v in enumerate(y)), f.__name__


# -- memo --------------------------------------------------------------------


def test_memo_builds_each_key_once_under_race(const_target):
    sg = SmoothedGrowth(const_target)
    calls = []
    n = 8  # more threads than cores
    start = threading.Barrier(n)

    def build():
        calls.append(1)
        time.sleep(0.2)  # hold the build open while the others arrive
        return object()

    results = []

    def worker():
        start.wait()
        results.append(sg.memo(("probe",), build))

    threads = [threading.Thread(target=worker) for _ in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(results) == n and all(r is results[0] for r in results)


# -- evaluator handle properties --------------------------------------------


def test_grid_tier_matches_adaptive_tier(log_sg, log_target):
    for y in (0.5, 3.0, 47.0, 1e4):
        assert log_sg.W(y) == pytest.approx(smooth(log_target, y), rel=1e-10)
    for n in (1, 2):
        assert log_sg.derivative(20.0, n) == pytest.approx(
            smooth_derivative(log_target, n, 20.0), rel=1e-8
        )


def test_evaluator_is_pure_and_shape_consistent(log_sg):
    a = log_sg.W(11.0)
    b = log_sg.W(11.0)
    assert a == b
    arr = log_sg.W(np.array([11.0, 12.0]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(a, rel=1e-14)


# -- smoothing-lemma invariants on a sample grid -----------------------------

GRID = np.logspace(0, 6, 13)


def test_derivative_nonnegative_on_grid(log_sg):
    assert np.all(log_sg.derivative(GRID, 1) >= -1e-9)


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.75, 1.0])
def test_scaling_inequality_on_grid(log_sg, a):
    assert np.all(log_sg.W(a * GRID) >= a * log_sg.W(GRID) - 1e-9)


@pytest.mark.parametrize("n", range(1, 7))
def test_derivative_bound_on_grid(log_sg, n):
    W = log_sg.W(GRID)
    Wn = log_sg.derivative(GRID, n)
    ratio = np.abs(Wn) * GRID**n / (2.0 ** (n + 1) * math.factorial(n) * W)
    assert np.all(ratio <= 1.0 + 1e-6)


def test_growth_sandwich_on_grid(log_sg, log_target):
    W = log_sg.W(GRID)
    lo = W / log_target.omega(GRID)
    hi = W / (log_target.omega(GRID**2) + 1.0)
    assert np.min(lo) > 0, f"measured c1 = {np.min(lo):.4f}"
    assert np.isfinite(np.max(hi)), f"measured c2 = {np.max(hi):.4f}"
    assert np.max(W / GRID) < math.pi  # far below even the crude linear bound
