"""Contour continuation: bent-path transforms against independent checks.

The reference points use the adjacent direct quadrature wherever the
real-axis integral converges, closed forms on degenerate kernels, and
internal consistency (anchor doubling, conjugation, circle integrals)
where no direct evaluation exists.
"""

import math
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import simpson

from tauberlab import (
    ContourPath,
    QuadratureConfig,
    SmoothedGrowth,
    cauchy_circle,
    contour_F,
    direct_F,
    eval_tau,
    laplace_cos,
    laplace_dS,
    laplace_tau,
)
from oracles import full_scan_pick, growth_path_F
from tauberlab.quadrature import QuadratureError
import tauberlab.contour as contour_mod

CFG8 = QuadratureConfig(abs_tol=1e-8)
# W = (pi/sqrt 2) sqrt(y) on the sqrt kernel passes 16 just below this
# quarter-octave point, so the growth path's tilt stays under arctan(1/4)
SQRT_R0 = 2.0 ** (23.0 / 4.0)


@pytest.fixture(scope="module")
def path():
    return ContourPath()


def _direct(sg, s):
    s = complex(s)
    return direct_F(sg, s, 42.0 / s.real)


def test_fixed_ray_cache_matches_exact_rebuild(log_sg):
    # the steepest production angle, where the proxy's strip is narrowest
    ray = contour_mod._rays(log_sg, ContourPath())[contour_mod._RAY_ANGLES[-1]]
    pick = np.unique(np.r_[np.arange(0, ray.z.size, 37), ray.z.size - 1])
    z = ray.z[pick]
    exact = 1j * z * log_sg.kernel_complex(z)
    assert np.max(np.abs(ray.g0[pick] - exact) / np.abs(exact)) <= 1e-13


@pytest.mark.parametrize("R0", [1.0, 2.0])
def test_arc_cache_matches_exact_sum(log_sg, pow_sg, R0):
    # every arc node, graded levels included, at each production angle
    for sg in (log_sg, pow_sg):
        for ang in contour_mod._RAY_ANGLES:
            arc = contour_mod._arc_cache(sg, R0, ang)
            exact = 1j * arc.z * sg.kernel_complex(arc.z)
            assert np.max(np.abs(arc.g0 - exact) / np.abs(exact)) <= 1e-13, (R0, ang)


def _continue_points():
    # every s the default `continue` grid evaluates F at: each point, its
    # conjugate (laplace_cos) and the s - 1 shift of laplace_dS with its conjugate
    from tauberlab.cli import POLE_GUARD, _DEFAULT_S_GRID

    pts = set()
    for s in _DEFAULT_S_GRID:
        pts.update((s, s.conjugate()))
        if abs(s - 1.0) > POLE_GUARD:
            pts.update((s - 1.0, (s - 1.0).conjugate()))
    return sorted(pts, key=lambda z: (z.real, z.imag))


@pytest.mark.parametrize("R0", [1.0, 2.0])
def test_ray_truncation_leaves_only_dead_nodes(log_sg, R0):
    # the envelope rule's contract on the stop _pick_angle returns: from it
    # on, each summed node's log-magnitude sits below the floor, the node
    # before the last kept one does not, and the stop lies in dense panels
    path = ContourPath(R0=R0)
    for s in _continue_points():
        angle, stop = contour_mod._pick_angle(log_sg, path, s)
        ray = contour_mod._rays(log_sg, path)[angle]
        g = (ray.g0 - s * ray.z).real
        assert 1 <= stop <= ray.n_dense, (s, angle)
        assert np.all(g[stop - 1:] < contour_mod._TRUNC_LOG), (s, angle)
        assert stop == 1 or g[stop - 2] >= contour_mod._TRUNC_LOG, (s, angle)


# the reach grid of the README: Re s in linspace(-8, 3, 10), Im s in linspace(0, 8, 8)
_REACH_GRID = [complex(a, b) for a in np.linspace(-8.0, 3.0, 10) for b in np.linspace(0.0, 8.0, 8)]


def _pick_or_error(pick, sg, path, s):
    try:
        return pick(sg, path, s)
    except QuadratureError as exc:
        return f"QuadratureError: {exc}"


@pytest.mark.parametrize("R0", [1.0, 2.0])
@pytest.mark.parametrize("sg_name", ["log_sg", "pow_sg"])
def test_pick_matches_full_scan(request, sg_name, R0):
    # the block bounds decide nothing the full scan would decide otherwise:
    # the same angle, the same stop, the same error
    sg = request.getfixturevalue(sg_name)
    path = ContourPath(R0=R0)
    for s in _continue_points() + _REACH_GRID:
        got = _pick_or_error(contour_mod._pick_angle, sg, path, s)
        assert got == _pick_or_error(full_scan_pick, sg, path, s), s


def test_block_bounds_hold_every_node(log_sg):
    # no computed node value of a block exceeds the block's bound
    c_values = np.r_[0.0, -0.0, np.linspace(-12.0, 12.0, 41), 1e-9, -1e-9]
    for ang in contour_mod._RAY_ANGLES:
        blocks = contour_mod._rays(log_sg, ContourPath())[ang].blocks
        for c in c_values:
            g = blocks.a - blocks.r * c
            assert np.all(np.maximum.reduceat(g, blocks.start) <= blocks.bounds(c)), (ang, c)


class _CountingRays(SmoothedGrowth):
    def __init__(self, target):
        super().__init__(target)
        self.ray_calls = 0

    def kernel_complex_ray(self, r, angles):
        self.ray_calls += 1
        return super().kernel_complex_ray(r, angles)


def test_ray_build_race_builds_once(log_target):
    # two threads ask for one anchor's rays nobody has built: one build
    # fills all six angles, and both threads get its rays
    sg = _CountingRays(log_target)
    path = ContourPath()
    start = threading.Barrier(2)
    out = [None, None]

    def worker(i):
        start.wait()
        out[i] = contour_mod._rays(sg, path)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sg.ray_calls == 1
    assert out[0] is out[1]
    assert tuple(out[0]) == contour_mod._RAY_ANGLES


class TestDecayBound:
    """The ray is cut where its measured decay envelope drops below the floor."""

    def test_truncation_radius_stability(self, pow_sg, pow_target, monkeypatch):
        # enlarging the ray end by 20% must not move a converged value; the
        # rays are memoized per anchor, so the longer ones need a fresh handle
        a = contour_F(pow_sg, ContourPath(), 2.0)
        monkeypatch.setattr(contour_mod, "_R_MAX", 2400.0)
        b = contour_F(SmoothedGrowth(pow_target), ContourPath(), 2.0)
        assert abs(a - b) <= 1e-9


class TestContourF:
    def test_matches_direct_on_overlap_log(self, log_sg, path):
        for s in (2.0, 1 + 1j, 3 - 1j, 1 + 5j):
            c = contour_F(log_sg, path, s)
            d = _direct(log_sg, s)
            assert abs(c - d) <= 1e-6 * (1.0 + abs(d))

    def test_matches_direct_on_overlap_pow(self, pow_sg, path):
        for s in (2.0, 2 + 5j, 1 - 5j):
            c = contour_F(pow_sg, path, s)
            d = _direct(pow_sg, s)
            assert abs(c - d) <= 1e-6 * (1.0 + abs(d))

    def test_constant_kernel_closed_form(self, const_sg, path):
        # W == pi/2 exactly, so F(s) = 1/(s - i pi/2) everywhere; the
        # continued values must hit the closed form off the convergence
        # half-plane too
        for s in (2.0, -1.0, -2 - 1j):
            got = contour_F(const_sg, path, s)
            want = 1.0 / (complex(s) - 0.5j * math.pi)
            assert abs(got - want) <= 1e-10

    def test_anchor_doubling_invariance(self, log_sg, pow_sg):
        pts = {"log": (2.0, -1.0), "pow": (2.0, -1.0, -2 + 3j)}
        for name, sg in (("log", log_sg), ("pow", pow_sg)):
            for s in pts[name]:
                a = contour_F(sg, ContourPath(R0=1.0), s)
                b = contour_F(sg, ContourPath(R0=2.0), s)
                assert abs(a - b) <= 1e-8 * (1.0 + abs(a)), (name, s)

    def test_reproducible_across_instances(self, log_target):
        a = contour_F(SmoothedGrowth(log_target), ContourPath(), -1.0)
        b = contour_F(SmoothedGrowth(log_target), ContourPath(), -1.0)
        assert abs(a - b) <= 1e-9

    def test_near_imaginary_s_stays_accurate(self, log_sg, path):
        # regression: a shallow ray here decays so slowly that its
        # truncation would land in unresolved panels; the steep ray
        # must be used instead
        s = 0.05 + 0.5j
        c = contour_F(log_sg, path, s)
        d = direct_F(log_sg, s, 840.0)
        assert abs(c - d) <= 1e-8 * (1.0 + abs(d))

    def test_reaches_near_five_i(self, log_sg, path):
        # the default `continue` grid needs F(+-5j) (about 7.6 -+ 38j, large
        # from a near-stationary phase); next to 5j the 0.05 ray keeps the
        # hump under e^1, while the steepest ray peaks near e^74 at 5j
        s = 0.05 + 5j
        c = contour_F(log_sg, path, s)
        d = direct_F(log_sg, s, 45.0 / s.real)
        assert abs(c - d) <= 1e-9 * abs(d)

    def test_unreachable_point_names_s(self, log_sg, path):
        with pytest.raises(QuadratureError, match=r"-1\+20j"):
            contour_F(log_sg, path, -1 + 20j)

    def test_path_field_validation(self):
        with pytest.raises(ValueError):
            ContourPath(R0=-1.0)
        with pytest.raises(ValueError, match="R0 <= 2000"):
            ContourPath(R0=2000.5)


class TestGrowthProfile:
    """The paper's tilt arctan(1/sqrt W) as a second path (tests/oracles.py).

    On the sqrt kernel the integrand is dead 2 past SQRT_R0, so R_max =
    R0 + 2 suffices; the oracle raises if it is not.
    """

    def test_matches_direct_where_it_converges(self, sqrt_sg, path):
        for s in (0.1, 0.5, 2.0):
            g = growth_path_F(sqrt_sg, SQRT_R0, s, SQRT_R0 + 2.0)
            d = _direct(sqrt_sg, s)
            assert abs(g - d) <= 1e-9 * (1.0 + abs(d))
            # Cauchy's theorem: the fixed ray must land on the same value
            assert abs(contour_F(sqrt_sg, path, s) - g) <= 1e-9 * (1.0 + abs(g))

    def test_anchor_doubling(self, sqrt_sg):
        a = growth_path_F(sqrt_sg, SQRT_R0, 0.1, SQRT_R0 + 2.0)
        b = growth_path_F(sqrt_sg, 2 * SQRT_R0, 0.1, 2 * SQRT_R0 + 2.0)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))

    def test_rejects_anchor_with_slow_growth(self, log_sg):
        with pytest.raises(ValueError, match="W\\(R0\\) > 9"):
            growth_path_F(log_sg, 1.0, 2.0, 3.0)


class TestLaplaceCos:
    def test_real_on_real_axis(self, log_sg, path):
        v = laplace_cos(log_sg, path, 2.0)
        assert v.imag == 0.0
        d = _direct(log_sg, 2.0)
        assert abs(v.real - d.real) <= 1e-9

    def test_conjugate_symmetry(self, pow_sg, path):
        for s in (1 + 5j, -2 + 3j):
            a = laplace_cos(pow_sg, path, s)
            b = laplace_cos(pow_sg, path, complex(s).conjugate())
            assert abs(b - a.conjugate()) <= 1e-14 * (1.0 + abs(a))

    def test_value_at_zero_is_tail_integral(self, log_sg, pow_sg, path):
        for sg in (log_sg, pow_sg):
            v = laplace_cos(sg, path, 0.0)
            assert abs(v - eval_tau(sg, 0.0, CFG8)) <= 1e-5


class TestLaplaceDS:
    def test_pole_raises(self, log_sg, path):
        with pytest.raises(ValueError, match="pole"):
            laplace_dS(log_sg, path, 1.0)

    def test_residue_circle(self, log_sg, path):
        res = cauchy_circle(lambda s: laplace_dS(log_sg, path, s), 1.0, 0.3, N=32)
        assert abs(res - 1.0) <= 1e-4

    def test_matches_independent_transform(self, log_sg, path):
        # Simpson quadrature of e^{(1-s)u} (1 + cos(u W(u))) head-on
        s = 3.0
        u = np.linspace(0.0, 20.0, 20001)
        w = np.empty_like(u)
        w[0] = 0.0
        w[1:] = u[1:] * log_sg.W(u[1:])
        vals = np.exp((1.0 - s) * u) * (1.0 + np.cos(w))
        want = simpson(vals, x=u)
        got = laplace_dS(log_sg, path, s)
        assert got.imag == 0.0
        assert abs(got.real - want) <= 1e-6

    def test_pole_limit_from_the_right(self, log_sg, path):
        for k in (1, 2, 3, 4):
            s = 1.0 + 10.0 ** -k
            v = (s - 1.0) * laplace_dS(log_sg, path, s)
            assert abs(v - 1.0) <= 0.5 * 10.0 ** -k


class TestLaplaceTau:
    def test_removable_singularity_at_zero(self, log_sg, path):
        v0 = laplace_tau(log_sg, path, 0.0, CFG8)
        vh = laplace_tau(log_sg, path, 1e-3, CFG8)
        assert v0.imag == pytest.approx(0.0, abs=1e-14)
        assert abs(v0 - vh) <= 5e-4

    def test_matches_direct_quadrature(self, log_sg, path):
        s = 2.0
        x = np.linspace(0.0, 12.0, 1201)
        tau = np.array([eval_tau(log_sg, float(t), CFG8) for t in x])
        want = simpson(tau * np.exp(-s * x), x=x)
        got = laplace_tau(log_sg, path, s, CFG8)
        assert abs(got - want) <= 1e-5

    def test_stable_at_continuation_point(self, pow_sg):
        a = laplace_tau(pow_sg, ContourPath(R0=1.0), -2 + 3j, CFG8)
        b = laplace_tau(pow_sg, ContourPath(R0=2.0), -2 + 3j, CFG8)
        assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


class TestCauchyCircle:
    def test_simple_pole_residue(self):
        v = cauchy_circle(lambda s: 1.0 / (s - 1.0), 1.0, 0.5, N=64)
        assert abs(v - 1.0) <= 1e-12

    def test_entire_function_integrates_to_zero(self):
        v = cauchy_circle(lambda s: s * s, 0.3 + 0.1j, 0.7, N=64)
        assert abs(v) <= 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cauchy_circle(lambda s: s, 0.0, 0.5, N=8)
        with pytest.raises(ValueError):
            cauchy_circle(lambda s: s, 0.0, 0.0)

    def test_transform_is_holomorphic_on_circle(self, log_sg, path):
        rot = np.exp(2j * math.pi * np.arange(32) / 32)
        g = max(abs(laplace_cos(log_sg, path, 0.5 * complex(e))) for e in rot[:8])
        v = cauchy_circle(lambda s: laplace_cos(log_sg, path, s), 0.0, 0.5, N=32)
        assert abs(v) <= 1e-6 * g

    def test_transform_meromorphy_away_from_pole(self, log_sg, path):
        # circle around s=0.5 stays clear of the pole at 1, so the
        # Laplace-Stieltjes transform integrates to zero
        v = cauchy_circle(lambda s: laplace_dS(log_sg, path, s), 0.5, 0.2, N=32)
        assert abs(v) <= 1e-10
