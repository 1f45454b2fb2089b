"""Contour continuation: bent-path transforms against independent checks.

The reference points use the adjacent direct quadrature wherever the
real-axis integral converges, closed forms on degenerate kernels, and
internal consistency (anchor doubling, conjugation, circle integrals)
where no direct evaluation exists.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from tauberlab import (
    ContourPath,
    GrowthTarget,
    QuadratureConfig,
    SmoothedGrowth,
    catalog,
    cauchy_circle,
    choose_R0,
    contour_F,
    decay_bound,
    direct_F,
    eval_tau,
    growth_target,
    laplace_cos,
    laplace_dS,
    laplace_tau,
)
from tauberlab.quadrature import QuadratureError
import tauberlab.contour as contour_mod

CFG8 = QuadratureConfig(abs_tol=1e-8)


@pytest.fixture(scope="module")
def sqrt_sg(sqrt_target):
    return SmoothedGrowth(sqrt_target)


@pytest.fixture(scope="module")
def path():
    return ContourPath()


def _direct(sg, s):
    s = complex(s)
    return direct_F(sg, s, 42.0 / s.real)


def test_fixed_ray_cache_matches_exact_rebuild(log_sg):
    ray = contour_mod._ray_cache(log_sg, ContourPath(), math.pi / 3)
    pick = np.unique(np.r_[np.arange(0, ray.z.size, 37), ray.z.size - 1])
    z = ray.z[pick]
    exact = 1j * z * log_sg.kernel_complex(z)
    assert np.max(np.abs(ray.g0[pick] - exact) / np.abs(exact)) <= 1e-13


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
    # the envelope rule's contract: from the stop index on, every ray node's
    # log-magnitude sits below the floor, and the stop lies in dense panels
    path = ContourPath(R0=R0)
    for s in _continue_points():
        angles = [a for a in (contour_mod._shallow_angle(s), contour_mod._pick_angle(s))
                  if a is not None]
        stops = 0
        for ang in angles:
            ray = contour_mod._ray_cache(log_sg, path, ang)
            try:
                stop = contour_mod._ray_stop(ray, path, s)
            except QuadratureError:
                continue
            stops += 1
            assert stop <= ray.n_dense, (s, ang)
            tail = (ray.g0 - s * ray.z)[stop:].real
            assert np.all(tail < contour_mod._TRUNC_LOG), (s, ang)
        assert stops, s


class TestChooseR0:
    def test_sqrt_oracle_lands_on_next_grid_point(self, sqrt_sg):
        # W = (pi/sqrt 2) sqrt(y) crosses 16 at y ~ 51.9; the quarter-octave
        # grid point just above is 2**(23/4)
        assert choose_R0(sqrt_sg) == 2.0 ** (23.0 / 4.0)

    def test_deterministic_across_instances(self, sqrt_target):
        a = choose_R0(SmoothedGrowth(sqrt_target))
        b = choose_R0(SmoothedGrowth(sqrt_target))
        assert a == b

    def test_growth_ray_tilt_within_contract(self, sqrt_sg, pow_sg):
        for sg in (sqrt_sg, pow_sg):
            r0 = choose_R0(sg)
            tilt = math.atan(1.0 / math.sqrt(float(sg.W(r0))))
            assert 0.0 < tilt < math.atan(1.0 / 3.0)

    def test_slow_growth_errors(self):
        sg = SmoothedGrowth(growth_target(catalog("loglog")))
        with pytest.raises(ValueError, match="too slow"):
            choose_R0(sg)


class TestDecayBound:
    def test_pinned_constant_arithmetic(self):
        # W == 100 via a constant kernel: the bound reduces to
        # -r*100/(2 sqrt(101)) + (1 + 0)*r at r=10
        tgt = GrowthTarget(
            rho_tilde=None,
            omega=lambda x: np.full_like(np.asarray(x, dtype=float), 200.0 / np.pi),
        )
        sg = SmoothedGrowth(tgt)
        want = -10.0 * 100.0 / (2.0 * math.sqrt(101.0)) + 10.0
        assert decay_bound(sg, 10.0, 0.0, c_emp=1.0) == pytest.approx(want, abs=1e-3)

    def test_negative_once_growth_dominates(self, pow_sg):
        assert decay_bound(pow_sg, 1e6, 2.0) < 0.0

    def test_truncation_radius_stability(self, pow_sg):
        # enlarging R_max by 20% must not move a converged value
        a = contour_F(pow_sg, ContourPath(R_max=2000.0), 2.0)
        b = contour_F(pow_sg, ContourPath(R_max=2400.0), 2.0)
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

    def test_unreachable_point_names_s(self, log_sg, path):
        with pytest.raises(QuadratureError, match=r"-1\+20j"):
            contour_F(log_sg, path, -1 + 20j)

    def test_path_field_validation(self):
        with pytest.raises(ValueError):
            ContourPath(R0=-1.0)
        with pytest.raises(ValueError):
            ContourPath(R0=4.0, R_max=2.0)
        with pytest.raises(ValueError):
            ContourPath(angle=1.6)
        with pytest.raises(ValueError):
            ContourPath(profile="spiral")


class TestGrowthProfile:
    def test_matches_direct_where_it_converges(self, sqrt_sg):
        gpath = ContourPath(R0=choose_R0(sqrt_sg), R_max=2000.0, profile="growth")
        for s in (0.1, 0.5, 2.0):
            c = contour_F(sqrt_sg, gpath, s)
            d = _direct(sqrt_sg, s)
            assert abs(c - d) <= 1e-9 * (1.0 + abs(d))

    def test_anchor_doubling(self, sqrt_sg):
        r0 = choose_R0(sqrt_sg)
        a = contour_F(sqrt_sg, ContourPath(R0=r0, profile="growth"), 0.1)
        b = contour_F(sqrt_sg, ContourPath(R0=2 * r0, profile="growth"), 0.1)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))

    def test_rejects_anchor_with_slow_growth(self, log_sg):
        with pytest.raises(ValueError, match="W\\(R0\\) > 9"):
            contour_F(log_sg, ContourPath(R0=1.0, profile="growth"), 2.0)

    def test_ray_jacobian_matches_finite_differences(self, sqrt_sg):
        for r in (60.0, 200.0):
            h = 1e-6 * r
            z = lambda rr: rr * np.exp(1j * np.arctan(1.0 / np.sqrt(float(sqrt_sg.W(rr)))))
            fd = (z(r + h) - z(r - h)) / (2.0 * h)
            an = contour_mod._growth_dz(sqrt_sg, r)
            assert abs(an - fd) <= 1e-8 * abs(an)


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
