import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import per_x_direct_F, per_x_T_scaled
from tauberlab import (
    GrowthTarget,
    PhasePartition,
    QuadratureConfig,
    QuadratureError,
    SmoothedGrowth,
    catalog,
    direct_F,
    eval_T_main,
    eval_T_scaled,
    eval_tau,
    growth_target,
    panel_contributions,
    phase_panels,
)
from tauberlab.oscillatory import KNOT_RESIDUAL, _panel_quad, phase_knots
from tauberlab.quadrature import grade_origin, refine_edges
from tauberlab.suite import _ORACLE_XS, _REMAINDER_XS

CFG8 = QuadratureConfig(abs_tol=1e-8)


@pytest.fixture(scope="module")
def unit_phase_sg():
    # omega == 2/pi makes W == 1, so phi(u) = u exactly
    return SmoothedGrowth(
        GrowthTarget(rho_tilde=None,
                     omega=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0 / math.pi))
    )


# -- phase_panels --------------------------------------------------------------


def test_phase_panels_unit_omega_even_integers(const_sg):
    # omega == 1 gives W == pi/2, so phi(u) = pi u / 2 crosses k pi at u = 2k
    part = phase_panels(const_sg, 1.0, 9.0)
    assert np.allclose(part.knots, [2.0, 4.0, 6.0, 8.0], atol=1e-9)
    edges = part.edges()
    assert edges[0] == 1.0 and edges[-1] == 9.0 and edges.size == 6


def test_phase_panels_count_matches_phase_span(log_sg):
    part = phase_panels(log_sg, 5.0, 6.0)
    span = (float(log_sg.phase(6.0)) - float(log_sg.phase(5.0))) / math.pi
    assert abs(len(part.knots) - math.floor(span)) <= 1


def test_phase_panels_empty_window(const_sg):
    part = phase_panels(const_sg, 2.1, 3.9)
    assert part.knots.size == 0
    assert np.array_equal(part.edges(), [2.1, 3.9])


def test_phase_panels_knot_spacing_is_pi(log_sg):
    part = phase_panels(log_sg, 5.0, 30.0)
    gaps = np.diff(log_sg.phase(part.knots))
    assert np.all(np.abs(gaps - math.pi) < 1e-8)
    assert np.all(np.diff(part.knots) > 0)


def test_phase_panels_rejects_bad_interval(log_sg):
    with pytest.raises(ValueError):
        phase_panels(log_sg, 0.0, 5.0)
    with pytest.raises(ValueError):
        phase_panels(log_sg, 5.0, 5.0)


def test_phase_partition_is_plain_data():
    part = PhasePartition(x0=1.0, x1=2.0, knots=np.array([1.5]))
    assert part.root_tol == 1e-10


# -- the knot table ------------------------------------------------------------


def _counting_builds(sg):
    # count memo builds per key on this handle, across threads
    builds, lock = Counter(), threading.Lock()
    original = sg.memo

    def memo(key, build):
        def counted():
            with lock:
                builds[key] += 1
            return build()

        return original(key, counted)

    sg.memo = memo
    return builds


def _segments(builds):
    return sorted(k[1] for k in builds if k[0] == "phase_knots")


def test_knots_are_every_half_pi_crossing(log_sg):
    j, u = phase_knots(log_sg, 0.0, 60.0)
    assert j[0] == 1 and np.array_equal(j, np.arange(1, j.size + 1))
    assert np.all(np.diff(u) > 0) and 0.0 < u[0] and u[-1] < 60.0
    assert np.max(np.abs(log_sg.phase(u) - j * (0.5 * math.pi))) <= KNOT_RESIDUAL
    assert float(log_sg.phase(60.0)) < (j[-1] + 1) * 0.5 * math.pi


def test_knot_window_is_a_slice_of_the_table(log_sg):
    j, u = phase_knots(log_sg, 0.0, 60.0)
    jw, uw = phase_knots(log_sg, 10.0, 20.0)
    keep = (u > 10.0) & (u < 20.0)
    assert np.array_equal(jw, j[keep]) and np.array_equal(uw, u[keep])


@pytest.mark.parametrize("x", sorted(set(_REMAINDER_XS + _ORACLE_XS)))
def test_T_scaled_matches_per_x_oracle(log_sg, x):
    assert abs(eval_T_scaled(log_sg, x) - per_x_T_scaled(log_sg, x)) <= 1e-13


def test_direct_F_matches_per_x_oracle(log_sg):
    for re in (1.0, 2.0, 3.0):
        for im in (0.0, 1.0, -1.0, 5.0, -5.0):
            s = complex(re, im)
            got = direct_F(log_sg, s, 42.0 / re, CFG8)
            assert abs(got - per_x_direct_F(log_sg, s, 42.0 / re, CFG8)) <= 1e-13


def test_query_solves_nothing_past_the_lattice_edge_above_x(log_target):
    # R = 42 lies below the lattice edge 2500 / 32 = 78.125
    sg = SmoothedGrowth(log_target)
    builds = _counting_builds(sg)
    direct_F(sg, 1.0 + 0.0j, 42.0, CFG8)
    segs = _segments(builds)
    assert math.ldexp(2500.0, segs[-1]) == 78.125
    assert segs == list(range(segs[0], segs[-1] + 1))
    # the bottom segment is the first whose lower edge has phi < pi/2
    assert float(sg.phase(math.ldexp(2500.0, segs[0] - 1))) < 0.5 * math.pi


def _snapshot(sg):
    j, u = phase_knots(sg, 0.0, 60.0)
    t = [eval_T_scaled(sg, x) for x in (12.5, 33.0, 60.0)]
    tau = [eval_tau(sg, x, CFG8) for x in (12.5, 33.0)]
    return j, u, t, tau


def test_knot_bits_do_not_depend_on_query_order_or_threads(log_target):
    ref = _snapshot(SmoothedGrowth(log_target))
    warmed = SmoothedGrowth(log_target)
    eval_tau(warmed, 4000.0, CFG8)  # fills the table out to 5000 first
    raced = SmoothedGrowth(log_target)
    builds = _counting_builds(raced)
    barrier = threading.Barrier(2)

    def read():
        barrier.wait(timeout=30)
        phase_knots(raced, 0.0, 60.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert _segments(builds) and all(builds[("phase_knots", m)] == 1 for m in _segments(builds))
    for got in (_snapshot(warmed), _snapshot(raced)):
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        assert got[2] == ref[2] and got[3] == ref[3]


# -- eval_T_scaled -------------------------------------------------------------


def test_T_scaled_empty_integral(log_sg):
    assert eval_T_scaled(log_sg, 0.0) == 0.0


def test_T_scaled_rejects_negative(log_sg):
    with pytest.raises(ValueError):
        eval_T_scaled(log_sg, -1.0)


def test_T_scaled_constant_omega_closed_form(const_sg):
    # antiderivative of e^u cos(au) is e^u (cos(au) + a sin(au)) / (1 + a^2)
    a = math.pi / 2
    x = 3.0
    want = (math.cos(a * x) + a * math.sin(a * x) - math.exp(-x)) / (1 + a * a)
    assert eval_T_scaled(const_sg, x) == pytest.approx(want, abs=1e-10)


def test_T_scaled_matches_simpson(log_sg):
    # naive oracle: composite Simpson, 800 points per oscillation
    x = 20.0
    n = int(800 * float(log_sg.phase(x)) / (2 * math.pi))
    n += n % 2
    u = np.linspace(0.0, x, n + 1)
    g = np.exp(u - x)
    pos = u > 0
    g[pos] *= np.cos(u[pos] * log_sg.W(u[pos]))
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    simpson = float(np.dot(g, w)) * x / n / 3.0
    assert abs(eval_T_scaled(log_sg, x) - simpson) < 1e-8


# -- eval_T_main ---------------------------------------------------------------


def test_T_main_vanishes_at_knots(log_sg):
    knot = float(phase_panels(log_sg, 10.0, 14.0).knots[0])
    assert abs(eval_T_main(log_sg, knot)) < 1e-6


def test_T_main_unit_omega(const_sg):
    assert eval_T_main(const_sg, 1.0) == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_T_main_rejects_nonpositive(log_sg):
    with pytest.raises(ValueError):
        eval_T_main(log_sg, 0.0)


def test_remainder_battery_no_blowup(log_sg):
    # |T_scaled - main| * V^2 stays bounded across the battery
    xs = np.arange(5.0, 41.0, 5.0)
    r = np.array([
        abs(eval_T_scaled(log_sg, x) - eval_T_main(log_sg, x)) * float(log_sg.V(x)) ** 2
        for x in xs
    ])
    assert r.max() <= 10.0 * np.median(r)
    # the x = 30 remainder in particular is a modest multiple of 1/V^2
    assert r[xs == 30.0][0] < 3.0


# -- eval_tau ------------------------------------------------------------------


def test_tau_frozen_reference_values(log_sg, pow_sg):
    # frozen from a composite-Simpson oracle (>= 50 points per half-arch,
    # two step sizes, Y in {2500, 5000}, finite-difference tail)
    assert eval_tau(log_sg, 0.0, CFG8) == pytest.approx(0.2433837601, abs=5e-8)
    assert eval_tau(pow_sg, 0.0, CFG8) == pytest.approx(0.2525939119, abs=5e-8)


def test_tau_rejects_negative(log_sg):
    with pytest.raises(ValueError):
        eval_tau(log_sg, -0.5, CFG8)


def test_tau_first_order_bound(log_sg):
    for x in (10.0, 23.7, 40.0):
        assert abs(eval_tau(log_sg, x, CFG8)) <= 1.5 / float(log_sg.V(x))


def test_tau_knot_bound(log_sg):
    # at a phase knot the 1/V term vanishes, leaving the next order
    knot = float(phase_panels(log_sg, 12.0, 16.0).knots[0])
    assert abs(eval_tau(log_sg, knot, CFG8)) <= 3.0 / float(log_sg.V(knot)) ** 2


def test_tau_alternates_at_half_knots(log_sg):
    # half-knots phi = pi/2 + k pi located independently with brentq
    signs = []
    x = 10.0
    k = math.floor((float(log_sg.phase(x)) - math.pi / 2) / math.pi) + 1
    while True:
        target = math.pi / 2 + k * math.pi
        hi = x + 4.0
        if float(log_sg.phase(hi)) < target:
            hi = x + 8.0
        if target > float(log_sg.phase(40.0)):
            break
        x = brentq(lambda u: float(log_sg.phase(u)) - target, x, hi, rtol=1e-12)
        signs.append(math.copysign(1.0, eval_tau(log_sg, x, CFG8)))
        k += 1
    assert len(signs) >= 10
    assert all(a * b < 0 for a, b in zip(signs, signs[1:]))


def test_tau_additivity(log_sg):
    # tau(x') = int_{x'}^{x} cos(u W(u)) du + tau(x)
    def bridge(a, b, n=4000):
        u = np.linspace(a, b, n + 1)
        g = np.cos(u * log_sg.W(u))
        w = np.ones(n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        return float(np.dot(g, w)) * (b - a) / n / 3.0

    lhs = eval_tau(log_sg, 10.0, CFG8)
    rhs = bridge(10.0, 14.0) + eval_tau(log_sg, 14.0, CFG8)
    assert lhs == pytest.approx(rhs, abs=1e-8)
    # across the table's truncation point the tail must splice consistently
    lhs = eval_tau(log_sg, 4990.0, CFG8)
    rhs = bridge(4990.0, 5010.0) + eval_tau(log_sg, 5010.0, CFG8)
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_tau_cap_error_names_slow_growth():
    # a cap below the first possible refinement forces the failure path
    sg = SmoothedGrowth(growth_target(catalog("loglog")))
    cfg = QuadratureConfig(abs_tol=1e-12, tail_cutoff=4000.0)
    with pytest.raises(QuadratureError, match="grows too slowly"):
        eval_tau(sg, 1.0, cfg)


# -- direct_F ------------------------------------------------------------------


def test_direct_F_unit_phase_closed_form(unit_phase_sg):
    # W == 1: F(s) = 1/(s - i); at s = 2 that is 0.4 + 0.2i
    got = direct_F(unit_phase_sg, 2.0, 20.0)
    assert got == pytest.approx(0.4 + 0.2j, abs=1e-9)


def test_direct_F_truncation_stability(log_sg):
    a = direct_F(log_sg, 2.0, 16.0)
    b = direct_F(log_sg, 2.0, 21.0)
    assert abs(a - b) < 1e-9


def test_direct_F_reports_truncation(log_sg):
    val, err = direct_F(log_sg, 2.0, 16.0, return_error=True)
    assert val == direct_F(log_sg, 2.0, 16.0)
    assert err == pytest.approx(math.exp(-32.0) / 2.0, rel=1e-12)


def test_direct_F_real_part_is_cosine_transform(log_sg):
    # for real s the real part is the Laplace transform of cos(u W(u))
    s, R = 2.0, 16.0
    n = 8000
    u = np.linspace(0.0, R, n + 1)
    g = np.exp(-s * u)
    pos = u > 0
    g[pos] *= np.cos(u[pos] * log_sg.W(u[pos]))
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    simpson = float(np.dot(g, w)) * R / n / 3.0
    assert direct_F(log_sg, s, R).real == pytest.approx(simpson, abs=1e-9)


def test_direct_F_rejects_left_half_plane(log_sg):
    with pytest.raises(ValueError, match="contour"):
        direct_F(log_sg, -1.0, 20.0)
    with pytest.raises(ValueError, match="contour"):
        direct_F(log_sg, 0.0, 20.0)


def test_direct_F_rejects_insufficient_truncation(log_sg):
    with pytest.raises(ValueError, match="R_trunc"):
        direct_F(log_sg, 0.5, 10.0)


# -- cross-cutting invariants --------------------------------------------------


def test_refinement_convergence(log_sg):
    coarse = QuadratureConfig(rel_tol=1e-10)
    fine = QuadratureConfig(rel_tol=5e-13)
    for x in (5.0, 12.0, 19.0, 26.0, 33.0):
        a = eval_T_scaled(log_sg, x, coarse)
        b = eval_T_scaled(log_sg, x, fine)
        assert abs(a - b) < 1e-10


def test_panels_match_one_layout_of_0_x_bit_for_bit(log_target):
    # the cached knot panels give each panel the bits that laying out all
    # of [0, x] at once gives it, whichever x asked first
    sg = SmoothedGrowth(log_target)
    for x in (150.0, 0.3, 7.0, 39.0625, 41.0, 2600.0):
        j, u = phase_knots(sg, 0.0, x)
        edges = grade_origin(refine_edges(np.concatenate([[0.0], u[j % 2 == 0], [x]]), 1.2))
        want = _panel_quad(edges, lambda v: np.exp(v - x) * np.cos(v * sg.W(v)))
        assert np.array_equal(panel_contributions(sg, x), want), x


def test_panel_sum_order_independent(log_sg):
    vals = panel_contributions(log_sg, 25.0)
    fwd = math.fsum(vals)
    rev = math.fsum(vals[::-1])
    assert abs(fwd - rev) <= 1e-12 * max(1.0, abs(fwd))
