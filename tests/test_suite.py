"""Counterexample assembly, oscillation witnesses, and the check suite."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from tauberlab import (
    DEFAULT_CHECKS,
    ContourPath,
    OscillationWitness,
    QuadratureConfig,
    QuadratureError,
    SmoothedGrowth,
    SuiteConfig,
    catalog,
    contour_F,
    deviation_D,
    eval_S_scaled,
    eval_T_main,
    eval_T_scaled,
    eval_tau,
    growth_target,
    locate_half_knots,
    omega_pm_witnesses,
    phase_panels,
    run_suite,
    signs_alternate,
    tau_witnesses,
)
from tauberlab.smoothing import _PROXY_POINTS

CFG8 = QuadratureConfig(abs_tol=1e-8)
LOG_RATE = catalog("log")
POW_RATE = catalog("pow", alpha=0.5)


def combined_quadrature(sg, x, n=50001):
    # uniform Simpson rule over the full integrand e^(u-x)(1 + cos(u W(u)));
    # no phase partition, no panel machinery
    u = np.linspace(0.0, x, n)
    vals = np.empty(n)
    w = np.asarray(sg.W(u[1:]), dtype=float)
    vals[1:] = np.exp(u[1:] - x) * (1.0 + np.cos(u[1:] * w))
    vals[0] = 2.0 * math.exp(-x)
    return float(simpson(vals, x=u))


def test_numpy_simpson_matches_scipy(log_sg):
    # the cross-check's own Simpson rule against scipy's, on its oracle grid
    from tauberlab.suite import _ORACLE_XS, _simpson

    for x in _ORACLE_XS:
        n = 40001
        u = np.linspace(0.0, x, n)
        vals = np.empty(n)
        vals[1:] = np.exp(u[1:] - x) * np.cos(u[1:] * log_sg.W(u[1:]))
        vals[0] = math.exp(-x)
        assert _simpson(vals, x / (n - 1)) == pytest.approx(float(simpson(vals, x=u)), abs=1e-14)


def measured_remainder_constant(sg):
    return max(
        abs(eval_T_scaled(sg, x, CFG8) - eval_T_main(sg, x)) * float(sg.V(x)) ** 2
        for x in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    )


@pytest.fixture(scope="module")
def log_witnesses(log_sg):
    return omega_pm_witnesses(log_sg, LOG_RATE, (10.0, 60.0), CFG8)


@pytest.fixture(scope="module")
def log_tau_witnesses(log_sg):
    return tau_witnesses(log_sg, LOG_RATE, (10.0, 60.0), CFG8)


class TestEvalSScaled:
    def test_empty_integral(self, log_sg):
        assert eval_S_scaled(log_sg, 0.0) == 0.0

    def test_negative_x_propagates(self, log_sg):
        with pytest.raises(ValueError):
            eval_S_scaled(log_sg, -1.0)

    def test_monotone_in_scaled_form(self, log_sg):
        xs = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0)
        logs = [math.log(eval_S_scaled(log_sg, x, CFG8)) + x for x in xs]
        assert all(b >= a for a, b in zip(logs, logs[1:]))

    def test_brute_force_oracle(self, log_sg):
        ref = combined_quadrature(log_sg, 25.0, n=100001)
        assert abs(eval_S_scaled(log_sg, 25.0, CFG8) - ref) <= 1e-8

    def test_decomposition_identity(self, log_sg):
        # the exponential-plus-oscillatory split against one undivided quadrature
        for x in (2.0, 7.0, 13.0, 25.0, 33.0):
            ref = combined_quadrature(log_sg, x)
            assert abs(eval_S_scaled(log_sg, x, CFG8) - ref) <= 1e-8


class TestDeviationD:
    def test_zero_rate_error(self, log_sg):
        with pytest.raises(ValueError, match="vanishes"):
            deviation_D(log_sg, lambda x: 0.0, 5.0)

    def test_nonpositive_x_error(self, log_sg):
        with pytest.raises(ValueError):
            deviation_D(log_sg, LOG_RATE, 0.0)

    def test_main_term_prediction(self, log_sg):
        # the probe-grid maximum underestimates the true remainder sup
        # slightly (measured 1.6% at x = 18), hence the factor-2 headroom
        c = measured_remainder_constant(log_sg)
        for x in (12.0, 18.0, 27.0):
            v, r = float(log_sg.V(x)), float(LOG_RATE(x))
            main = math.sin(float(log_sg.phase(x))) / (v * r)
            bound = (2.0 * c / v**2 + math.exp(-x)) / r
            assert abs(deviation_D(log_sg, LOG_RATE, x, CFG8) - main) <= bound

    def test_pi_knot_bound(self, log_sg):
        # main term vanishes where the phase hits a multiple of pi
        z = float(phase_panels(log_sg, 19.0, 21.0).knots[0])
        c = measured_remainder_constant(log_sg)
        v, r = float(log_sg.V(z)), float(LOG_RATE(z))
        assert abs(deviation_D(log_sg, LOG_RATE, z, CFG8)) <= (2.0 * c / v**2 + math.exp(-z)) / r


class TestLocateHalfKnots:
    def test_linear_phase_exact(self, const_sg):
        # W == pi/2, so the phase is pi*x/2 and roots sit at 1 + 2k
        for k, x in locate_half_knots(const_sg, 0, 8):
            assert abs(x - (1.0 + 2.0 * k)) <= 1e-9

    def test_ascending_with_residual(self, log_sg):
        pairs = locate_half_knots(log_sg, 5, 40)
        xs = np.array([x for _, x in pairs])
        ks = np.array([k for k, _ in pairs])
        assert np.all(np.diff(xs) > 0)
        resid = np.abs(np.asarray(log_sg.phase(xs)) - (0.5 * math.pi + math.pi * ks))
        assert resid.max() <= 1e-9

    def test_gap_prediction(self, log_sg):
        pairs = locate_half_knots(log_sg, 5, 40)
        xs = np.array([x for _, x in pairs])
        gaps = np.diff(xs)
        pred = math.pi / np.asarray(log_sg.V(xs[:-1]), dtype=float)
        assert np.max(np.abs(gaps - pred) / pred) <= 0.2

    def test_negative_target_unbracketable(self, log_sg):
        with pytest.raises(ValueError, match="not bracketed"):
            locate_half_knots(log_sg, -3, 2)

    def test_empty_range(self, log_sg):
        assert locate_half_knots(log_sg, 5, 4) == []


class TestOmegaPmWitnesses:
    def test_count_matches_phase_window(self, log_sg, log_witnesses):
        witnesses, _ = log_witnesses
        p_lo, p_hi = float(log_sg.phase(10.0)), float(log_sg.phase(60.0))
        k_lo = math.floor((p_lo - 0.5 * math.pi) / math.pi) + 1
        k_hi = math.ceil((p_hi - 0.5 * math.pi) / math.pi) - 1
        assert len(witnesses) == k_hi - k_lo + 1
        assert len(witnesses) >= 20

    def test_both_signs_at_least_five(self, log_witnesses):
        witnesses, _ = log_witnesses
        assert sum(1 for w in witnesses if w.sign > 0) >= 5
        assert sum(1 for w in witnesses if w.sign < 0) >= 5

    def test_alternation_and_parity(self, log_witnesses):
        witnesses, _ = log_witnesses
        assert signs_alternate(witnesses)
        assert all(w.sign == (1 if w.k % 2 == 0 else -1) for w in witnesses)

    def test_positive_constant(self, log_witnesses):
        witnesses, c = log_witnesses
        assert c > 0
        assert c == min(abs(w.deviation) for w in witnesses)

    def test_locations_ascending_in_range(self, log_witnesses):
        witnesses, _ = log_witnesses
        xs = [w.x_k for w in witnesses]
        assert all(10.0 <= x <= 60.0 for x in xs)
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_magnitude_window(self, log_sg, log_witnesses):
        witnesses, _ = log_witnesses
        for w in witnesses:
            mag = abs(w.deviation) * float(LOG_RATE(w.x_k)) * float(log_sg.V(w.x_k))
            assert 0.5 <= mag <= 1.5

    def test_thin_range_rejected(self, log_sg):
        with pytest.raises(ValueError, match="half-knots"):
            omega_pm_witnesses(log_sg, LOG_RATE, (10.0, 10.8), CFG8)

    def test_power_rate_witnesses(self, pow_sg):
        witnesses, c = omega_pm_witnesses(pow_sg, POW_RATE, (10.0, 25.0), CFG8)
        assert len(witnesses) >= 10
        assert signs_alternate(witnesses)
        assert c > 0
        for w in witnesses:
            mag = abs(w.deviation) * float(POW_RATE(w.x_k)) * float(pow_sg.V(w.x_k))
            assert 0.5 <= mag <= 1.5


class TestTauWitnesses:
    def test_alternation_and_opposite_parity(self, log_tau_witnesses):
        witnesses, c = log_tau_witnesses
        assert signs_alternate(witnesses)
        assert all(w.sign == (-1 if w.k % 2 == 0 else 1) for w in witnesses)
        assert c > 0

    def test_scaled_magnitude_near_one(self, log_sg, log_tau_witnesses):
        # tail remainder is a full power of V smaller than the main term
        witnesses, _ = log_tau_witnesses
        for w in witnesses:
            mag = abs(w.deviation) * float(LOG_RATE(w.x_k)) * float(log_sg.V(w.x_k))
            assert 0.9 <= mag <= 1.1

    def test_tail_tracks_negated_phase_sine(self, log_sg):
        worst = 0.0
        for x in np.arange(10.0, 61.0, 5.0):
            v = float(log_sg.V(x))
            gap = eval_tau(log_sg, float(x), CFG8) * v + math.sin(float(log_sg.phase(x)))
            worst = max(worst, abs(gap) * v)
        assert worst <= 0.1


class TestSignsAlternate:
    def test_detects_break(self):
        mk = lambda k, x, d, s: OscillationWitness(k=k, x_k=x, deviation=d, sign=s)
        good = [mk(0, 1.0, 0.5, 1), mk(1, 2.0, -0.4, -1), mk(2, 3.0, 0.6, 1)]
        broken = [mk(0, 1.0, 0.5, 1), mk(1, 2.0, 0.4, 1)]
        zero = [mk(0, 1.0, 0.0, 0), mk(1, 2.0, -0.4, -1)]
        assert signs_alternate(good)
        assert not signs_alternate(broken)
        assert not signs_alternate(zero)


class TestSuiteConfig:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown checks"):
            SuiteConfig(checks=("lemma21", "bogus"))

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(x_range=(5.0, 4.0))

    @pytest.mark.parametrize("kwargs, field", [
        ({"x_range": (10.0, math.inf)}, "x_range"),
        ({"x_range": (math.nan, 60.0)}, "x_range"),
    ])
    def test_non_finite_range_rejected(self, kwargs, field):
        # an infinite bound would reach run_suite as a NaN grid: a crash in one
        # record and a false pass in derivative_envelope (max(0.0, nan) is 0.0)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SuiteConfig(**kwargs)

    def test_empty_checks_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SuiteConfig(checks=())

    def test_zero_tolerance_rejected(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)


class TestRunSuite:
    def test_default_config_all_pass(self, default_suite_report):
        rep = default_suite_report
        assert rep.status == "pass"
        assert all(r.status == "pass" for r in rep.records)
        assert [r.group for r in rep.records] == [
            "lemma21", "lemma21", "lemma21", "lemma21",
            "lemma22", "lemma22",
            "continuation", "continuation", "continuation",
            "residue", "witness_s", "witness_tau",
        ]
        names = [r.name for r in rep.records]
        assert len(names) == len(set(names))

    def test_witness_records_carry_witnesses(self, default_suite_report):
        for name in ("cumulative_oscillation", "tail_oscillation"):
            rec = default_suite_report.record(name)
            assert len(rec.witnesses) >= 20
            assert rec.measured["c_measured"] > 0
            assert rec.measured["alternating"] is True

    def test_every_record_has_anchor_and_measurements(self, default_suite_report):
        for r in default_suite_report.records:
            assert r.anchor
            assert r.measured
            assert r.status in ("pass", "fail", "warn")

    def test_filtering_keeps_registry_order(self):
        rep = run_suite(SuiteConfig(checks=("residue", "lemma21")))
        assert [r.name for r in rep.records] == [
            "growth_slope_sign", "growth_scaling_lower_bound",
            "derivative_envelope", "growth_envelope_bracket", "pole_residue",
        ]
        assert {r.group for r in rep.records} == {"lemma21", "residue"}

    def test_deterministic_json(self):
        cfg = SuiteConfig(checks=("lemma21",))
        a = run_suite(cfg).to_json()
        b = run_suite(cfg).to_json()
        assert a == b

    def test_timings_stripped_on_request(self):
        # records are timed for --verbose, but JSON never carries timings
        rep = run_suite(SuiteConfig(checks=("lemma21",)))
        assert all(r.seconds > 0.0 for r in rep.records)
        doc = json.loads(rep.to_json())
        assert "total_seconds" not in doc
        assert all("seconds" not in r for r in doc["records"])

    def test_non_finite_measurement_fails_record_and_stays_json(self, monkeypatch):
        import tauberlab.suite as suite_mod

        def probe(ctx):
            measured = {"ratio": float("inf"), "series": [1.0, float("nan")],
                        "tolerance": 1.0}
            return "pass", measured, {}, []

        monkeypatch.setattr(suite_mod, "_REGISTRY",
                            (("lemma21", (("probe", "none", probe),)),))
        rep = run_suite(SuiteConfig(checks=("lemma21",)))

        def reject(name):
            raise AssertionError(f"non-JSON constant {name}")

        doc = json.loads(rep.to_json(), parse_constant=reject)
        rec = doc["records"][0]
        assert rec["status"] == "fail" and doc["status"] == "fail"
        assert rec["measured"] == {"ratio": None, "series": [1.0, None],
                                   "tolerance": 1.0}
        assert "ratio" in rec["error"] and "series" in rec["error"]
        assert "tolerance" not in rec["error"]

    def test_failing_check_recorded_not_raised(self):
        cfg = SuiteConfig(x_range=(10.0, 10.8),
                          checks=("witness_s", "witness_tau"))
        rep = run_suite(cfg)
        assert rep.status == "fail"
        assert all(r.status == "fail" for r in rep.records)
        assert all("half-knots" in r.error for r in rep.records)

    def test_thin_range_warns(self, log_sg):
        cfg = SuiteConfig(x_range=(10.0, 18.0), checks=("witness_s",))
        rep = run_suite(cfg)
        rec = rep.record("cumulative_oscillation")
        assert rec.status == "warn"
        assert 4 <= rec.measured["witness_count"] < 20
        assert rec.measured["alternating"] is True
        assert rep.status == "warn"

    def test_record_lookup(self, default_suite_report):
        assert default_suite_report.record("pole_residue").group == "residue"
        with pytest.raises(KeyError):
            default_suite_report.record("missing")


class TestContinuationLimits:
    """The named limits of the continuation side, pinned so a change shows.

    The check points are fixed and W grows slowly at moderate r for these
    rates, so no ray gets the integrand under the hump cap (or under the
    truncation floor) at -2+3j and -1.5+3j. The records must fail with a
    QuadratureError that names the point, never pass silently or crash.
    """

    @pytest.mark.parametrize("rate, reason", [
        (catalog("pow", alpha=0.25), "peaks at e^"),
        (catalog("loglog"), "no ray decays"),
    ], ids=["pow0.25", "loglog"])
    def test_named_failures(self, rate, reason):
        rep = run_suite(SuiteConfig(rate=rate, checks=("continuation", "residue")))
        assert rep.record("continuation_overlap").status == "pass"
        assert rep.record("pole_residue").status == "pass"
        for name, s in (("path_independence", "s=(-2+3j)"),
                        ("transform_holomorphy", "s=(-1.5+3j)")):
            rec = rep.record(name)
            assert rec.status == "fail", name
            assert rec.error.startswith("QuadratureError: "), rec.error
            assert reason in rec.error and s in rec.error, rec.error


    @pytest.mark.parametrize("rate, reached", [
        (catalog("log"), 45),
        (catalog("pow", alpha=0.5), 50),
    ], ids=["log", "pow0.5"])
    def test_reach_counts(self, rate, reached):
        # the README's reach row: the points of the 80-point grid (Re s in
        # linspace(-8, 3, 10), Im s in linspace(0, 8, 8)) where contour_F returns
        sg = SmoothedGrowth(growth_target(rate))
        count = 0
        for a in np.linspace(-8.0, 3.0, 10):
            for b in np.linspace(0.0, 8.0, 8):
                try:
                    contour_F(sg, ContourPath(), complex(a, b))
                except QuadratureError:
                    continue
                count += 1
        assert count == reached


class TestExactWork:
    """What a run on a fresh handle asks of the exact tier, and its ray builds.

    Byte-identical artifacts rest on every proxy panel being filled by one
    exact call of _PROXY_POINTS points; the counts pin the work so that a
    regression (say, back to one ray build per angle) fails here.
    """

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"real": [], "complex": [], "ray_builds": 0}
        real, complex_, memo = (SmoothedGrowth.derivative_orders,
                                SmoothedGrowth.kernel_complex, SmoothedGrowth.memo)

        def derivative_orders(sg, y, orders):
            calls["real"].append(np.size(y))
            return real(sg, y, orders)

        def kernel_complex(sg, z):
            calls["complex"].append(np.size(z))
            return complex_(sg, z)

        def counted_memo(sg, key, build):
            def counted_build():
                calls["ray_builds"] += key[0] == "contour_ray"
                return build()
            return memo(sg, key, counted_build)

        monkeypatch.setattr(SmoothedGrowth, "derivative_orders", derivative_orders)
        monkeypatch.setattr(SmoothedGrowth, "kernel_complex", kernel_complex)
        monkeypatch.setattr(SmoothedGrowth, "memo", counted_memo)
        return calls

    def test_continuation_work(self, counted):
        rep = run_suite(SuiteConfig(checks=("continuation", "residue")))
        assert all(r.status == "pass" for r in rep.records)
        # two anchors, six angles built together; 16 ray panels per angle
        # and 3 arc panels per anchor
        assert counted["ray_builds"] == 2
        assert counted["complex"] == [_PROXY_POINTS] * 102
        assert counted["real"] and set(counted["real"]) == {_PROXY_POINTS}

    def test_real_axis_fills_have_fixed_shape(self, counted):
        # lemma21 reads the exact sums on its grid by design; the other
        # real-axis checks reach them only through proxy panels
        rep = run_suite(SuiteConfig(checks=("lemma22", "witness_s", "witness_tau")))
        assert all(r.status == "pass" for r in rep.records)
        assert counted["real"] and set(counted["real"]) == {_PROXY_POINTS}
        assert counted["complex"] == [] and counted["ray_builds"] == 0


def test_public_names_resolve():
    import tauberlab

    for name in tauberlab.__all__:
        assert hasattr(tauberlab, name), name
    for gone in ("smooth", "smooth_derivative", "ScaledValue", "choose_R0",
                 "decay_bound", "eval_V", "smooth_complex", "taylor_coeff"):
        assert gone not in tauberlab.__all__
        assert not hasattr(tauberlab, gone)
