import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauberlab import (
    RateFunction,
    catalog,
    growth_target,
    load_table,
    sup_envelope,
    validate_growth_target,
    validate_rate,
)


def test_catalog_log_values():
    rho = catalog("log")
    assert rho(1.0) == pytest.approx(1.0 / math.log(math.e + 1.0))
    assert rho(np.array([1.0, 10.0])).shape == (2,)


def test_pow_alpha_validation():
    with pytest.raises(ValueError):
        catalog("pow")
    with pytest.raises(ValueError):
        catalog("pow", alpha=0.75)
    with pytest.raises(ValueError):
        RateFunction(kind="nope")


def test_envelope_of_non_increasing_rate_is_identity():
    rho = catalog("log")
    env = sup_envelope(rho)
    assert env is rho


def test_table_envelope_backward_running_max():
    rho = RateFunction(kind="table", table=((1.0, 0.5), (2.0, 0.8), (3.0, 0.3)))
    env = sup_envelope(rho)
    assert env(1.0) == pytest.approx(0.8)
    assert env(2.0) == pytest.approx(0.8)
    assert env(3.0) == pytest.approx(0.3)
    assert env(1.5) == pytest.approx(0.8)
    # last-value extension past the table
    assert env(50.0) == pytest.approx(0.3)


def test_table_envelope_dominates_rate_between_samples():
    # linear interpolation rises above the next sample's running max here
    rho = RateFunction(kind="table", table=((1.0, 1.0), (2.0, 0.5), (3.0, 0.4)))
    env = sup_envelope(rho)
    assert rho(1.5) == pytest.approx(0.75)
    assert env(1.5) == pytest.approx(0.75)
    assert env(2.5) == pytest.approx(0.45)


@pytest.mark.parametrize(
    "row, shown",
    [((2.0, float("nan")), "rate = nan"),
     ((2.0, float("inf")), "rate = inf"),
     ((float("nan"), 0.5), "x = nan")],
    ids=["nan_rate", "inf_rate", "nan_x"],
)
def test_table_rejects_non_finite_row(row, shown):
    # NaN fails every comparison, so the ordering and positivity guards
    # alone would let these rows through (and on into validate_rate)
    with pytest.raises(ValueError, match=f"non-finite table row 1: .*{shown}"):
        RateFunction(kind="table", table=((1.0, 1.0), row, (3.0, 0.4)))


@st.composite
def _tables(draw, monotone):
    n = draw(st.integers(min_value=1, max_value=8))
    steps = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    rs = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    xs = np.cumsum(steps)
    if monotone:
        rs = sorted(rs, reverse=True)
    return RateFunction(kind="table", table=tuple(zip(xs.tolist(), rs)))


@settings(max_examples=200, deadline=None)
@given(rho=st.one_of(_tables(monotone=True), _tables(monotone=False)),
       probes=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20))
def test_table_envelope_is_non_increasing_majorant(rho, probes):
    xs = np.array([p[0] for p in rho.table])
    grid = np.sort(np.concatenate([probes, xs, 0.5 * (xs[1:] + xs[:-1])]))
    env = np.asarray(sup_envelope(rho)(grid))
    assert np.all(env >= np.asarray(rho(grid)))
    # interpolation may overshoot a sample by an ulp, hence the slack
    assert np.all(np.diff(env) <= 1e-12 * env[:-1])


def test_envelope_matches_grid_sup_for_quarter_power():
    rho = catalog("pow", alpha=0.25)
    # oracle: brute-force sup over a dense grid of y >= 2
    grid = np.logspace(math.log10(2.0), 6, 40001)
    oracle = float(np.max(rho(grid)))
    closed = 3.0 ** (-0.25)
    assert oracle == pytest.approx(closed, rel=1e-12)
    assert sup_envelope(rho)(2.0) == pytest.approx(closed, rel=1e-12)


def test_growth_target_log_min_branch():
    gt = growth_target(catalog("log"))
    x = math.e**2
    sqrt_branch = math.sqrt(x)
    log_branch = math.log(math.e + math.sqrt(x))
    assert log_branch < sqrt_branch
    assert gt.omega(x) == pytest.approx(log_branch, rel=1e-14)
    assert gt.omega(x) == pytest.approx(math.log(2.0 * math.e), rel=1e-14)


def test_growth_target_pow_branch_inequality():
    gt = growth_target(catalog("pow", alpha=0.25))
    for x in (2.0, 5.0, 100.0, 1e4):
        closed = (1.0 + math.sqrt(x)) ** 0.25
        assert closed <= math.sqrt(x)
        assert gt.omega(x) == pytest.approx(closed, rel=1e-13)


def test_growth_target_unit_table():
    # envelope equal to 1 at x=1 makes both branches hit 1
    rho = RateFunction(kind="table", table=((1.0, 1.0), (10.0, 1e-6)))
    gt = growth_target(rho)
    assert gt.omega(1.0) == pytest.approx(1.0)


def test_branch_point_solves_crossover():
    gt = growth_target(catalog("log"))
    bp = gt.branch_point
    assert bp is not None
    assert math.sqrt(bp) == pytest.approx(math.log(math.e + math.sqrt(bp)), abs=1e-10)
    # sign change around the crossover confirms uniqueness on this interval
    assert math.sqrt(0.9 * bp) < math.log(math.e + math.sqrt(0.9 * bp))
    assert math.sqrt(1.1 * bp) > math.log(math.e + math.sqrt(1.1 * bp))


@pytest.mark.parametrize("rho", [
    catalog("log"), catalog("pow", alpha=0.5), catalog("pow", alpha=0.25), catalog("loglog"),
    RateFunction(kind="table", table=((0.0, 1.0), (1.0, 0.8), (10.0, 0.4), (1e4, 0.05))),
], ids=["log", "pow0.5", "pow0.25", "loglog", "table"])
def test_branch_point_bisection_matches_brentq(rho):
    from scipy.optimize import brentq

    rho_tilde = sup_envelope(rho)

    def gap(u):
        return math.sqrt(u) - 1.0 / float(rho_tilde(math.sqrt(u)))

    want = brentq(gap, 1e-12, 1e12, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    assert growth_target(rho).branch_point == pytest.approx(want, rel=1e-13)


def test_load_table(tmp_path):
    p = tmp_path / "rate.csv"
    p.write_text("x,rho\n1.0,0.5\n2.0,0.8\n3.0,0.3\n")
    rho = load_table(p)
    assert rho.kind == "table"
    assert rho(2.0) == pytest.approx(0.8)
    # linear interpolation between samples
    assert rho(2.5) == pytest.approx(0.55)


def test_load_table_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("x,rho\n")
    with pytest.raises(ValueError):
        load_table(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,0.5\n0.5,0.4\n")
    with pytest.raises(ValueError):
        load_table(bad)
    neg = tmp_path / "neg.csv"
    neg.write_text("1.0,0.5\n2.0,-0.1\n")
    with pytest.raises(ValueError):
        load_table(neg)


@pytest.mark.parametrize("kind,alpha", [("log", None), ("pow", 0.5), ("loglog", None)])
def test_validate_rate_accepts_catalog(kind, alpha):
    validate_rate(catalog(kind, alpha=alpha))


def test_validate_rate_rejects_non_decaying():
    rho = RateFunction(kind="table", table=((1.0, 0.1), (1e6, 0.5)))
    with pytest.raises(ValueError):
        validate_rate(rho)


def test_validate_growth_target():
    validate_growth_target(growth_target(catalog("log")))
    validate_growth_target(growth_target(catalog("pow", alpha=0.5)))


def test_validate_growth_target_rejects_bounded_omega():
    from tauberlab import GrowthTarget

    flat = GrowthTarget(rho_tilde=None, omega=lambda x: np.minimum(np.sqrt(np.asarray(x, float)), 1.0))
    with pytest.raises(ValueError):
        validate_growth_target(flat)
