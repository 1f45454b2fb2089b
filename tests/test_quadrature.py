import math

import numpy as np
import pytest

from oracles import integrate, integrate_complex
from tauberlab.quadrature import (
    QuadratureConfig,
    QuadratureError,
    gauss_legendre,
    geometric_edges,
    panel_nodes,
    refine_edges,
)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-9)


def test_gauss_legendre_polynomial_exactness():
    # order-n rule integrates degree 2n-1 exactly
    x, w = gauss_legendre(5)
    for deg in range(10):
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        assert np.dot(w, x**deg) == pytest.approx(exact, abs=1e-14)


def test_panel_nodes_composite_rule():
    nodes, weights = panel_nodes([0.0, 0.4, 1.0, 2.0], order=8)
    assert nodes.shape == weights.shape == (24,)
    assert np.dot(weights, np.exp(nodes)) == pytest.approx(math.exp(2.0) - 1.0, rel=1e-13)


def test_panel_nodes_bad_edges():
    with pytest.raises(ValueError):
        panel_nodes([1.0], order=4)
    with pytest.raises(ValueError):
        panel_nodes([0.0, 1.0, 1.0], order=4)


def test_integrate_with_breakpoint():
    # |x - 1/2| has a kink; the breakpoint keeps the error estimate honest
    val, err = integrate(lambda x: abs(x - 0.5), 0.0, 1.0, points=[0.5])
    assert val == pytest.approx(0.25, abs=1e-14)
    assert err < 1e-10


def test_integrate_failure_maps_to_typed_error():
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
    with pytest.raises(QuadratureError):
        integrate(lambda x: math.cos(50.0 * x) / math.sqrt(abs(x - 0.3) + 1e-12), 0.0, 1.0, cfg,
                  limit=1)


def test_integrate_complex_closed_form():
    val, _ = integrate_complex(lambda t: complex(math.cos(t), math.sin(t)), 0.0, 1.0)
    assert val.real == pytest.approx(math.sin(1.0), abs=1e-12)
    assert val.imag == pytest.approx(1.0 - math.cos(1.0), abs=1e-12)


def test_geometric_edges():
    e = geometric_edges(2.0, -1, 2, per_octave=1)
    assert np.allclose(e, [1.0, 2.0, 4.0, 8.0])
    with pytest.raises(ValueError):
        geometric_edges(0.0, 0, 1)


def test_refine_edges_caps_width():
    e = refine_edges([0.0, 1.0, 4.0], max_width=1.0)
    assert np.all(np.diff(e) <= 1.0 + 1e-15)
    assert e[0] == 0.0 and e[-1] == 4.0


def test_refine_edges_is_linspace_per_panel_bit_for_bit():
    rng = np.random.default_rng(3)
    edges = np.concatenate([[0.0], np.cumsum(rng.exponential(2.0, 300))])
    for width in (0.37, 1.2, 3.0):
        want = [edges[:1]]
        for a, b in zip(edges[:-1], edges[1:]):
            want.append(np.linspace(a, b, max(1, math.ceil((b - a) / width)) + 1)[1:])
        assert np.array_equal(refine_edges(edges, width), np.concatenate(want)), width
