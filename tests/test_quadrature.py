import math

import numpy as np
import pytest

from numpy.polynomial.legendre import leggauss

from uavcov.quadrature import _rule_table, gauss_legendre, gauss_nodes

from quadpack import QuadratureError, QuadratureSpec, integrate


def test_polynomial_exactness():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
    assert integrate(lambda x: x, 0.0, 1.0, spec) == pytest.approx(0.5, abs=1e-10)


def test_rayleigh_normalization_semi_infinite():
    mu = 3e-4
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12)
    val = integrate(lambda x: 2 * np.pi * mu * x * math.exp(-np.pi * mu * x * x),
                    0.0, np.inf, spec)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_sine_over_period():
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12)
    assert integrate(math.sin, 0.0, math.pi, spec) == pytest.approx(2.0, abs=1e-8)


def test_failure_carries_estimate():
    # an interior singularity two subintervals cannot resolve
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_depth=1)
    with pytest.raises(QuadratureError) as err:
        integrate(lambda x: abs(x - 0.3) ** -0.5, 0.0, 1.0, spec)
    assert err.value.estimate is not None
    assert err.value.error_bound is not None


def test_empty_range():
    assert integrate(math.sin, 1.0, 1.0) == 0.0


def test_invalid_range():
    with pytest.raises(ValueError):
        integrate(math.sin, 1.0, 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)


def test_gauss_nodes_integrate_cubic():
    x, w = gauss_nodes(0.0, 2.0, 8)
    assert float(np.sum(w * x**3)) == pytest.approx(4.0, rel=1e-12)


def test_newton_rules_match_leggauss():
    # Newton's roots of P_n, mirrored, against numpy's Newton-polished
    # companion-matrix roots of P_n
    for n in range(1, 65):
        x, w = gauss_legendre(n)
        want_x, want_w = leggauss(n)
        assert np.max(np.abs(x - want_x)) <= 1e-14, n
        assert np.max(np.abs(w - want_w)) <= 1e-14, n
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n


def test_rules_build_without_an_eigen_solver(monkeypatch):
    # the threaded LAPACK path of eigh could cost a cold rule milliseconds
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for n in range(1, 65):
        assert len(gauss_legendre.__wrapped__(n)[0]) == n
    x, w = _rule_table.__wrapped__(44)
    for n in range(1, 45):
        rule = slice(n * 44, n * 44 + n)
        assert np.array_equal(x[rule], gauss_legendre(n)[0]), n
        assert np.array_equal(w[rule], gauss_legendre(n)[1]), n
