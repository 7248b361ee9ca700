import math

import numpy as np
import pytest

from numpy.polynomial.legendre import leggauss

from uavcov.quadrature import gauss_legendre, gauss_nodes

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


def test_golub_welsch_matches_leggauss():
    # the eigenvalues and first eigenvector components of the Jacobi matrix
    # against numpy's Newton-polished roots of P_n
    for n in range(1, 65):
        x, w = gauss_legendre(n)
        want_x, want_w = leggauss(n)
        assert np.max(np.abs(x - want_x)) <= 1e-14, n
        assert np.max(np.abs(w - want_w)) <= 1e-14, n
