"""Adaptive 1D quadrature plus fixed Gauss-Legendre grids.

The adaptive ``integrate`` wraps QUADPACK (scipy) behind an explicit
tolerance contract and raises ``QuadratureError`` with the best estimate
when the requested accuracy is not certified. Tensor-product evaluation of
the nested probability integrals uses the cached Gauss-Legendre rules.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate as _scipy_integrate

from .errors import QuadratureError

__all__ = ["QuadratureSpec", "integrate", "gauss_legendre", "gauss_nodes"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy/effort contract for adaptive integration."""

    rel_tol: float = 1e-4
    abs_tol: float = 1e-8
    max_depth: int = 12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


def integrate(fn, lo: float, hi: float, spec: QuadratureSpec | None = None) -> float:
    """Integrate a scalar function over [lo, hi] to the spec's tolerance.

    Semi-infinite and doubly infinite ranges are accepted (QUADPACK maps
    them through a compactifying substitution). A result whose error bound
    exceeds max(rel_tol*|I|, abs_tol) raises QuadratureError carrying the
    estimate and the bound.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not lo <= hi:
        raise ValueError(f"invalid integration range [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    # max_depth caps bisection depth; QUADPACK's `limit` counts subintervals
    limit = 2 ** int(spec.max_depth)
    with warnings.catch_warnings():
        warnings.simplefilter("error", _scipy_integrate.IntegrationWarning)
        try:
            value, err = _scipy_integrate.quad(
                fn, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=limit)
        except _scipy_integrate.IntegrationWarning as w:
            value, err = _scipy_integrate.quad(
                fn, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=limit,
                full_output=True)[:2]
            raise QuadratureError(
                f"integration did not converge: {w} (estimate {value!r}, bound {err!r})",
                estimate=value, error_bound=err) from None
    if err > max(spec.rel_tol * abs(value), spec.abs_tol):
        raise QuadratureError(
            f"error bound {err:.3e} exceeds tolerance for estimate {value:.6e}",
            estimate=value, error_bound=err)
    return value


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights

def gauss_nodes(lo, hi, n: int):
    """Gauss-Legendre nodes and weights rescaled to [lo, hi]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w
