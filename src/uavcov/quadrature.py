"""Fixed Gauss-Legendre grids for the tensor-product evaluation of the
nested probability integrals."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
# imported here, not on the first rule's call: numpy.polynomial loads lazily
from numpy.polynomial.legendre import leggauss

__all__ = ["gauss_legendre", "gauss_nodes"]


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_nodes(lo, hi, n: int):
    """Gauss-Legendre nodes and weights rescaled to [lo, hi]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w
