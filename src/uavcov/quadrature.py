"""Fixed Gauss-Legendre grids for the tensor-product evaluation of the
nested probability integrals, and Gauss nodes on panels split per row."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["gauss_legendre", "gauss_nodes", "panel_nodes"]


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]: the
    eigenvalues of the symmetric Jacobi matrix of the Legendre recurrence,
    off-diagonal beta_k = k / sqrt(4 k^2 - 1), and twice the squared first
    components of its unit eigenvectors (Golub and Welsch, Math. Comp.
    1969)."""
    k = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    weights = 2.0 * vectors[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_nodes(lo, hi, n: int):
    """Gauss-Legendre nodes and weights rescaled to [lo, hi]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


@lru_cache(maxsize=8)
def _rule_table(n: int):
    """The Gauss rules of 0 to n nodes on [-1, 1]: nodes and weights of
    rule k in row k of two flat (n + 1) x n tables, zero-padded."""
    rules = np.zeros((2, n + 1, n))
    for k in range(1, n + 1):
        rules[:, k, :k] = gauss_legendre(k)
    return rules[0].ravel(), rules[1].ravel()


def panel_nodes(breaks, n: int):
    """n Gauss nodes and weights per row on [0, the row's largest break],
    in panels split at its breaks: each panel takes one node and a share of
    the rest in proportion to the square root of its width (largest
    remainder); a panel narrower than 1e-12 of the row's range merges into
    the next. A row whose breaks are all 0 gets weights 0."""
    edges = np.sort(breaks, axis=1)
    top = edges[:, -1:]
    gap = 1e-12 * top
    keep = top - edges > gap
    keep[:, 1:] &= np.diff(edges, axis=1) > gap
    keep[:, -1] = True
    # an edge not kept moves to the next kept one, leaving a panel of width 0
    edges = np.minimum.accumulate(np.where(keep, edges, np.inf)[:, ::-1], axis=1)[:, ::-1]
    width = np.diff(edges, axis=1)
    root = np.sqrt(width)
    root[:, -1] += ~root.any(axis=1)    # a row of width 0: its last panel
    live = root > 0.0
    share = (n - live.sum(axis=1, keepdims=True)) * root / root.sum(axis=1, keepdims=True)
    whole = np.floor(share)
    counts = np.where(live, 1 + whole, 0).astype(int)
    rank = np.argsort(np.argsort(np.where(live, whole - share, 1.0), axis=1, kind="stable"),
                      axis=1)
    counts += rank < n - counts.sum(axis=1, keepdims=True)
    # each node's panel, flat over the rows, and its place in that panel's rule
    counts = counts.ravel()
    panel = np.repeat(np.arange(counts.size), counts)
    rule = np.arange(panel.size) + (n * counts - np.cumsum(counts) + counts).take(panel)
    x, w = _rule_table(n)
    half = 0.5 * width.ravel().take(panel)
    return ((edges[:, :-1].ravel().take(panel) + half * (x.take(rule) + 1.0)).reshape(-1, n),
            (half * w.take(rule)).reshape(-1, n))
