"""Fixed Gauss-Legendre grids for the tensor-product evaluation of the
nested probability integrals, and Gauss nodes on panels split per row."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["gauss_legendre", "gauss_nodes", "panel_nodes"]


def _legendre(x, runs: dict):
    """P_k(x) and P_(k-1)(x) by the three-term recurrence m P_m = (2m - 1) x
    P_(m-1) - (m - 1) P_(m-2), the elements of x in runs {k: slice} of one
    order k >= 1 each."""
    q, p = np.ones_like(x), x
    p_k, q_k = p.copy(), q.copy()
    for m in range(2, max(runs) + 1):
        q, p = p, ((2 * m - 1) * x * p - (m - 1) * q) / m
        if m in runs:
            p_k[runs[m]], q_k[runs[m]] = p[runs[m]], q[runs[m]]
    return p_k, q_k


def _gauss_rules(orders) -> list:
    """(nodes, weights) of the Gauss-Legendre rule on [-1, 1] of each of the
    distinct orders, nodes ascending.

    The nodes in [0, 1) of all rules at once: Newton's method on P_k from
    Tricomi's first guess (1 - (k - 1) / (8 k^3)) cos(pi (4i - 1) / (4k + 2)),
    written as a sine that is exactly 0 at an odd rule's middle node, and
    weights 2 / ((1 - x^2) P_k'(x)^2); then mirrored, so that every rule is
    exactly symmetric, and the weights scaled to sum to 2, as numpy's
    leggauss does, so that a probability the rule integrates stays at most
    1. No eigen-solve: LAPACK's threaded path could cost a cold rule
    milliseconds."""
    half = [(n + 1) // 2 for n in orders]
    ends = np.cumsum(half)
    runs = {n: slice(end - h, end) for n, h, end in zip(orders, half, ends)}
    k = np.repeat(np.array(orders, dtype=float), half)
    i = np.arange(k.size) - np.repeat(ends - half, half) + 1.0
    x = (1.0 - (k - 1.0) / (8.0 * k ** 3)) * np.sin(
        np.pi * (k + 1.0 - 2.0 * i) / (2.0 * k + 1.0))
    for _ in range(20):
        p, q = _legendre(x, runs)
        step = p * (x - 1.0) * (x + 1.0) / (k * (x * p - q))
        x = x - step
        if np.all(np.abs(step) <= 1e-15):
            break
    p, q = _legendre(x, runs)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (k * (x * p - q)) ** 2
    rules = [(np.concatenate([-x[run][:n // 2], x[run][::-1]]),
              np.concatenate([w[run][:n // 2], w[run][::-1]]))
             for n, run in runs.items()]
    for _, w_n in rules:
        w_n *= 2.0 / w_n.sum()
    return rules


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    [(nodes, weights)] = _gauss_rules((n,))
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
    for k, rule in enumerate(_gauss_rules(range(1, n + 1)), 1):
        rules[:, k, :k] = rule
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
