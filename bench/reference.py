"""Fixed reference jobs that measure how fast the machine is right now.

On a shared machine the same code runs at different speeds from one minute
to the next: other tenants' load comes and goes, and a whole run can fall
into a slow or a fast spell. worker.py therefore times one of these jobs
between the timed sweeps and reports each sweep's time divided by the mean
job time just before and just after it. Both feel the same spell, so the
ratio keeps what the program costs and drops most of what the machine did
meanwhile.

Each job imitates the kind of work that bounds one workload, since the
spells do not slow every kind of work alike. The jobs use only numpy and
the standard library, never uavcov, so a change to the package cannot
change them, and they free what they allocate, so they do not raise the
peak memory of the process around them.
"""

from __future__ import annotations

import time

import numpy as np

def small_calls() -> float:
    """Many numpy calls on two dozen elements: interpreter-bound, like one
    sparse Monte Carlo episode."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    acc = 0.0
    for _ in range(1500):
        a = rng.random(24)
        acc += float(np.max(np.hypot(a, a + 1.0) ** -1.5))
    return time.perf_counter() - t0


def medium_arrays() -> float:
    """Element-wise numpy on fresh 1.2 MB temporaries: allocation- and
    memory-bound, like the analytic quadrature grids."""
    t0 = time.perf_counter()
    x = np.random.default_rng(1).random(150_000)
    acc = 0.0
    for _ in range(20):
        y = np.sqrt(x * x + 0.5)
        acc += float(np.arccos(np.clip(y / 2.0, -1.0, 1.0)).sum())
    return time.perf_counter() - t0


def large_arrays() -> float:
    """Random draws and transcendental functions on 30,000-element arrays,
    like one dense Monte Carlo episode."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    acc = 0.0
    for _ in range(10):
        r = np.sqrt(rng.random(30_000)) * 3000.0
        a = 2.0 * np.pi * rng.random(30_000)
        d = np.hypot(r * np.cos(a), r * np.sin(a) - 5.0)
        p = 1.0 / (1.0 + 9.6 * np.exp(-0.16 * (np.degrees(np.arctan2(90.0, d)) - 9.6)))
        acc += float(np.sum(np.where(rng.random(len(d)) < p, d ** -2.09, d ** -3.75)))
    return time.perf_counter() - t0


JOBS = {"small-calls": small_calls, "medium-arrays": medium_arrays,
        "large-arrays": large_arrays}
