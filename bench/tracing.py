"""Spans around the calls between uavcov's modules, installed from outside
the package.

While a Tracer is entered it replaces, by attribute assignment, every
function one uavcov module imported from another (say `analytic`'s
`lens_complement_area` or `montecarlo`'s `receiving_radius`), the
functions reached through a module object (`cli` calls
`analytic.coverage_probability`), the methods of
`association.HeightContext`, and the hot functions that `analytic` and
`montecarlo` call inside themselves. On exit the originals come back.

A span is (name, start, end, parent), kept in flat arrays in memory. Its
self time is its duration minus the durations of its child spans, so the
self times of all spans add up to the duration of the outermost ones.
A name the code no longer has is not wrapped and its metrics are absent,
never zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "analytic", "geometry", "association", "quadrature",
          "model", "montecarlo")

# Calls made through a module object or inside one module, per module.
OWN_CALLS = {
    "cli": ("run_sweep", "rows_to_csv"),
    "analytic": ("coverage_probability", "coverage_probability_nearest",
                 "association_marginals", "_cond_handover_grid",
                 "_coverage_grid"),
    "montecarlo": ("summary_estimates", "simulate_episode", "episode_rng",
                   "sample_ppp", "associate", "_pathloss_gains"),
}

HEIGHT_CONTEXT_METHODS = {
    "__init__": "association.height_context.build",
    "p_type": "association.p_type",
    "cum_intensity": "association.cum_intensity",
    "inverse_cum": "association.inverse_cum",
}


def _size(args, kwargs, out):
    return int(np.size(out))


def _groups(args, kwargs, out):
    spec = args[0]
    return len(spec.values) * len(spec.policies) * len(spec.antennas)


def _written(args, kwargs, out):
    return args[1].tell()   # the benchmark passes a fresh ASCII buffer


# span name -> (count label, count from (args, kwargs, return value))
COUNTERS = {
    "cli.run_sweep": ("groups", _groups),
    "cli.rows_to_csv": ("bytes", _written),
    "geometry.lens_complement_area": ("elements", _size),
    "model.los_probability": ("elements", _size),
    "model.path_loss": ("elements", _size),
    "montecarlo.pathloss_gains": ("elements", _size),
    "montecarlo.sample_ppp": ("stations", lambda a, k, out: len(out)),
}


def _targets():
    """(owner, attribute, span name) of every call to wrap."""
    modules = {name: importlib.import_module(f"uavcov.{name}") for name in LAYERS}
    out = []
    for name, mod in modules.items():
        for attr, obj in vars(mod).items():
            home = getattr(obj, "__module__", "") or ""
            if (inspect.isfunction(obj) and home.startswith("uavcov.")
                    and home != mod.__name__):
                out.append((mod, attr, f"{home.rsplit('.', 1)[1]}.{obj.__name__}"))
        for attr in OWN_CALLS.get(name, ()):
            if inspect.isfunction(getattr(mod, attr, None)):
                out.append((mod, attr, f"{name}.{attr.lstrip('_')}"))
    ctx_cls = getattr(modules["association"], "HeightContext", None)
    for attr, span in HEIGHT_CONTEXT_METHODS.items():
        if ctx_cls is not None and inspect.isfunction(vars(ctx_cls).get(attr)):
            out.append((ctx_cls, attr, span))
    return out


class Tracer:
    """Records spans while entered; usable for several entries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, fn, span):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        sid = self._ids[span]
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        label, count = COUNTERS.get(span, (None, None))
        counts, key = self.counts, f"{span}.{label}"
        if count is not None:
            counts.setdefault(key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                counts[key] += count(args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        for owner, attr, span in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.intc),
                np.frombuffer(self.parent, dtype=np.intc),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def metrics(self) -> dict:
        """Per-span and per-layer totals over every span recorded."""
        ids, parent, start, end = self._arrays()
        k = len(self.names)
        dur = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(dur))
        self_time = dur - children
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=self_time, minlength=k)
        total_s = np.bincount(ids, weights=dur, minlength=k)
        out: dict = dict(self.counts)
        layers: dict = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])
            out[f"{span}.total_s"] = float(total_s[i])
            layer = span.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + float(self_s[i])
        for layer, value in layers.items():
            out[f"{layer}.self_s"] = value
        out["trace.spans"] = len(dur)
        out["trace.self_sum_s"] = float(np.sum(self_time))
        return out

    def save(self, path) -> None:
        ids, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=ids,
                 parent=parent, start=start, end=end)
