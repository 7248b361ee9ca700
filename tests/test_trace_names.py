"""The benchmark's tracer wraps uavcov functions by name: a renamed or
removed function silently drops its per-layer metrics. These checks catch
that in the fast suite, without running a workload."""

import importlib.util
import json
from pathlib import Path

import pytest

from uavcov import analytic

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    # run.py imports its sibling modules by their plain names
    monkeypatch.syspath_prepend(str(BENCH))
    return _load("tracing"), _load("run")


def test_every_declared_span_metric_is_traced(bench):
    tracing, run = bench
    tracer = tracing.Tracer()
    with tracer:
        pass
    traced = set(tracer.metrics())
    declared = {m["name"] for m in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    # the metrics run.py derives from the worker, the source tree or
    # other span metrics, rather than reading them off the tracer
    derived = {"trace_overhead_frac", "trace.self_sum_frac",
               "analytic.drift_events", "montecarlo.stations_per_episode"}
    derived |= {name for name in declared if name.endswith(".lines")}
    wanted = {run.ALIASES.get(name, name) for name in declared - derived}
    wanted |= {"montecarlo.sample_ppp.calls", "montecarlo.sample_ppp.stations"}
    assert wanted <= traced, sorted(wanted - traced)


def test_drift_counter_is_callable():
    assert callable(analytic.coverage_drift_events)
    assert isinstance(analytic.coverage_drift_events(), int)
