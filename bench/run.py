"""Benchmark of uavcov's analytic and Monte Carlo engines.

    python3 bench/run.py --workload analytic-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Every set-up sample, every analytic pass
and every MC run is its own `python3 bench/worker.py` process, so each pays
the cold caches of a fresh `uavcov` command and reports its own peak memory.
With --trace 0 the end-to-end metrics of BENCHMARK.json are measured with no
tracing; with --trace 1 the per-layer metrics come from a traced run of a
fixed amount of work next to an untraced run of the same work. The last line
of standard output is one JSON object; the lines above it are for people.
Any failed check makes the exit code 1; a process that could not run makes
it 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "uavcov"
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

# per-layer names in BENCHMARK.json that are span totals under another name
ALIASES = {
    "association.height_context.builds": "association.height_context.build.calls",
    "association.height_context.build_s": "association.height_context.build.total_s",
    "montecarlo.episodes": "montecarlo.simulate_episode.calls",
}


class BenchError(Exception):
    pass


class Children:
    """Runs worker processes one at a time inside one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def run(self, *args: str) -> tuple[dict, float]:
        """(worker's JSON result, wall time of the whole process)."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(WORKER), *args],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args} ran out of time") from None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def src_lines() -> dict:
    lines = {f"{p.stem}.lines": len(p.read_text().splitlines())
             for p in sorted(SRC.glob("*.py"))}
    lines["src.lines"] = sum(lines.values())
    return lines


def percentile(values, q: float) -> float:
    """Nearest rank: the smallest value with a share q of the values at or
    below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def merge(results: list) -> dict:
    """Pool the samples and checks of the workers of one run. Workers of one
    run sweep the same first inputs, so a CSV that differs from the first
    worker's counts as one more failure."""
    drift = [r["drift_events"] for r in results]
    differing = sum(r["csv_sha256"] != results[0]["csv_sha256"] for r in results)
    samples = ("wall_s", "rel", "traced_wall_s", "traced_rel")
    return {
        **{key: [x for r in results for x in r.get(key, [])] for key in samples},
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results) + differing,
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "max_err": max((r["max_err"] for r in results if "max_err" in r),
                       default=None),
        "drift_events": None if None in drift else sum(drift),
        "csv_sha256": results[0]["csv_sha256"],
        "trace": next((r["trace"] for r in results if "trace" in r), None),
    }


def run_workload(children: Children, wl, args, spans: Path | None) -> dict:
    """Run the workers of one workload and merge their results."""
    common = [wl.name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    traced = ["--trace", "1", "--spans", str(spans)]
    if wl.engine == "mc":
        results = [children.run(*common, *(traced if args.trace else []))[0]]
    elif args.trace:
        results = [children.run(*common)[0], children.run(*common, *traced)[0]]
    else:
        results, t_end = [], time.perf_counter() + args.seconds
        while not results or time.perf_counter() < t_end:
            results.append(children.run(*common)[0])
    return merge(results)


def per_layer(merged: dict) -> dict:
    values = dict(merged["trace"])
    for alias, name in ALIASES.items():
        if name in values:
            values[alias] = values[name]
    if "montecarlo.sample_ppp.calls" in values:
        calls = values["montecarlo.sample_ppp.calls"]
        values["montecarlo.stations_per_episode"] = (
            values["montecarlo.sample_ppp.stations"] / calls if calls else 0.0)
    if merged["drift_events"] is not None:
        values["analytic.drift_events"] = merged["drift_events"]
    values["trace_overhead_frac"] = (statistics.median(merged["traced_rel"])
                                     / statistics.median(merged["rel"]) - 1.0)
    values["trace.self_sum_frac"] = (values["trace.self_sum_s"]
                                     / sum(merged["traced_wall_s"]))
    values.update(src_lines())
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S

    if not (SRC / "__init__.py").is_file():
        print(f"no uavcov sources at {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    children = Children(deadline)
    spans = OUT / f"{wl.name}-seed{args.seed}-spans.npz"
    if args.trace:
        OUT.mkdir(exist_ok=True)
    try:
        setup = ([] if args.trace else
                 [children.run("setup")[1] for _ in range(SETUP_SAMPLES)])
        merged = run_workload(children, wl, args, spans)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2

    walls = merged["wall_s"]
    unit = "points" if wl.engine == "analytic" else "episodes"
    print(f"workload {wl.name}, seed {args.seed}: {len(walls)} timed sweeps "
          f"of {wl.sweep_items} {unit}")
    if args.trace:
        values = per_layer(merged)
        metrics = declared["per_layer"]
        layers = spans.with_name(spans.name.replace("-spans.npz", "-layers.json"))
        layers.write_text(json.dumps(values, indent=1) + "\n")
        print(f"per-layer totals over the traced {unit}; every span total in "
              f"{layers.relative_to(ROOT)}, the spans in {spans.relative_to(ROOT)}")
    else:
        values = {"sweep_ref": statistics.median(merged["rel"]),
                  "peak_rss_mb": statistics.median(merged["peak_rss_mb"]),
                  "setup_s": statistics.median(setup)}
        metrics = declared["end_to_end"]
        print(f"medians of {len(walls)} sweeps (each over the {wl.reference} "
              f"job timed before it), {len(merged['peak_rss_mb'])} workers, "
              f"{len(setup)} set-up processes")
    info = {f"{wl.engine}_{unit}_per_s": wl.sweep_items / statistics.median(walls),
            "sweep_p50_s": statistics.median(walls),
            "sweep_p90_s": percentile(walls, 0.9),
            "failed_frac": merged["failed"] / merged["attempted"],
            "analytic_max_err": merged["max_err"],
            "analytic.drift_events": merged["drift_events"],
            "csv_sha256": merged["csv_sha256"]}
    for m in metrics:
        if m["name"] in values:
            print(f"  {m['name']:<40} {values[m['name']]:.6g} {m['unit']}")
    for name, value in info.items():
        if name not in values:
            print(f"  {name:<40} {value}")
    result = {
        "correct": merged["failed"] == 0,
        "attempted": merged["attempted"],
        "failed": merged["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics if m["name"] in values},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
