"""One benchmark process: import uavcov from this checkout, run one part of a
workload, check its CSV output and print one JSON line with the results.

run.py starts one of these per set-up sample, per analytic pass and per MC
run, so each starts with the cold caches of a fresh `uavcov` command:

    python3 bench/worker.py setup
    python3 bench/worker.py analytic-sweep --seed 1 --trace 0
    python3 bench/worker.py mc-sparse --seed 1 --seconds 10 --trace 1 --spans OUT.npz
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from reference import JOBS
from workloads import METRICS, OUTPUTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = (ROOT / "src").resolve()
REFERENCES = Path(__file__).resolve().parent / "references.json"

ANALYTIC_TOL = 5e-4    # test_grid_convergence's bound on the default grid
MC_FLOOR = 0.02        # cli.validate's rule: max(0.02, 3 * CI half-width)
Z95 = 1.959963984540054
WARMUP_STREAM = 1 << 20   # MC seed of sweep b is seed + (b << 32)


def import_cli():
    """uavcov.cli from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import uavcov
    from uavcov import cli

    where = Path(uavcov.__file__).resolve()
    if not where.is_relative_to(SRC):
        raise SystemExit(f"uavcov was imported from {where}, not from {SRC}")
    return cli


def load_references() -> dict:
    points = json.loads(REFERENCES.read_text())["points"]
    return {(p["lambda_b"], p["policy"], p["antenna"]): p for p in points}


def sweep(cli, params, wl, seed: int, trials: int = 20_000) -> str:
    """The timed unit: `uavcov sweep` up to its CSV text."""
    spec = cli.SweepSpec(axis="lambda_b", values=wl.lambdas, metrics=METRICS,
                         policies=wl.policies, antennas=wl.antennas,
                         engine=wl.engine, trials=trials, seed=seed)
    rows = cli.run_sweep(spec, params, threads=1)
    buf = io.StringIO()
    cli.rows_to_csv(rows, buf)
    return buf.getvalue()


def csv_points(text: str) -> dict:
    """CSV rows grouped by point, keyed like the references."""
    points: dict = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (float(row["value"]), row["policy"], row["antenna"])
        points.setdefault(key, {})[row["metric"]] = row
    return points


def check_analytic(text: str, refs: dict, wl) -> tuple[int, float]:
    """(failed points, largest deviation) of one analytic sweep's CSV."""
    points = csv_points(text)
    failed = wl.points - len(points)
    worst = 0.0
    for key, rows in points.items():
        ref = refs.get(key)
        if (ref is None or set(rows) != set(OUTPUTS)
                or any(r["error"] or not r["analytic"] for r in rows.values())):
            failed += 1
            continue
        err = max(abs(float(r["analytic"]) - ref[name]) for name, r in rows.items())
        worst = max(worst, err)
        failed += err > ANALYTIC_TOL
    return failed, worst


def wilson(successes: int, n: int) -> tuple[float, float]:
    p = successes / n
    denom = 1.0 + Z95 * Z95 / n
    center = (p + Z95 * Z95 / (2 * n)) / denom
    hw = Z95 * math.sqrt(p * (1.0 - p) / n + Z95 * Z95 / (4 * n * n)) / denom
    return max(center - hw, 0.0), min(center + hw, 1.0)


def mc_point_ok(rows: dict, ref: dict) -> bool:
    if set(rows) != set(OUTPUTS):
        return False
    for name, row in rows.items():
        if row["error"] or not row["mc_mean"] or not row["n"]:
            return False
        half = 0.5 * (float(row["mc_ci_high"]) - float(row["mc_ci_low"]))
        if abs(float(row["mc_mean"]) - ref[name]) > max(MC_FLOOR, 3.0 * half):
            return False
    return True


def check_mc(texts: list, refs: dict, wl) -> tuple[int, int]:
    """(attempted, failed) over every MC sweep, plus one pooled point."""
    key = (wl.lambdas[0], wl.policies[0], wl.antennas[0])
    ref = refs[key]
    failed = 0
    pooled: dict = {name: [0, 0] for name in OUTPUTS}
    for text in texts:
        rows = csv_points(text).get(key, {})
        if not mc_point_ok(rows, ref):
            failed += 1
            continue
        for name, row in rows.items():
            n = int(row["n"])
            pooled[name][0] += round(float(row["mc_mean"]) * n)
            pooled[name][1] += n
    pooled_rows = {}
    for name, (hits, n) in pooled.items():
        if n:
            lo, hi = wilson(hits, n)
            pooled_rows[name] = {"error": "", "n": str(n), "mc_mean": str(hits / n),
                                 "mc_ci_low": str(lo), "mc_ci_high": str(hi)}
    failed += not mc_point_ok(pooled_rows, ref)
    return len(texts) + 1, failed


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drift_events(cli):
    """The process-global drift counter, or None once the package drops it."""
    counter = getattr(cli.analytic, "coverage_drift_events", None)
    return None if counter is None else counter()


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Reference:
    """The workload's reference job, timed between the timed sweeps."""

    def __init__(self, wl):
        self.job, self.repeats = JOBS[wl.reference], wl.reference_repeats
        self.job()
        self.last = self.time()

    def time(self) -> float:
        return statistics.median(self.job() for _ in range(self.repeats))

    def relative(self, wall: float) -> float:
        """A sweep's time over the mean reference time just before and just
        after it."""
        before, self.last = self.last, self.time()
        return 2.0 * wall / (before + self.last)


def run_analytic(cli, wl, seed: int, tracer) -> dict:
    """One pass over every point, traced when a tracer is given."""
    params = cli.load_config(None)
    ref = Reference(wl)
    with tracer or nullcontext():
        text, wall = timed(sweep, cli, params, wl, seed)
    rel = ref.relative(wall)
    failed, worst = check_analytic(text, load_references(), wl)
    side = "traced_" if tracer else ""
    return {f"{side}wall_s": [wall], f"{side}rel": [rel],
            "attempted": wl.points, "failed": failed, "max_err": worst,
            "drift_events": drift_events(cli), "csv_sha256": sha256(text)}


def run_mc(cli, wl, seed: int, seconds: float, tracer) -> dict:
    """Untimed warm-up, then MC sweeps of block_trials episodes each, with
    the reference job between sweeps.

    Untraced: sweeps until `seconds` have passed. Traced: trace_pairs pairs
    of one untraced and one traced sweep on the same seed, in alternating
    order, whose CSVs must match byte for byte.
    """
    params = cli.load_config(None)
    sweep(cli, params, wl, seed + (WARMUP_STREAM << 32), wl.warmup_trials)
    ref = Reference(wl)
    out = {"wall_s": [], "rel": [], "traced_wall_s": [], "traced_rel": []}
    texts, mismatches = [], 0

    def measure(block: int, side: str = "") -> str:
        text, wall = timed(sweep, cli, params, wl, seed + (block << 32),
                           wl.block_trials)
        out[f"{side}wall_s"].append(wall)
        out[f"{side}rel"].append(ref.relative(wall))
        return text

    if tracer is None:
        t_end = time.perf_counter() + seconds
        while not texts or time.perf_counter() < t_end:
            texts.append(measure(len(texts)))
    else:
        for b in range(wl.trace_pairs):
            pair = {}
            for traced in ((False, True) if b % 2 == 0 else (True, False)):
                with tracer if traced else nullcontext():
                    pair[traced] = measure(b, "traced_" if traced else "")
            texts.append(pair[False])
            mismatches += pair[True] != pair[False]
    attempted, failed = check_mc(texts, load_references(), wl)
    return {**out, "attempted": attempted, "failed": failed + mismatches,
            "drift_events": drift_events(cli), "csv_sha256": sha256(texts[0])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("part", choices=("setup", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="file the traced run's spans are written to")
    args = parser.parse_args(argv)

    cli = import_cli()
    if args.part == "setup":
        cli.load_config(None)
        print(json.dumps({}))
        return 0
    wl = WORKLOADS[args.part]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    if wl.engine == "analytic":
        result = run_analytic(cli, wl, args.seed, tracer)
    else:
        result = run_mc(cli, wl, args.seed, args.seconds, tracer)
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.metrics()
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
