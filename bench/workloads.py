"""The benchmark's workloads: fixed sweeps through the user-facing path.

Every workload is a `uavcov sweep` over the lambda_b axis with the metrics
coverage, handover, association and void, run as `cli.run_sweep` followed
by `cli.rows_to_csv` into an in-memory buffer, with one thread. The inputs
are fixed here rather than read from the package, so a change to the
package's own grids cannot change what is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

METRICS = ("coverage", "handover", "association", "void")

# The per-point outputs a sweep row carries, in CSV metric-column spelling.
OUTPUTS = ("coverage", "handover", "association_los", "association_nlos", "void")

# cli.LAMBDA_GRID of the code the references were made from, per km^2.
LAMBDA_GRID = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str               # "analytic" or "mc"
    lambdas: tuple
    policies: tuple
    antennas: tuple
    reference: str            # reference.JOBS entry timed between sweeps
    reference_repeats: int    # job runs per reference time (their median)
    block_trials: int = 0     # MC episodes per timed sweep
    warmup_trials: int = 0    # MC episodes of the untimed warm-up sweep
    trace_pairs: int = 0      # MC untraced/traced sweep pairs of a traced run

    @property
    def points(self) -> int:
        return len(self.lambdas) * len(self.policies) * len(self.antennas)

    @property
    def sweep_items(self) -> int:
        """Work of one timed sweep: points, or MC episodes."""
        return self.points if self.engine == "analytic" else self.block_trials


WORKLOADS = {w.name: w for w in (
    # All time in analytic, geometry, association and quadrature; none in
    # montecarlo. The strongest-RSS points spend most of their time in the
    # handover kernel, the nearest-policy points use it 4x less, so a gain
    # for one policy only shows as a partial gain here.
    Workload("analytic-sweep", "analytic", LAMBDA_GRID,
             ("strongest_rss", "nearest"), ("directional", "omni"),
             "medium-arrays", 5),
    # Baseline scenario, about 24 stations per episode: the interpreter's
    # per-episode overhead sets the speed.
    Workload("mc-sparse", "mc", (100.0,), ("strongest_rss",), ("directional",),
             "small-calls", 1, block_trials=1000, warmup_trials=300, trace_pairs=10),
    # Omni antenna at 1000/km^2, about 29,600 stations per episode: numpy's
    # large-array work sets the speed and memory grows with the field.
    Workload("mc-dense", "mc", (1000.0,), ("strongest_rss",), ("omni",),
             "large-arrays", 3, block_trials=100, warmup_trials=100, trace_pairs=5),
)}
