"""Write references.json: refined-grid analytic values of every
analytic-sweep point.

Run from the repository root against the code the references describe:

    PYTHONPATH=src python3 bench/make_references.py

Each point is evaluated the way `uavcov sweep --engine analytic` does, but
with the serving-distance and altitude grids refined to
(n_z, n_r0) = (20, 56), the refinement tests/test_analytic.py's
test_grid_convergence compares the default grid against. The mc-* workloads
read their analytic side from the same file. This uses private names of the
code it was written for; the committed file is the reference, the script
records how it was made.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import WORKLOADS

N_Z, N_R0 = 20, 56
OUT = Path(__file__).resolve().parent / "references.json"


def main() -> int:
    from uavcov import analytic, cli
    from uavcov.model import AssociationPolicy, LinkType

    base = cli.load_config(None)
    wl = WORKLOADS["analytic-sweep"]
    points = []
    for lam in wl.lambdas:
        for policy in wl.policies:
            for antenna in wl.antennas:
                p = cli._apply_antenna(cli._apply_axis(base, "lambda_b", lam), antenna)
                p = p.with_(policy=AssociationPolicy(policy))
                metrics = analytic._policy_metrics(
                    p.with_(kappa=0.0), policy == "nearest", N_Z, N_R0)
                breakdown = analytic._breakdown(p, metrics)
                points.append({
                    "lambda_b": lam, "policy": policy, "antenna": antenna,
                    "coverage": breakdown.total,
                    "handover": breakdown.handover_prob,
                    "association_los": metrics.assoc[LinkType.LOS],
                    "association_nlos": metrics.assoc[LinkType.NLOS],
                    "void": breakdown.void_prob,
                })
                print(f"{lam:>7g} {policy:<14}{antenna:<12}done", file=sys.stderr)
    OUT.write_text(json.dumps({"grid": {"n_z": N_Z, "n_r0": N_R0},
                               "points": points}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
