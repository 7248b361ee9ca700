#!/usr/bin/env python3
"""Run all figure presets and write one CSV per parameter family.

Each preset sweeps an axis with both engines, so this takes a while at
publication-quality trial counts; use --trials to trade precision for time.
"""

import argparse
import pathlib
import time

from uavcov.cli import run_figure

PRESETS = ("fig2a", "fig2b", "fig3a", "fig3b")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--presets", default=",".join(PRESETS),
                        help="comma-separated subset of the presets")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    for preset in args.presets.split(","):
        start = time.time()
        for path, rows in run_figure(preset, outdir / f"{preset}.csv",
                                     args.trials, args.seed, threads=args.threads):
            print(f"{path}  ({len(rows)} rows, {time.time() - start:.0f}s)")
            start = time.time()


if __name__ == "__main__":
    main()
