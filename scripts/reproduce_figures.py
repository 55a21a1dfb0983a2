#!/usr/bin/env python3
"""Regenerate the CSV tables behind the experiments of ehrelay.sweeps.FIGURES.

Each table lands in one file per experiment (fig3.csv ... fig9.csv).  The
default budget of one million trials per point reproduces the reference
curves; pass --trials to trade accuracy for speed.
"""

import argparse
import os
import time

from ehrelay import McConfig
from ehrelay.sweeps import FIGURES, fig

DEFAULT_TRIALS = 1_000_000
DEFAULT_SEED = 2024


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="data",
                        help="directory for the CSV files")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help="Monte Carlo trials per sweep point")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--shards", type=int, default=4,
                        help="simulation worker processes, at most; "
                             "the usable cores cap them too")
    parser.add_argument("--figs", type=int, nargs="*", default=list(FIGURES),
                        choices=tuple(FIGURES), help="subset of experiments to run")
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    cfg = McConfig(trials=args.trials, seed=args.seed, shards=args.shards)

    for n in args.figs:
        start = time.perf_counter()
        result = fig(n, mc=cfg)
        path = os.path.join(args.outdir, f"fig{n}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(result.to_csv())
        print(f"fig{n}: {len(result.rows)} rows -> {path} "
              f"({time.perf_counter() - start:.3f}s)")


if __name__ == "__main__":
    main()
