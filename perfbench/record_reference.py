"""Record the correctness references the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/{figures,analytic_grid,validate}.json from the
code in this checkout's src/.  Run it only in a change that alters results
on purpose (a new random stream, a corrected closed form) and say why in
that change; the benchmark then judges later changes against the new
values.  Takes about two minutes on 2 cores.
"""

from __future__ import annotations

import json

from workloads import (FIG_SEED_BASE, FIG_SHARDS, FIG_TRIALS, GRID_POINTS,
                       GRID_SCHEMES, REFERENCE_DIR, REFERENCE_SETS, Figures,
                       grid_points, grid_values, load_ehrelay, sha256)


def figure_set(rep) -> dict:
    """Reference entry of one figures repetition: CSV digests and cells."""
    return {
        "csv_sha256": {str(n): sha256(text) for n, (_, text) in rep.output.items()},
        "cells": {str(n): [[r.param_value, r.scheme_id, r.analytic_outage, r.mc_outage]
                           for r in result.rows]
                  for n, (result, _) in rep.output.items()},
    }


def record_figures() -> dict:
    sets = {str(FIG_SEED_BASE + k): figure_set(Figures().rep({"mc_seed": FIG_SEED_BASE + k}))
            for k in range(REFERENCE_SETS)}
    return {"trials": FIG_TRIALS, "shards": FIG_SHARDS, "sets": sets}


def record_grid() -> dict:
    sets = {}
    for k in range(REFERENCE_SETS):
        values, _, _, error = grid_values(grid_points(k, GRID_POINTS))
        if error:
            raise SystemExit(f"set {k}: a closed form raised: {error}")
        sets[str(k)] = {scheme: values[i::len(GRID_SCHEMES)]
                        for i, scheme in enumerate(GRID_SCHEMES)}
    return {"points": GRID_POINTS, "sets": sets}


def record_validate() -> dict:
    from ehrelay import validation
    results = validation.run_all()
    return {"verdicts": [[r.index, r.name, "PASS" if r.passed else "FAIL"]
                         for r in results],
            "report_sha256": sha256(validation.report_csv(results))}


RECORDERS = {"figures": record_figures, "analytic_grid": record_grid,
             "validate": record_validate}


def main() -> None:
    load_ehrelay()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, record in RECORDERS.items():
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(record(), handle, indent=1)
            handle.write("\n")
        print(f"wrote {REFERENCE_DIR / name}.json")


if __name__ == "__main__":
    main()
