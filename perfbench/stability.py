"""Run the benchmark once per seed and report how steady its metrics are.

    python3 perfbench/stability.py [--seeds 1 2 ...] [--traced]

Runs ``run.py --trace 0`` once per (workload, seed) for every workload of
BENCHMARK.json at its run_seconds, from the repository root and one at a
time, and prints as Markdown, for every end-to-end metric, the median, the
quartiles, and the spread (q3 - q1) / median.  A spread above a third of
the metric's bound, or above 0.1, is flagged.  With --traced, one traced
run per workload (first seed) adds a table of the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    return {"detail": json.loads(lines[0])["detail"], "result": json.loads(lines[-1]),
            "elapsed_s": time.perf_counter() - start}


def spread(values: list) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="*", type=int, default=list(range(1, 11)))
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    per_layer = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        print_table(workload, runs, bounds)
        if args.traced:
            traced = run_once(workload, args.seeds[0], seconds, 1)
            per_layer[workload] = {k: v["value"] for k, v
                                   in traced["result"]["metrics"].items()}
    if per_layer:
        print_layers(per_layer, [m["name"] for m in bench["per_layer"]],
                     args.seeds[0])


def print_table(workload: str, runs: list, bounds: dict) -> None:
    results = [r["result"] for r in runs]
    elapsed = [r["elapsed_s"] for r in runs]
    print(f"\n### {workload}\n\ncorrect on every run: "
          f"{all(r['correct'] for r in results)}; ops attempted "
          f"{sum(r['attempted'] for r in results)}, failed "
          f"{sum(r['failed'] for r in results)}; repetitions per run "
          f"{[len(r['detail']['reps']) for r in runs]} of "
          f"{runs[0]['detail']['reps_planned']} planned; run length "
          f"{min(elapsed):.0f}-{max(elapsed):.0f} s\n")
    print("| metric | unit | median | q1 | q3 | spread | bound | flag |")
    print("|---|---|---|---|---|---|---|---|")
    rows = [(name, [r["metrics"][name]["value"] for r in results],
             results[0]["metrics"][name]["unit"]) for name in bounds]
    rows += [(name, [r["detail"]["workload_metrics"][name][0] for r in runs], unit)
             for name, (_, unit) in runs[0]["detail"]["workload_metrics"].items()]
    for name, values, unit in rows:
        s = spread(values)
        bound = bounds.get(name)
        flag = ((bound is not None and name != "setup_s" and s["spread"] > bound / 3)
                or s["spread"] > 0.1)
        print(f"| `{name}` | {unit} | {s['median']:.6g} | {s['q1']:.6g} | "
              f"{s['q3']:.6g} | {s['spread']:.3f} | "
              f"{'-' if bound is None else f'{bound:.2f}'} | "
              f"{'**unsteady**' if flag else ''} |")
    sys.stdout.flush()


def print_layers(per_layer: dict, names: list, seed: int) -> None:
    workloads = list(per_layer)
    print(f"\n### per-layer metrics (traced run, seed {seed})\n")
    print("| metric | " + " | ".join(workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for name in names:
        print(f"| `{name}` | "
              + " | ".join(f"{per_layer[w][name]:.6g}" for w in workloads) + " |")


if __name__ == "__main__":
    main()
