"""ehrelay benchmark: one workload, end-to-end or traced, checked for correctness.

    python3 perfbench/run.py --workload figures|validate|analytic-grid \\
        --seed N --seconds S --trace 0|1

--trace 0 measures end-to-end metrics with no tracer installed: set-up time
of fresh interpreters, then a fixed number of timed repetitions in fresh
worker processes (worker.py), capped at S seconds, each checked against the
references in perfbench/reference/.
--trace 1 runs the workload once untraced and once traced, and reports the
per-layer metrics from the tracer plus the tracing overhead.

Standard output carries one JSON line of detail (environment, every
repetition, the workload-specific metrics) and, last, the result line.  A
summary table goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import FIG_SHARDS, SRC, WORKLOADS, Rep, load_ehrelay, quantile

BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 5
# A run must end within 180 s; set-up takes a few of them.
WORKERS_LIMIT_S = 150.0
SCHEMES = ("static_equal", "dynamic_ps", "improved")
SCENARIOS = ("One", "TwoLow", "TwoHigh", "ThreeLow", "ThreeHigh")
CRITERIA = 12

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    names = [
        ("numerics.sample_exponential.calls", "count"),
        ("numerics.sample_exponential.busy_s", "s"),
        ("numerics.sample_exponential.ns_per_draw", "ns"),
        ("numerics.bessel_k1.calls", "count"),
        ("numerics.bessel_k1.underflows", "count"),
        ("numerics.integrate_gc.calls", "count"),
        ("numerics.integrate_gc.nodes", "count"),
    ]
    for scheme in SCHEMES:
        names += [(f"montecarlo.mc_outage.{scheme}.calls", "count"),
                  (f"montecarlo.mc_outage.{scheme}.busy_s", "s"),
                  (f"montecarlo.mc_outage.{scheme}.trials_per_s", "1/s"),
                  (f"montecarlo.kernel.{scheme}.busy_s", "s")]
    names += [
        ("montecarlo.mc_energy_outage.busy_s", "s"),
        ("montecarlo.draws_per_trial_evaluated", "ratio"),
        ("montecarlo.parallel_efficiency", "ratio"),
        ("outage.cdf_t2.calls", "count"),
        ("outage.cdf_t2.busy_s", "s"),
        ("outage.cdf_t3.calls", "count"),
        ("outage.cdf_t3.busy_s", "s"),
        ("outage.cdf_t3_calls_per_improved", "ratio"),
    ]
    names += [(f"outage.p_case{k}.busy_s", "s") for k in range(1, 5)]
    names += [("outage.case4_geometry.busy_s", "s")]
    names += [(f"outage.case4_scenario.{s}", "count") for s in SCENARIOS]
    names += [
        ("outage.outage_dynamic_ps.calls", "count"),
        ("outage.outage_dynamic_ps.busy_s", "s"),
        ("outage.outage_improved.calls", "count"),
        ("outage.outage_improved.busy_s", "s"),
        ("model.derive_constants.calls", "count"),
        ("model.derive_constants.busy_s", "s"),
        ("sweeps.cells", "count"),
        ("sweeps.run_sweep.self_s", "s"),
        ("sweeps.to_csv.busy_s", "s"),
        ("sweeps.csv_identical", "count"),
    ]
    names += [(f"validation.criterion_{i:02d}.busy_s", "s")
              for i in range(1, CRITERIA + 1)]
    names += [
        ("validation.criteria_passed", "count"),
        ("setup.import_s", "s"),
        ("setup.first_call_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


# -- environment and set-up ----------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def environment() -> dict:
    """What a result depends on besides the code.  Reads only, changes nothing."""
    import numpy
    import scipy
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(f"{index}/level")
        kind = _read(f"{index}/type")
        caches[f"L{level} {kind}"] = _read(f"{index}/size")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches_per_core": caches,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "figures_shards": FIG_SHARDS,
        "machine": ("shared with other tenants; no system setting was changed "
                    "to measure"),
    }


def measure_setup(runs: int = SETUP_RUNS) -> list:
    """Wall time of fresh interpreters that import ehrelay and call it once."""
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                               str(SRC)], capture_output=True, text=True,
                              timeout=120, check=False)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        sample["wall_s"] = wall
        samples.append(sample)
    return samples


# -- end-to-end run ------------------------------------------------------

def timed_processes(workload, seed: int, seconds: float) -> list:
    """Run workload.processes fresh worker processes one after another;
    return each one's checked repetitions, workload.reps_per_process of them.

    The count is fixed, so that every commit is measured from the same
    number of samples; ``seconds`` only caps it: after that time no
    process starts, and no repetition but a process's first.
    """
    processes = []
    start = time.perf_counter()
    deadline = time.monotonic() + seconds
    for _ in range(workload.processes):
        if time.monotonic() >= deadline:
            break
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), workload.name,
             str(seed), str(workload.reps_per_process), repr(deadline)],
            stdout=subprocess.PIPE, text=True, check=False,
            timeout=max(1.0, WORKERS_LIMIT_S - (time.perf_counter() - start)))
        if done.returncode != 0:
            raise SystemExit(f"perfbench: {workload.name} worker failed "
                             f"with status {done.returncode}")
        processes.append([Rep(**json.loads(line)) for line in done.stdout.splitlines()])
    return processes


def typical(workload, processes: list, field: str) -> list:
    """Time of each part (or op) over all repetitions of the run: its
    minimum where the workload's parts are short (``workload.fastest``),
    its median otherwise.

    Every repetition does the same work in the same parts (a sweep cell, a
    criterion, a closed-form call).  Other tenants of the machine slow it
    by up to 2x, in spells of a second to minutes.  A call of 0.3 ms runs
    outside a spell in some of its repetitions, so its minimum drops the
    spells.  A part of 30 ms to 7 s averages them in, and the minimum of a
    few such samples is the one that caught the shortest spells, which
    varies more from run to run than their median does.
    """
    pick = min if workload.fastest else statistics.median
    reps = [r for group in processes for r in group]
    return [pick(times) for times in zip(*(getattr(r, field) for r in reps))]


def end_to_end(workload, processes: list, setup: list) -> dict:
    return {
        "setup_s": statistics.median(s["wall_s"] for s in setup),
        "wall_s": sum(typical(workload, processes, "part_s")),
        # A process's high-water mark through its first repetition: later
        # ones only add the rarer peaks of the shard threads' allocations.
        "peak_rss_mb": statistics.median(reps[0].extra["peak_rss_mb"]
                                         for reps in processes),
    }


def workload_metrics(workload, processes: list) -> dict:
    """The workload-specific end-to-end figures, for the detail line.

    They are derived from the same repetitions as the result line; they stay
    out of it because each applies to only some workloads.
    """
    reps = [r for group in processes for r in group]
    attempted = sum(r.attempted for r in reps)
    name = workload.name
    wall = sum(typical(workload, processes, "part_s"))
    ops = typical(workload, processes, "op_s")
    out = {"error_rate": [sum(r.failed for r in reps) / attempted, "ratio"],
           "reps": [len(reps), "count"]}
    if name in ("figures", "validate"):
        out["mc_trials_per_s"] = [reps[0].mc_trials / wall, "trials/s"]
    if name == "validate":
        out["criterion_p50_ms"] = [1e3 * quantile(ops, 50), "ms"]
        out["criterion_p90_ms"] = [1e3 * quantile(ops, 90), "ms"]
    if name == "figures":
        out["cell_p50_ms"] = [1e3 * quantile(ops, 50), "ms"]
        out["cell_p90_ms"] = [1e3 * quantile(ops, 90), "ms"]
    if name == "analytic-grid":
        out["points_per_s"] = [len(ops) / wall, "1/s"]
        out["point_p50_us"] = [1e6 * quantile(ops, 50), "us"]
        out["point_p99_us"] = [1e6 * quantile(ops, 99), "us"]
    return out


# -- traced run ------------------------------------------------------------

def install_tracer(tracer) -> None:
    """Wrap every layer function the per-layer metrics are read from."""
    from ehrelay import model, montecarlo, numerics, outage, sweeps, validation

    def trials(args, kwargs, est):
        return {"trials": est.trials}

    tracer.install(numerics, "sample_exponential", "numerics.sample_exponential",
                   count=lambda a, k, r: {"draws": r.size})
    tracer.install(numerics, "bessel_k1", "numerics.bessel_k1", hot=True,
                   count=lambda a, k, r: {"underflows": int(r == 0.0)})
    tracer.install(numerics, "integrate_gc", "numerics.integrate_gc", hot=True,
                   count=lambda a, k, r: {"nodes": a[0].order})
    tracer.install(model, "derive_constants", "model.derive_constants")
    for name in ("p_case1", "p_case2", "p_case3", "p_case4",
                 "outage_dynamic_ps", "outage_improved", "energy_outage"):
        tracer.install(outage, name, f"outage.{name}")
    tracer.install(outage, "case4_geometry", "outage.case4_geometry",
                   count=lambda a, k, r: {f"scenario.{r.scenario.name}": 1})
    tracer.install(outage, "cdf_t2", "outage.cdf_t2", hot=True)
    tracer.install(outage, "cdf_t3", "outage.cdf_t3", hot=True)
    tracer.install(montecarlo, "mc_outage", "montecarlo.mc_outage",
                   label=lambda a, k: a[1] if len(a) > 1 else k["scheme_id"],
                   count=trials)
    tracer.install(montecarlo, "mc_energy_outage", "montecarlo.mc_energy_outage",
                   count=trials)
    # One block of trials; its self time minus sampling is the scheme's
    # control kernel plus SNR and outage reduction.
    tracer.install(montecarlo, "_outage_block", "montecarlo.block",
                   label=lambda a, k: a[2])
    tracer.install(sweeps, "run_sweep", "sweeps.run_sweep",
                   count=lambda a, k, r: {"cells": len(r.rows)})
    tracer.install(sweeps.SweepResult, "to_csv", "sweeps.to_csv")
    tracer.install_sequence(validation, "CRITERIA",
                            lambda i: f"validation.criterion_{i + 1:02d}")


def layer_metrics(tracer, setup: list, extra: dict) -> dict:
    counters = tracer.counters()
    by_parent = tracer.by_parent()

    def get(key: str, field: str = "calls") -> float:
        return counters[key][field] if key in counters else 0

    def busy(key: str) -> float:
        return get(key, "busy_ns") * 1e-9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    se = "numerics.sample_exponential"
    m = {
        f"{se}.calls": get(se),
        f"{se}.busy_s": busy(se),
        f"{se}.ns_per_draw": ratio(get(se, "busy_ns"), get(se, "draws")),
        "numerics.bessel_k1.calls": get("numerics.bessel_k1"),
        "numerics.bessel_k1.underflows": get("numerics.bessel_k1", "underflows"),
        "numerics.integrate_gc.calls": get("numerics.integrate_gc"),
        "numerics.integrate_gc.nodes": get("numerics.integrate_gc", "nodes"),
    }
    trials = get("montecarlo.mc_energy_outage", "trials")
    for scheme in SCHEMES:
        key = f"montecarlo.mc_outage.{scheme}"
        block = f"montecarlo.block.{scheme}"
        trials += get(key, "trials")
        sampling_ns = by_parent[(se, block)][1] if (se, block) in by_parent else 0
        m[f"{key}.calls"] = get(key)
        m[f"{key}.busy_s"] = busy(key)
        m[f"{key}.trials_per_s"] = ratio(get(key, "trials"), busy(key))
        # Block and sampling times are summed over shard threads; their
        # ratio is the share of the caller's wall time spent sampling.
        m[f"montecarlo.kernel.{scheme}.busy_s"] = busy(key) * (
            1.0 - ratio(sampling_ns, get(block, "busy_ns")))
    improved_cdf = by_parent.get(("outage.cdf_t3", "outage.outage_improved"), [0])[0]
    m.update({
        "montecarlo.mc_energy_outage.busy_s": busy("montecarlo.mc_energy_outage"),
        "montecarlo.draws_per_trial_evaluated": ratio(get(se, "draws"), trials),
        "montecarlo.parallel_efficiency": extra.get("parallel_efficiency", 0.0),
        "outage.cdf_t2.calls": get("outage.cdf_t2"),
        "outage.cdf_t2.busy_s": busy("outage.cdf_t2"),
        "outage.cdf_t3.calls": get("outage.cdf_t3"),
        "outage.cdf_t3.busy_s": busy("outage.cdf_t3"),
        "outage.cdf_t3_calls_per_improved": ratio(
            improved_cdf, get("outage.outage_improved")),
    })
    for k in range(1, 5):
        m[f"outage.p_case{k}.busy_s"] = busy(f"outage.p_case{k}")
    m["outage.case4_geometry.busy_s"] = busy("outage.case4_geometry")
    for s in SCENARIOS:
        m[f"outage.case4_scenario.{s}"] = get("outage.case4_geometry", f"scenario.{s}")
    for key in ("outage.outage_dynamic_ps", "outage.outage_improved",
                "model.derive_constants"):
        m[f"{key}.calls"] = get(key)
        m[f"{key}.busy_s"] = busy(key)
    m.update({
        "sweeps.cells": get("sweeps.run_sweep", "cells"),
        "sweeps.run_sweep.self_s": tracer.self_ns("sweeps.run_sweep") * 1e-9,
        "sweeps.to_csv.busy_s": busy("sweeps.to_csv"),
        "sweeps.csv_identical": extra.get("csv_identical", 0),
    })
    for i in range(1, CRITERIA + 1):
        m[f"validation.criterion_{i:02d}.busy_s"] = busy(f"validation.criterion_{i:02d}")
    m.update({
        "validation.criteria_passed": extra.get("criteria_passed", 0),
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.first_call_s": statistics.median(s["first_call_s"] for s in setup),
        "trace.overhead_s": extra["overhead_s"],
    })
    return m


def traced_run(workload, state: dict, seed: int):
    """One untraced and one traced repetition; figures adds a 1-shard one."""
    from tracing import Tracer

    base = workload.rep(state)
    workload.check(state, base)
    tracer = Tracer()
    try:
        install_tracer(tracer)
        with tracer.span(f"workload.{workload.name}"):
            traced = workload.rep(state, tracer=tracer)
    finally:
        tracer.restore()
    workload.check(state, traced)
    reps = [base, traced]
    extra = dict(traced.extra)
    extra["overhead_s"] = traced.wall_s - base.wall_s
    if workload.name == "figures":
        serial = workload.rep(state, shards=1)
        workload.check(state, serial)
        reps.append(serial)
        extra["parallel_efficiency"] = serial.wall_s / (FIG_SHARDS * base.wall_s)
    spans_file = write_spans(tracer, workload.name, seed)
    return tracer, reps, extra, spans_file


def write_spans(tracer, name: str, seed: int) -> str:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, key, start, end, thread in tracer.spans():
            handle.write(json.dumps({"id": span_id, "parent": parent, "name": key,
                                     "start_ns": start, "end_ns": end,
                                     "thread": thread}) + "\n")
    return str(path.relative_to(BENCH_DIR.parent))


# -- entry point -------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def summary(name: str, metrics: dict, extra: dict, reps: list) -> str:
    lines = [f"perfbench {name}: {len(reps)} repetitions"]
    for key, item in metrics.items():
        lines.append(f"  {key:48s} {item['value']:>16.6g} {item['unit']}")
    for key, (value, unit) in extra.items():
        lines.append(f"  {key:48s} {value:>16.6g} {unit}")
    for rep in reps:
        lines += [f"  FAILED {note}" for note in rep.notes[:5]]
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    load_ehrelay()
    setup = measure_setup()
    env = environment()

    detail = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "setup": setup}
    if args.trace:
        state = workload.prepare(args.seed)
        workload.warm_up(state)
        tracer, reps, extra, spans_file = traced_run(workload, state, args.seed)
        values = layer_metrics(tracer, setup, extra)
        units = dict(per_layer_names())
        workload_extra = {}
        detail["spans"] = spans_file
    else:
        processes = timed_processes(workload, args.seed, args.seconds)
        reps = [r for group in processes for r in group]
        detail["reps_per_process"] = [len(group) for group in processes]
        detail["reps_planned"] = workload.processes * workload.reps_per_process
        values = end_to_end(workload, processes, setup)
        units = dict(END_TO_END)
        workload_extra = workload_metrics(workload, processes)
        detail["workload_metrics"] = workload_extra
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    detail["reps"] = [{"wall_s": r.wall_s, "ops": len(r.op_s),
                       "attempted": r.attempted, "failed": r.failed,
                       "mc_trials": r.mc_trials, "mc_shards": r.mc_shards,
                       "notes": r.notes[:5],
                       **r.extra} for r in reps]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(json.dumps({"detail": detail}))
    print(summary(workload.name, metrics, workload_extra, reps), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
