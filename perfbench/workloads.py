"""The three benchmark workloads: inputs, one timed repetition, checks.

Each workload drives ehrelay's public Python API in this process and looks
every entry point up through its module at call time, so the instruments
in ``tracing`` see the calls.

* ``figures``: ``sweeps.fig(n)`` for n = 3..9 at 1e6 trials per cell and 2
  shards; 161 cells, about 95% of the time in Monte Carlo.
* ``validate``: ``validation.run_all()``, the 12-criterion release gate;
  few 10M-trial cells, root finding, and about 6M scalar CDF calls.
* ``analytic-grid``: ``outage_dynamic_ps`` and ``outage_improved`` over
  stratified random operating points; no Monte Carlo at all.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

from tracing import Probes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

# A run's --seed selects one of these input sets; references are recorded
# for every set, so each run is checked exactly against this commit.
REFERENCE_SETS = 8

FIGURES = tuple(range(3, 10))
FIG_TRIALS = 1_000_000
FIG_SHARDS = 2            # the machine has 2 cores
FIG_SEED_BASE = 2024      # the figure script's default seed is set 0

GRID_POINTS = 1000
GRID_SCHEMES = ("dynamic_ps", "improved")
GRID_ORDERS = (5, 10, 20, 40)
GRID_THETA = (0.15, 0.85)
# SystemParams field, low, high.  Covers outage from 1 down below 1e-10.
GRID_BOX = (
    ("tx_power_dbm", 0.0, 70.0),
    ("dist_a", 1.0, 20.0),
    ("dist_b", 1.0, 20.0),
    ("rate_bps_hz", 0.5, 5.0),
    ("time_split", 0.05, 0.45),
    ("eh_efficiency", 0.2, 1.0),
    ("gain_a_dbi", 0.0, 14.0),
    ("gain_b_dbi", 0.0, 14.0),
    ("gain_relay_dbi", 0.0, 14.0),
    ("fading_mean_a", 0.5, 2.0),
    ("fading_mean_b", 0.5, 2.0),
)

# Timed repetitions per run: so many fresh processes of so many repetitions
# each.  Fixed, so that every commit is measured from the same number of
# samples; --seconds only caps them.
FIG_PROCESSES, FIG_REPS_PER_PROCESS = 5, 1
VALIDATE_PROCESSES, VALIDATE_REPS_PER_PROCESS = 1, 5
GRID_PROCESSES, GRID_REPS_PER_PROCESS = 1, 24

# Closed-form values must match the reference to 1e-9 relative; below 1e-4
# the absolute floor takes over, which is still far tighter than any
# quadrature or modelling error and only absorbs rounding in 1 - success.
REL_TOL = 1e-9
ABS_FLOOR = 1e-13
# Monte Carlo estimates must match within this many pooled standard errors,
# so a change of random streams is still judged.
MC_SIGMAS = 5.0


def load_ehrelay():
    """Import ehrelay from this checkout's src/, never from elsewhere."""
    if not (SRC / "ehrelay" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ehrelay sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ehrelay
    if Path(ehrelay.__file__).resolve().parent != (SRC / "ehrelay").resolve():
        raise SystemExit(f"perfbench: imported ehrelay from {ehrelay.__file__}, "
                         f"not from {SRC}")
    return ehrelay


def reference_set(seed: int) -> int:
    return seed % REFERENCE_SETS


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def close(value, ref) -> bool:
    """Closed-form agreement: both absent, or within REL_TOL / ABS_FLOOR."""
    if value is None or ref is None:
        return value is None and ref is None
    return abs(value - ref) <= max(REL_TOL * abs(ref), ABS_FLOOR)


def mc_agrees(p: float, n: int, p_ref: float, n_ref: int) -> bool:
    """Two binomial estimates agree within MC_SIGMAS pooled standard errors."""
    pooled = (p * n + p_ref * n_ref) / (n + n_ref)
    sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / n_ref))
    return abs(p - p_ref) <= MC_SIGMAS * sigma


def quantile(values, pct: int) -> float:
    """pct-th percentile as statistics.quantiles(n=100) places it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


@dataclass
class Rep:
    """One timed repetition of a workload and what its checks found."""

    wall_s: float
    op_s: list                 # latency of every op, seconds
    part_s: list = field(default_factory=list)  # consecutive parts of wall_s
    mc_trials: int = 0
    output: object = None
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    mc_shards: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)   # workload-specific findings


def _gaps(marks_ns: list) -> list:
    """Durations in seconds between consecutive perf_counter_ns marks."""
    return [(b - a) * 1e-9 for a, b in zip(marks_ns, marks_ns[1:])]


def _span(tracer, key: str):
    return tracer.span(key) if tracer is not None else nullcontext()


class Figures:
    name = "figures"
    processes = FIG_PROCESSES
    reps_per_process = FIG_REPS_PER_PROCESS
    fastest = False
    why = ("sweeps.fig(3..9): 161 Monte Carlo cells at 1e6 trials on 2 shards, "
           "all sharing one (seed, trials)")

    def prepare(self, seed: int) -> dict:
        ref = load_reference("figures")
        key = str(FIG_SEED_BASE + reference_set(seed))
        return {"mc_seed": int(key), "reference": ref["sets"][key],
                "ref_trials": ref["trials"]}

    def warm_up(self, state: dict) -> None:
        from ehrelay import montecarlo, sweeps
        sweeps.fig(5, mc=montecarlo.McConfig(FIG_TRIALS, state["mc_seed"], FIG_SHARDS))
        sweeps.fig(9, mc=montecarlo.McConfig(1 << 14, state["mc_seed"], FIG_SHARDS))

    def rep(self, state: dict, tracer=None, trials: int = FIG_TRIALS,
            shards: int = FIG_SHARDS) -> Rep:
        from ehrelay import montecarlo, sweeps
        cfg = montecarlo.McConfig(trials=trials, seed=state["mc_seed"],
                                  shards=shards)
        probes = Probes()
        tables = {}
        op_s = []
        part_s = []
        with probes.installed():
            for n in FIGURES:
                first = len(probes.row_times)
                start = time.perf_counter_ns()
                with _span(tracer, f"figure.{n}"):
                    result = sweeps.fig(n, mc=cfg)
                    tables[n] = (result, result.to_csv())
                # A cell ends when its row is built; the figure's last part
                # is sorting and CSV output.
                cells = _gaps([start] + probes.row_times[first:])
                op_s += cells
                part_s += cells + [_gaps([probes.row_times[-1], time.perf_counter_ns()])[0]]
        return Rep(wall_s=sum(part_s), op_s=op_s, part_s=part_s,
                   mc_trials=probes.mc_trials, output=tables,
                   mc_shards=probes.mc_shards, extra={"trials": trials})

    def check(self, state: dict, rep: Rep) -> None:
        ref = state["reference"]
        trials = rep.extra["trials"]
        identical = 0
        for n, (result, csv_text) in rep.output.items():
            identical += sha256(csv_text) == ref["csv_sha256"][str(n)]
            for row, expect in zip_longest(result.rows, ref["cells"][str(n)]):
                rep.attempted += 1
                problem = cell_problem(row, expect, trials, state["ref_trials"])
                if problem:
                    rep.failed += 1
                    rep.notes.append(f"fig {n}: {problem}")
        rep.extra["csv_identical"] = identical


def cell_problem(row, expect, trials: int, ref_trials: int) -> str | None:
    """Why a sweep row disagrees with its reference cell, or None."""
    if row is None or expect is None:
        return f"row count differs from the reference at {row or expect}"
    param, scheme, analytic, mc = expect
    if row.param_value != param or row.scheme_id != scheme:
        return f"row ({row.param_value}, {row.scheme_id}) where ({param}, {scheme}) was expected"
    if not close(row.analytic_outage, analytic):
        return f"({param}, {scheme}) analytic {row.analytic_outage!r} != {analytic!r}"
    if not mc_agrees(row.mc_outage, trials, mc, ref_trials):
        return f"({param}, {scheme}) mc {row.mc_outage!r} vs {mc!r} beyond {MC_SIGMAS:g} sigma"
    return None


class Validate:
    name = "validate"
    processes = VALIDATE_PROCESSES
    reps_per_process = VALIDATE_REPS_PER_PROCESS
    fastest = False
    why = ("validation.run_all(): 10M-trial cells, energy outage, root finding "
           "and ~6M scalar CDF calls; the gate ignores --seed")

    def prepare(self, seed: int) -> dict:
        return {"reference": load_reference("validate")}

    def warm_up(self, state: dict) -> None:
        from ehrelay import montecarlo, outage, validation
        from ehrelay.model import SystemParams, derive_constants
        params = SystemParams()
        for scheme, args in (("static_equal", {"rho": 0.5}),
                             ("dynamic_ps", {"theta": 0.5}), ("improved", {})):
            montecarlo.mc_outage(params, scheme, args, montecarlo.McConfig(
                4 * montecarlo.BLOCK_TRIALS, seed=1, shards=4))
        consts = derive_constants(params, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for t in np.geomspace(1e-6, 1e6, 2000):
                outage.cdf_t2(consts, float(t))
                outage.cdf_t3(consts, float(t))
        for fn in validation.CRITERIA[4:7] + validation.CRITERIA[8:9]:
            fn()

    def rep(self, state: dict, tracer=None) -> Rep:
        from ehrelay import validation
        probes = Probes()
        with probes.installed():
            start = time.perf_counter_ns()
            results = validation.run_all()
            report = validation.report_csv(results)
            wall_s = (time.perf_counter_ns() - start) * 1e-9
        op_s = [t for _, t in sorted(probes.criterion_times)]
        return Rep(wall_s=wall_s, op_s=op_s, part_s=op_s + [wall_s - sum(op_s)],
                   mc_trials=probes.mc_trials, output=(results, report),
                   mc_shards=probes.mc_shards)

    def check(self, state: dict, rep: Rep) -> None:
        results, report = rep.output
        for result in results:
            rep.attempted += 1
            if not result.passed:
                rep.failed += 1
                rep.notes.append(f"criterion {result.index} {result.name}: FAIL "
                                 f"({result.detail})")
        missing = len(state["reference"]["verdicts"]) - len(results)
        if missing > 0:
            rep.attempted += missing
            rep.failed += missing
            rep.notes.append(f"{missing} criteria missing from run_all()")
        rep.extra["criteria_passed"] = sum(r.passed for r in results)
        rep.extra["report_identical"] = (
            sha256(report) == state["reference"]["report_sha256"])


def grid_points(seed: int, count: int = GRID_POINTS) -> list:
    """Latin-hypercube operating points over the box, from the seed alone.

    Stratifying every axis and giving each quadrature order the same share
    keeps the cost of a point set nearly equal across seeds.
    """
    from ehrelay.model import SystemParams
    rng = np.random.default_rng([0x6772_6964, reference_set(seed)])

    def stratified(lo: float, hi: float):
        return lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count

    columns = {name: stratified(lo, hi) for name, lo, hi in GRID_BOX}
    theta = stratified(*GRID_THETA)
    orders = np.array(GRID_ORDERS)[rng.permutation(count) % len(GRID_ORDERS)]
    return [(SystemParams(**{name: float(col[i]) for name, col in columns.items()},
                          quad_order=int(orders[i])), float(theta[i]))
            for i in range(count)]


def grid_values(points):
    """Evaluate both closed forms at every point, timing each call.

    Returns (values, per-call seconds, warnings seen, first error).  A value
    is None where the call raised.
    """
    from ehrelay import outage
    values = []
    call_ns = []
    first_error = None
    clock = time.perf_counter_ns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for params, theta in points:
            for scheme in GRID_SCHEMES:
                start = clock()
                try:
                    if scheme == "dynamic_ps":
                        value = outage.outage_dynamic_ps(params, theta)
                    else:
                        value = outage.outage_improved(params)
                except Exception as exc:  # a failed op is counted, not fatal
                    value = None
                    first_error = first_error or f"{scheme}: {exc!r}"
                call_ns.append(clock() - start)
                values.append(value)
    return values, [t * 1e-9 for t in call_ns], len(caught), first_error


class AnalyticGrid:
    name = "analytic-grid"
    processes = GRID_PROCESSES
    reps_per_process = GRID_REPS_PER_PROCESS
    fastest = True
    why = ("outage_dynamic_ps and outage_improved at 1000 stratified points, "
           "0-70 dBm, M in {5,10,20,40}; bypasses Monte Carlo entirely")

    def prepare(self, seed: int) -> dict:
        ref = load_reference("analytic_grid")
        return {"points": grid_points(seed, ref["points"]),
                "reference": ref["sets"][str(reference_set(seed))]}

    def warm_up(self, state: dict) -> None:
        grid_values(state["points"][:100])

    def rep(self, state: dict, tracer=None) -> Rep:
        values, op_s, warned, error = grid_values(state["points"])
        # Every call is a part: a call takes about 0.3 ms, short enough that
        # its fastest repetition falls outside the machine's slow spells.
        rep = Rep(wall_s=sum(op_s), op_s=op_s, part_s=op_s, output=values,
                  extra={"warnings": warned})
        if error:
            rep.notes.append(error)
        return rep

    def check(self, state: dict, rep: Rep) -> None:
        expected = [v for pair in zip(*(state["reference"][s] for s in GRID_SCHEMES))
                    for v in pair]
        for i, (value, ref) in enumerate(zip_longest(rep.output, expected)):
            rep.attempted += 1
            if not grid_value_ok(value, ref):
                rep.failed += 1
                if len(rep.notes) < 5:
                    rep.notes.append(f"point {i // 2} {GRID_SCHEMES[i % 2]}: "
                                     f"{value!r} vs reference {ref!r}")


def grid_value_ok(value, ref) -> bool:
    return (value is not None and ref is not None and math.isfinite(value)
            and 0.0 <= value <= 1.0 and close(value, ref))


WORKLOADS = {w.name: w for w in (Figures(), Validate(), AnalyticGrid())}
