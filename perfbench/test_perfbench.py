"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import record_reference
import run
import workloads
from tracing import Probes, Tracer, ehrelay_modules

workloads.load_ehrelay()

from ehrelay import McConfig, sweeps  # noqa: E402

TINY = 4096


@pytest.fixture(scope="module")
def tiny_figures():
    state = {"mc_seed": workloads.FIG_SEED_BASE, "ref_trials": TINY}
    rep = workloads.Figures().rep(state, trials=TINY)
    state["reference"] = record_reference.figure_set(rep)
    return state, rep


def checked_figures(state, rep):
    fresh = workloads.Rep(wall_s=rep.wall_s, op_s=rep.op_s, output=rep.output,
                          extra={"trials": TINY})
    workloads.Figures().check(state, fresh)
    return fresh


def test_figures_check_accepts_its_own_reference(tiny_figures):
    state, rep = tiny_figures
    result = checked_figures(state, rep)
    assert (result.attempted, result.failed) == (161, 0)
    assert result.extra["csv_identical"] == len(workloads.FIGURES)
    assert len(rep.op_s) == 161


@pytest.mark.parametrize("column", ["analytic", "mc"])
def test_figures_check_catches_a_perturbed_cell(tiny_figures, column):
    state, rep = tiny_figures
    state = copy.deepcopy(state)
    cell = next(c for c in state["reference"]["cells"]["5"] if c[2] is not None)
    if column == "analytic":
        cell[2] *= 1.0 + 1e-6
    else:   # about ten standard errors away
        cell[3] += 10.0 * (cell[3] * (1.0 - cell[3]) / TINY) ** 0.5
    result = checked_figures(state, rep)
    assert result.failed == 1
    assert "fig 5" in result.notes[0]


def test_mc_agreement_handles_zero_hits():
    assert workloads.mc_agrees(0.0, 10**6, 0.0, 10**6)
    assert workloads.mc_agrees(2e-6, 10**6, 0.0, 10**6)
    assert not workloads.mc_agrees(1e-4, 10**6, 0.0, 10**6)


def test_grid_check_catches_a_perturbed_value():
    points = workloads.grid_points(0, 6)
    values, op_s, _, error = workloads.grid_values(points)
    assert error is None and len(op_s) == 12
    reference = {s: values[i::2] for i, s in enumerate(workloads.GRID_SCHEMES)}
    grid = workloads.AnalyticGrid()

    def failures(output):
        rep = workloads.Rep(wall_s=1.0, op_s=op_s, output=output)
        grid.check({"reference": reference}, rep)
        return rep.failed

    assert failures(values) == 0
    for bad in (values[3] * (1.0 + 1e-7), float("nan"), 1.5, None):
        assert failures(values[:3] + [bad] + values[4:]) == 1


def test_grid_points_depend_only_on_the_seed():
    first = workloads.grid_points(3, 20)
    assert first == workloads.grid_points(3, 20)
    assert first == workloads.grid_points(3 + workloads.REFERENCE_SETS, 20)
    assert first != workloads.grid_points(4, 20)
    orders = [p.quad_order for p, _ in workloads.grid_points(3, 40)]
    assert all(orders.count(m) == 10 for m in workloads.GRID_ORDERS)


def snapshot() -> dict:
    """Identity map of every module and class attribute in the package.

    Comparing two snapshots shows whether any instrument was left behind.
    """
    state = {}
    for module in ehrelay_modules():
        for name, value in vars(module).items():
            if name == "__warningregistry__":   # the warnings module's cache
                continue
            state[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    state[(module.__name__, f"{name}.{attr}")] = member
    return state


def unchanged(before: dict) -> bool:
    after = snapshot()
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


def test_probes_and_tracer_restore_every_attribute():
    from ehrelay import montecarlo, outage
    before = snapshot()
    original = montecarlo.sample_exponential
    tracer = Tracer()
    run.install_tracer(tracer)
    try:
        assert montecarlo.sample_exponential is not original
        with Probes().installed():
            assert not unchanged(before)
            traced = sweeps.fig(3, mc=McConfig(TINY, 7, 2)).to_csv()
            traced_grid = workloads.grid_values(workloads.grid_points(1, 4))[0]
    finally:
        tracer.restore()
    assert unchanged(before)
    assert traced == sweeps.fig(3, mc=McConfig(TINY, 7, 2)).to_csv()
    assert traced_grid == workloads.grid_values(workloads.grid_points(1, 4))[0]
    counters = tracer.counters()
    assert counters["outage.outage_improved"]["calls"] == 4
    assert counters["numerics.bessel_k1"]["calls"] > 0
    assert outage.cdf_t3.__name__ == "cdf_t3"


def test_traced_figures_count_two_draws_per_trial(tiny_figures):
    state, _ = tiny_figures
    tracer = Tracer()
    run.install_tracer(tracer)
    try:
        rep = workloads.Figures().rep(state, tracer=tracer, trials=TINY)
    finally:
        tracer.restore()
    setup = [{"import_s": 0.5, "first_call_s": 0.1}]
    metrics = run.layer_metrics(tracer, setup, {"overhead_s": 0.0})
    assert metrics["montecarlo.draws_per_trial_evaluated"] == 2.0
    assert metrics["sweeps.cells"] == 161
    assert metrics["sweeps.run_sweep.self_s"] > 0.0
    for scheme in run.SCHEMES:
        assert 0.0 < metrics[f"montecarlo.kernel.{scheme}.busy_s"] \
            < metrics[f"montecarlo.mc_outage.{scheme}.busy_s"]
    assert set(metrics) == {name for name, _ in run.per_layer_names()}
    assert checked_figures(state, rep).failed == 0


def test_a_missing_target_fails_the_traced_run():
    from ehrelay import outage
    with pytest.raises(KeyError):
        Tracer().install(outage, "no_such_function", "outage.no_such_function")


def test_figures_csv_matches_a_direct_call(tiny_figures):
    state, rep = tiny_figures
    for n, (_, text) in rep.output.items():
        direct = sweeps.fig(n, mc=McConfig(trials=TINY, seed=state["mc_seed"],
                                           shards=workloads.FIG_SHARDS))
        assert text == direct.to_csv()


def test_benchmark_json_matches_the_harness():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_typical_time_is_the_fastest_only_for_short_parts():
    processes = [[workloads.Rep(wall_s=0.0, op_s=[], part_s=[1.0, 5.0], extra={}),
                  workloads.Rep(wall_s=0.0, op_s=[], part_s=[2.0, 4.0], extra={}),
                  workloads.Rep(wall_s=0.0, op_s=[], part_s=[9.0, 3.0], extra={})]]
    assert run.typical(workloads.WORKLOADS["analytic-grid"], processes, "part_s") == [1.0, 3.0]
    assert run.typical(workloads.WORKLOADS["validate"], processes, "part_s") == [2.0, 4.0]
