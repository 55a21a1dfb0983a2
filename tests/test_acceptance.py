"""Acceptance gate: every release criterion runs here, one test per criterion.

Each test prints a single PASS/FAIL line with the measured detail so the
suite output doubles as the acceptance report.  The slow statistical
criteria reuse the exact implementations behind the `validate` CLI command,
so the CLI and this gate can never drift apart.
"""

import dataclasses
import os
import re
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from ehrelay import montecarlo, numerics, outage, validation
from ehrelay.model import SystemParams, derive_constants, link_constants
from ehrelay.outage import cdf_t3, outage_improved
from ehrelay.validation import (
    _KS_BLOCK,
    _KS_CHUNK,
    CRITERIA,
    _array_cdfs,
    _ks_statistic,
    _sampled_ks,
    criterion_capacity_shapes,
    criterion_case4_oracle,
    criterion_determinism,
    criterion_diversity,
    criterion_dynamic_agreement,
    criterion_energy_outage,
    criterion_improved_agreement,
    criterion_quadrature,
    criterion_rho_optimality,
    criterion_scheme_ordering,
    criterion_theta_optimality,
    criterion_variable_change_cdfs,
)


def _check(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.index}: {result.name}: {result.detail}")
    # A numpy bool here would not serialize to JSON in a run report.
    assert type(result.passed) is bool
    assert result.passed, f"criterion {result.index} ({result.name}): {result.detail}"


def test_criteria_inventory():
    assert len(CRITERIA) == 12
    results = [fn.__name__ for fn in CRITERIA]
    assert len(set(results)) == 12


def test_criterion_01_quadrature_convergence():
    _check(criterion_quadrature)


def test_criterion_02_dynamic_closed_form_matches_simulation():
    _check(criterion_dynamic_agreement)


def test_criterion_03_improved_closed_form_matches_simulation():
    _check(criterion_improved_agreement)


def test_criterion_04_scheme_ordering():
    _check(criterion_scheme_ordering)


def test_criterion_05_broadcast_weight_optimality():
    _check(criterion_theta_optimality)


def test_criterion_06_static_split_optimality():
    _check(criterion_rho_optimality)


def test_criterion_07_diversity_slopes():
    _check(criterion_diversity)


def test_criterion_08_change_of_variable_cdfs():
    tracemalloc.start()
    try:
        _check(criterion_variable_change_cdfs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One 1M-sample array (8 MiB) plus chunk-sized temporaries; holding
    # whole-sample temporaries peaked at 77 MiB.
    assert peak < 16 * 2 ** 20


def _one_pass_ks(sorted_samples, cdf) -> float:
    n = len(sorted_samples)
    values = cdf(sorted_samples)
    ranks = np.arange(1, n + 1, dtype=float) / n
    gaps = np.maximum(np.abs(values - ranks), np.abs(values - ranks + 1.0 / n))
    return float(gaps.max())


@pytest.mark.parametrize("n", [1, _KS_CHUNK - 1, _KS_CHUNK + 1, 3 * _KS_CHUNK + 5,
                               _KS_BLOCK - 1, _KS_BLOCK, _KS_BLOCK + 1, 7 * _KS_BLOCK])
def test_streamed_criterion_08_equals_the_one_pass_statistics(n):
    params = SystemParams(fading_mean_a=0.7, fading_mean_b=1.3)
    consts = link_constants(params)
    rng = np.random.default_rng(47)
    pair_sum = np.sort(rng.exponential(params.fading_mean_a, n) / consts.z_a
                       + rng.exponential(params.fading_mean_b, n) / consts.z_b)
    inv_prod = np.sort(1.0 / (rng.exponential(params.fading_mean_a, n)
                              * rng.exponential(params.fading_mean_b, n)))
    gate_t2, gate_t3 = _array_cdfs(consts)
    want_t2 = _one_pass_ks(pair_sum, gate_t2)
    want_t3 = _one_pass_ks(inv_prod, gate_t3)

    streamed = np.random.default_rng(47)
    streamed_t2 = _sampled_ks(
        streamed, params, n,
        lambda g_a, g_b: np.add(g_a / consts.z_a, g_b / consts.z_b, out=g_a), gate_t2)
    streamed_t3 = _sampled_ks(streamed, params, n,
                              lambda g_a, g_b: np.divide(1.0, g_a * g_b, out=g_a), gate_t3)
    for got, want in ((_ks_statistic(pair_sum, gate_t2), want_t2),
                      (_ks_statistic(inv_prod, gate_t3), want_t3),
                      (streamed_t2, want_t2), (streamed_t3, want_t3)):
        assert got[0].hex() == want.hex()
        assert got[1] is True


@given(st.lists(st.integers(0, 40), min_size=1, max_size=5 * _KS_BLOCK),
       st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.booleans())
def test_block_bounds_give_the_one_pass_statistic(ticks, rate_a, rate_b, equal):
    """Sorted samples with ties, not drawn from cdf_t2, so that the largest
    gap can fall anywhere."""
    consts = dataclasses.replace(link_constants(SystemParams()), a_rate_a=rate_a,
                                 a_rate_b=rate_a if equal else rate_b)
    samples = np.sort(np.array(ticks, dtype=float)) / 10.0
    gate_t2, _ = _array_cdfs(consts)
    ks, along_samples = _ks_statistic(samples, gate_t2)
    assert ks.hex() == _one_pass_ks(samples, gate_t2).hex()
    assert along_samples is True


def test_criterion_08_evaluates_its_cdfs_at_few_samples(monkeypatch):
    true_ks = validation._ks_statistic
    samples = evaluated = 0

    def counting_ks(sorted_samples, cdf):
        nonlocal samples
        samples += len(sorted_samples)

        def counted(t):
            nonlocal evaluated
            evaluated += t.size
            return cdf(t)
        return true_ks(sorted_samples, counted)

    monkeypatch.setattr(validation, "_ks_statistic", counting_ks)
    assert criterion_variable_change_cdfs().passed
    assert samples == 6_000_000
    assert evaluated <= 0.05 * samples


def test_criterion_08_fails_a_cdf_that_falls_between_grid_points(monkeypatch):
    """A dip in cdf_t3 between two adjacent points of the 10,000-point grid,
    wider than a few KS blocks, keeps the KS distance under its bound but
    falls across block edges, so the monotone check fails criterion 8."""
    true_cdfs = validation._array_cdfs
    consts = link_constants(SystemParams())
    grid = np.geomspace(1e-8, 1e12, 10_000)
    j = int(np.argmax(np.diff(true_cdfs(consts)[1](grid))))
    lo, hi = np.interp((0.25, 0.75), (0.0, 1.0), grid[j:j + 2])

    def dipped_cdfs(consts):
        gate_t2, gate_t3 = true_cdfs(consts)
        return gate_t2, lambda t: gate_t3(t) - 5e-4 * ((t > lo) & (t < hi))

    assert np.all(np.diff(dipped_cdfs(consts)[1](grid)) >= -1e-12)
    monkeypatch.setattr(validation, "_array_cdfs", dipped_cdfs)
    result = criterion_variable_change_cdfs()
    assert not result.passed
    assert "monotone=False; limits=True" in result.detail
    assert float(re.search(r"max KS=(\S+) ", result.detail).group(1)) <= 0.002


def test_criterion_09_success_region_oracle():
    _check(criterion_case4_oracle)


def test_criterion_10_energy_outage():
    _check(criterion_energy_outage)


def test_criterion_11_capacity_shapes():
    _check(criterion_capacity_shapes)


def test_criterion_12_determinism():
    _check(criterion_determinism)


def _mutate(monkeypatch, name, mutant):
    """Bind mutant in place of outage's name at every ehrelay module that
    binds it, so a criterion meets it wherever it reads the name."""
    true = getattr(outage, name)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "ehrelay"]
    for module in modules:
        if getattr(module, name, None) is true:
            monkeypatch.setattr(module, name, mutant)


def test_criterion_10_fails_an_energy_outage_off_by_one_percent(monkeypatch):
    _mutate(monkeypatch, "energy_outage", lambda p, true=outage.energy_outage: 1.01 * true(p))
    assert not criterion_energy_outage().passed


@pytest.mark.parametrize("name", ["outage_improved", "outage_dynamic_ps"])
def test_criterion_11_fails_a_flat_closed_form(monkeypatch, name):
    """At a constant outage of 0.5 the rate capacity rises with the rate,
    and the distance outage has no interior maximum."""
    _mutate(monkeypatch, name, lambda *args: 0.5)
    result = criterion_capacity_shapes()
    assert not result.passed
    assert "rate capacity interior peak=False" in result.detail
    assert "distance outage interior max=False" in result.detail


def test_gate_detects_an_injected_defect(monkeypatch):
    """Corrupting a low-level kernel must flip the CDF criterion to FAIL.

    The gate's t3 CDF evaluates K1 by the scipy.special.k1 ufunc, and the
    scalar closed-form CDF and the solver by numerics.bessel_k1, the same
    cephes routine; the defect goes into both, so it reaches every path.
    """
    consts = derive_constants(SystemParams(), 0.5)
    clean, clean_outage = cdf_t3(consts, 1.0), outage_improved(SystemParams())
    for module, name in ((scipy.special, "k1"), (numerics, "bessel_k1")):
        monkeypatch.setattr(module, name, lambda x, k1=getattr(module, name): 1.05 * k1(x))
    assert cdf_t3(consts, 1.0) == pytest.approx(1.05 * clean, rel=1e-12)
    # outage_improved's solver reads numerics.bessel_k1 per call, not at import.
    assert outage_improved(SystemParams()) != clean_outage
    result = criterion_variable_change_cdfs()
    assert not result.passed


def test_gate_checks_the_t3_formula_the_closed_form_runs(monkeypatch):
    """cdf_t3 and the gate's t3 CDF evaluate one formula, so a 10 % error
    in it, which moves outage_improved, fails criterion 8."""
    consts = link_constants(SystemParams())
    clean_cdf, clean_outage = cdf_t3(consts, 1.0), outage_improved(SystemParams())
    true_formula = outage._cdf_t3
    monkeypatch.setattr(outage, "_cdf_t3", lambda consts, *ops: (
        lambda t, cdf=true_formula(consts, *ops): cdf(t / 1.1)))
    _, gate_t3 = _array_cdfs(consts)
    assert cdf_t3(consts, 1.1) == gate_t3(np.array([1.1]))[0] == clean_cdf
    assert outage_improved(SystemParams()) != clean_outage
    result = criterion_variable_change_cdfs()
    assert not result.passed
    assert float(re.search(r"max KS=(\S+) ", result.detail).group(1)) > 0.002


# run_all sends criteria 1-11 to pool processes only where 2 cores are usable.
needs_two_cores = pytest.mark.skipif(montecarlo._usable_cores() < 2,
                                     reason="a pool needs 2 usable cores")


@pytest.fixture
def fake_criteria(monkeypatch):
    """install(body) patches CRITERIA with 12 passing fakes; fake i calls
    body(i) and gives the pid that ran it as its detail.  A pool process
    runs the CRITERIA it forked with, so the pool is dropped before the
    fakes go in, and again after the test, so that no later run_all gets a
    pool that runs fakes."""
    def install(body):
        def make(index):
            def criterion():
                body(index)
                return validation.CriterionResult(index, f"fake-{index}", True,
                                                  str(os.getpid()))
            return criterion
        monkeypatch.setattr(validation, "CRITERIA", tuple(make(i) for i in range(1, 13)))

    montecarlo._drop_pool()
    yield install
    montecarlo._drop_pool()


@needs_two_cores
def test_run_all_runs_criteria_1_to_11_on_the_pool(fake_criteria, capfd):
    # Fake 3 sleeps 0.2 s in the pool process that runs it.
    fake_criteria(lambda index: time.sleep(0.2) if index == 3 else None)
    results = validation.run_all()
    assert [r.index for r in results] == list(range(1, 13))
    pids = [int(r.detail) for r in results]
    assert os.getpid() not in pids[:11] and len(set(pids[:11])) >= 2
    assert pids[11] == os.getpid()
    assert all(isinstance(r.seconds, float) and r.seconds >= 0.0 for r in results)
    assert results[2].seconds >= 0.2
    # capsys would not see what the pool processes write.
    assert capfd.readouterr().err == ""


def test_run_all_raises_the_error_of_a_pool_criterion(fake_criteria, capfd):
    def body(index):
        if index == 9:
            raise ZeroDivisionError("fake criterion 9")

    fake_criteria(body)
    with pytest.raises(ZeroDivisionError, match="fake criterion 9"):
        validation.run_all()
    assert not montecarlo._POOL
    if montecarlo._usable_cores() >= 2:
        # The pool process printed the traceback of the criterion.
        assert "ZeroDivisionError: fake criterion 9" in capfd.readouterr().err


@needs_two_cores
def test_a_ctrl_c_while_pool_criteria_run_ends_the_pool(fake_criteria):
    # Criteria 1-11 sleep 1 s each; a Ctrl-C 0.3 s in ends them all.
    # A timer signal sends it: a thread would be running as run_all forks the pool.
    fake_criteria(lambda index: time.sleep(1.0) if index < 12 else None)
    pids = []

    def ctrl_c(signum, frame):
        pids.extend(process.pid for process, _ in montecarlo._POOL)
        os.kill(os.getpid(), signal.SIGINT)

    alarm = signal.signal(signal.SIGALRM, ctrl_c)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    try:
        with pytest.raises(KeyboardInterrupt):
            validation.run_all()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, alarm)
    assert time.perf_counter() - start < 1.0
    assert len(pids) >= 2 and not montecarlo._POOL
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_run_all_runs_criterion_12_where_it_can_reach_the_pool(fake_criteria, monkeypatch):
    """In a pool process the determinism check's runs on 4 and 8 shards
    would all run in process, and compare nothing."""
    asked, pool = [], montecarlo._pool

    def spy(workers):
        asked.append(workers)
        return pool(workers)

    def determinism():
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        monkeypatch.setattr(montecarlo, "_pool", spy)
        return criterion_determinism()

    fake_criteria(lambda index: None)
    monkeypatch.setattr(validation, "CRITERIA", validation.CRITERIA[:11] + (determinism,))
    results = validation.run_all()
    assert results[11].passed
    assert asked and min(asked) >= 2
