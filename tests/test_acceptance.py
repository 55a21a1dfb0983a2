"""Acceptance gate: every release criterion runs here, one test per criterion.

Each test prints a single PASS/FAIL line with the measured detail so the
suite output doubles as the acceptance report.  The slow statistical
criteria reuse the exact implementations behind the `validate` CLI command,
so the CLI and this gate can never drift apart.
"""

import dataclasses
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from ehrelay import montecarlo, outage, validation
from ehrelay.model import SystemParams, derive_constants, link_constants
from ehrelay.outage import cdf_t2_array, cdf_t3, cdf_t3_array, outage_improved
from ehrelay.validation import (
    _KS_BLOCK,
    _KS_CHUNK,
    CRITERIA,
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
    want_t2 = _one_pass_ks(pair_sum, lambda t: cdf_t2_array(consts, t))
    want_t3 = _one_pass_ks(inv_prod, lambda t: cdf_t3_array(consts, t))

    streamed = np.random.default_rng(47)
    streamed_t2 = _sampled_ks(
        streamed, params, n,
        lambda g_a, g_b: np.add(g_a / consts.z_a, g_b / consts.z_b, out=g_a),
        lambda t: cdf_t2_array(consts, t))
    streamed_t3 = _sampled_ks(streamed, params, n,
                              lambda g_a, g_b: np.divide(1.0, g_a * g_b, out=g_a),
                              lambda t: cdf_t3_array(consts, t))
    for got, want in ((_ks_statistic(pair_sum, lambda t: cdf_t2_array(consts, t)), want_t2),
                      (_ks_statistic(inv_prod, lambda t: cdf_t3_array(consts, t)), want_t3),
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
    ks, along_samples = _ks_statistic(samples, lambda t: cdf_t2_array(consts, t))
    assert ks.hex() == _one_pass_ks(samples, lambda t: cdf_t2_array(consts, t)).hex()
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
    true_cdf = validation.cdf_t3_array
    consts = link_constants(SystemParams())
    grid = np.geomspace(1e-8, 1e12, 10_000)
    j = int(np.argmax(np.diff(true_cdf(consts, grid))))
    lo, hi = np.interp((0.25, 0.75), (0.0, 1.0), grid[j:j + 2])

    def dipped(consts, t):
        return true_cdf(consts, t) - 5e-4 * ((t > lo) & (t < hi))

    assert np.all(np.diff(dipped(consts, grid)) >= -1e-12)
    monkeypatch.setattr(validation, "cdf_t3_array", dipped)
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


def test_gate_detects_an_injected_defect(monkeypatch):
    """Corrupting a low-level kernel must flip the CDF criterion to FAIL.

    scipy.special.k1 is the one K1 both the scalar closed-form CDF and the
    gate's array CDF evaluate, so the defect reaches both paths.
    """
    consts = derive_constants(SystemParams(), 0.5)
    clean = cdf_t3(consts, 1.0)
    true_k1 = scipy.special.k1
    monkeypatch.setattr(scipy.special, "k1", lambda x: 1.05 * true_k1(x))
    assert cdf_t3(consts, 1.0) == pytest.approx(1.05 * clean, rel=1e-12)
    result = criterion_variable_change_cdfs()
    assert not result.passed


def test_gate_checks_the_t3_formula_the_closed_form_runs(monkeypatch):
    """cdf_t3 and the gate's cdf_t3_array evaluate one formula, so a 10 %
    error in it, which moves outage_improved, fails criterion 8."""
    consts = link_constants(SystemParams())
    clean_cdf, clean_outage = cdf_t3(consts, 1.0), outage_improved(SystemParams())
    true_cdf = outage._cdf_t3
    monkeypatch.setattr(outage, "_cdf_t3", lambda consts, t, sqrt, k1:
                        true_cdf(consts, t / 1.1, sqrt, k1))
    assert cdf_t3(consts, 1.1) == cdf_t3_array(consts, np.array([1.1]))[0] == clean_cdf
    assert outage_improved(SystemParams()) != clean_outage
    result = criterion_variable_change_cdfs()
    assert not result.passed
    assert float(re.search(r"max KS=(\S+) ", result.detail).group(1)) > 0.002


def _fake_criteria(monkeypatch, body) -> dict:
    """Patch CRITERIA with 12 passing fakes; fake i calls body(i), and the
    returned dict maps i to the thread that ran it."""
    threads = {}

    def make(index):
        def criterion():
            threads[index] = threading.get_ident()
            body(index)
            return validation.CriterionResult(index, f"fake-{index}", True, "")
        return criterion

    monkeypatch.setattr(validation, "CRITERIA", tuple(make(i) for i in range(1, 13)))
    return threads


def test_run_all_runs_the_in_process_criteria_beside_the_others(monkeypatch, capsys):
    # 1-4, 10 and 12 run estimates on more than 1 shard and wait on the
    # pool; the others run beside them.
    assert set(validation._HELPER_CRITERIA) == {5, 6, 7, 8, 9, 11}
    ended = threading.Event()

    def body(index):
        if index == 1:
            # Criterion 1 ends only after the helper's first, criterion 8.
            assert ended.wait(5.0)
        elif index == 8:
            ended.set()

    threads = _fake_criteria(monkeypatch, body)
    results = validation.run_all(progress=True)
    assert [r.index for r in results] == list(range(1, 13))
    here = threading.get_ident()
    assert {threads[i] for i in range(1, 13)
            if i not in validation._HELPER_CRITERIA} == {here}
    helper = {threads[i] for i in validation._HELPER_CRITERIA}
    assert len(helper) == 1 and here not in helper
    lines = capsys.readouterr().err.splitlines()
    assert sorted(lines) == sorted(f"[{i:2d}] PASS fake-{i} (0.0s)" for i in range(1, 13))
    assert lines.index("[ 8] PASS fake-8 (0.0s)") < lines.index("[ 1] PASS fake-1 (0.0s)")


def test_run_all_raises_the_error_of_a_helper_criterion(monkeypatch):
    def body(index):
        if index == 9:
            raise ZeroDivisionError("fake criterion 9")

    _fake_criteria(monkeypatch, body)
    with pytest.raises(ZeroDivisionError, match="fake criterion 9"):
        validation.run_all()


def test_a_ctrl_c_in_a_calling_thread_criterion_drops_the_helpers_queue(monkeypatch):
    # All six helper criteria would take 1.8 s; only the first one runs.
    started, first = [], threading.Event()

    def body(index):
        if index in validation._HELPER_CRITERIA:
            started.append(index)
            first.set()
            time.sleep(0.3)
        elif index == 1:
            assert first.wait(5.0)
            raise KeyboardInterrupt

    _fake_criteria(monkeypatch, body)
    before = set(threading.enumerate())
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        validation.run_all()
    assert time.perf_counter() - start < 1.0
    assert started == [validation._HELPER_CRITERIA[0]]
    # run_all leaves no thread behind.
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("index", sorted(validation._HELPER_CRITERIA))
def test_helper_criteria_never_reach_the_pool(monkeypatch, index):
    """With 8 usable cores, an estimate on more than 1 shard would ask
    montecarlo._pool for workers."""
    def no_pool(workers):
        raise AssertionError(f"criterion {index} asked the pool for {workers} workers")

    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 8)
    monkeypatch.setattr(montecarlo, "_pool", no_pool)
    assert CRITERIA[index - 1]().passed
