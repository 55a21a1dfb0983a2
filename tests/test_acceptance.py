"""Acceptance gate: every release criterion runs here, one test per criterion.

Each test prints a single PASS/FAIL line with the measured detail so the
suite output doubles as the acceptance report.  The slow statistical
criteria reuse the exact implementations behind the `validate` CLI command,
so the CLI and this gate can never drift apart.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.special

from ehrelay.model import SystemParams, derive_constants, link_constants
from ehrelay.outage import cdf_t2_array, cdf_t3, cdf_t3_array
from ehrelay.validation import (
    _KS_CHUNK,
    CRITERIA,
    _inverse_product_ks,
    _ks_statistic,
    _pair_sum_ks,
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


@pytest.mark.parametrize("n", [1, _KS_CHUNK - 1, _KS_CHUNK + 1, 3 * _KS_CHUNK + 5])
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

    assert _ks_statistic(pair_sum, lambda t: cdf_t2_array(consts, t)).hex() \
        == want_t2.hex()
    assert _ks_statistic(inv_prod, lambda t: cdf_t3_array(consts, t)).hex() \
        == want_t3.hex()
    streamed = np.random.default_rng(47)
    assert _pair_sum_ks(streamed, params, consts, n).hex() == want_t2.hex()
    assert _inverse_product_ks(streamed, params, consts, n).hex() == want_t3.hex()


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
