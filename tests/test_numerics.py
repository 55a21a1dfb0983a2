"""Quadrature rule, Bessel K1, and exponential sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ehrelay.numerics import QuadratureRule, bessel_k1, integrate_gc, sample_exponential

# Frozen by scripts/compute_reference_values.py (mpmath besselk).
K1_REFERENCE = {
    0.01: 99.97389411829624,
    0.5: 1.656441120003301,
    1.0: 0.6019072301972346,
    10.0: 1.8648773453825585e-05,
    100.0: 4.6798537356369095e-45,
}


def test_rule_matches_closed_form_nodes():
    rule = QuadratureRule.build(4)
    m = np.arange(1, 5)
    assert rule.order == 4
    assert rule.nodes == pytest.approx(np.cos((2 * m - 1) * np.pi / 8.0))
    assert rule.weights == pytest.approx(np.pi / 8.0 * np.sqrt(1 - rule.nodes ** 2))


def test_rule_invariants():
    for order in (1, 2, 7, 33):
        rule = QuadratureRule.build(order)
        assert np.all(rule.nodes > -1.0) and np.all(rule.nodes < 1.0)
        assert np.all(np.diff(rule.nodes) < 0.0)
        assert np.all(rule.weights > 0.0)


def test_rule_order_validation():
    with pytest.raises(ValueError):
        QuadratureRule.build(0)
    with pytest.raises(ValueError):
        QuadratureRule.build(2.5)


def test_degenerate_and_invalid_bounds():
    rule = QuadratureRule.build(5)
    assert integrate_gc(rule, 1.0, 1.0, lambda x: 42.0) == 0.0
    with pytest.raises(ValueError):
        integrate_gc(rule, 1.0, 0.0, lambda x: 1.0)
    with pytest.raises(ValueError):
        integrate_gc(rule, 0.0, math.inf, lambda x: 1.0)


def test_semicircle_is_integrated_exactly():
    # The rule's weight function is the semicircle, so this is exact at
    # any order; the stated tolerance is 1e-3 at order 50.
    rule = QuadratureRule.build(50)
    got = integrate_gc(rule, -1.0, 1.0, lambda x: math.sqrt(max(0.0, 1 - x * x)))
    assert abs(got - math.pi / 2.0) < 1e-3
    assert got == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_exponential_integrand_tolerance():
    rule = QuadratureRule.build(20)
    got = integrate_gc(rule, 0.0, 1.0, lambda x: math.exp(-x))
    assert abs(got - (1.0 - math.exp(-1.0))) < 1e-3


def test_unit_integral_error_decays():
    errors = [abs(integrate_gc(QuadratureRule.build(m), 0.0, 1.0, lambda x: 1.0) - 1.0)
              for m in (2, 8, 32, 128)]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-4


def test_convergence_on_exponential_rational_family():
    """Self-convergence gaps shrink across orders on the target integrand family."""
    cases = [
        (lambda y: math.exp(-(0.3 / y + 2.0 * y)), 0.05, 3.0),
        (lambda x: math.exp(-1.0 / (1.0 + x * x)), 0.0, 1.0),
    ]
    for f, a, b in cases:
        gaps = []
        for m in (5, 10, 20, 40):
            coarse = integrate_gc(QuadratureRule.build(m), a, b, f)
            fine = integrate_gc(QuadratureRule.build(4 * m), a, b, f)
            gaps.append(abs(coarse - fine))
        assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))


@given(
    alpha=st.floats(min_value=-3.0, max_value=3.0),
    beta=st.floats(min_value=-3.0, max_value=3.0),
    a=st.floats(min_value=-2.0, max_value=2.0),
    width=st.floats(min_value=0.0, max_value=3.0),
)
def test_integration_is_linear(alpha, beta, a, width):
    rule = QuadratureRule.build(9)
    f = math.sin
    g = math.cos
    combined = integrate_gc(rule, a, a + width,
                            lambda x: alpha * f(x) + beta * g(x))
    separate = (alpha * integrate_gc(rule, a, a + width, f)
                + beta * integrate_gc(rule, a, a + width, g))
    assert combined == pytest.approx(separate, rel=1e-12, abs=1e-12)


def test_bessel_reference_values():
    for x, want in K1_REFERENCE.items():
        assert bessel_k1(x) == pytest.approx(want, rel=1e-12)


def test_bessel_small_argument_limit():
    assert 1e-6 * bessel_k1(1e-6) == pytest.approx(1.0, abs=1e-5)


@pytest.mark.filterwarnings("error")
def test_bessel_domain_and_underflow():
    with pytest.raises(ValueError):
        bessel_k1(0.0)
    with pytest.raises(ValueError):
        bessel_k1(-1.0)
    # Underflow is the correct 0 of cdf_t3's deep left tail, not an event.
    assert bessel_k1(800.0) == 0.0


def test_bessel_monotone_and_log_convex():
    xs = np.linspace(0.05, 8.0, 60)
    ks = np.array([bessel_k1(float(x)) for x in xs])
    assert np.all(np.diff(ks) < 0.0)
    assert np.all(np.diff(np.log(ks), 2) > -1e-9)


def test_sampler_mean_and_support():
    rng = np.random.default_rng(1234)
    draws = sample_exponential(rng, 2.0, size=1_000_000)
    assert draws.shape == (1_000_000,)
    assert float(draws.min()) >= 0.0
    assert float(draws.mean()) == pytest.approx(2.0, abs=0.01)


def test_sampler_scalar_and_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        sample_exponential(rng, 0.0, 4)
    with pytest.raises(ValueError):
        sample_exponential(rng, -1.0, 4)


@pytest.mark.parametrize("n", [1, 7, 16_384, 262_144])
@pytest.mark.parametrize("mean", [1e-3, 0.25, 1.0, 3.7])
def test_sampler_is_bitwise_log1p_inversion(n, mean):
    draws = sample_exponential(np.random.default_rng(2024), mean, size=n)
    reference = -mean * np.log1p(-np.random.default_rng(2024).random(n))
    assert draws.dtype == reference.dtype
    assert np.array_equal(draws.view(np.uint64), reference.view(np.uint64))


@given(mean=st.floats(min_value=1e-3, max_value=1e3))
def test_sampler_nonnegative_and_finite(mean):
    rng = np.random.default_rng(99)
    draws = sample_exponential(rng, mean, size=64)
    assert np.all(draws >= 0.0)
    assert np.all(np.isfinite(draws))
