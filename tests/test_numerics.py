"""Quadrature rule, Brent root finder, Bessel K1, and exponential sampling."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from ehrelay.numerics import (QuadratureRule, _brentq, bessel_k1, integrate_gc,
                              sample_exponential)

# Frozen by scripts/compute_reference_values.py (mpmath besselk).
K1_REFERENCE = {
    0.01: 99.97389411829624,
    0.5: 1.656441120003301,
    1.0: 0.6019072301972346,
    10.0: 1.8648773453825585e-05,
    100.0: 4.6798537356369095e-45,
}


def _numpy_rule(order):
    """The rule's nodes and weights as np.float64 arrays, from the formula."""
    m = np.arange(1, order + 1)
    nodes = np.cos((2.0 * m - 1.0) * np.pi / (2.0 * order))
    return nodes, np.pi / (2.0 * order) * np.sqrt(1.0 - nodes ** 2)


def test_rule_matches_closed_form_nodes():
    rule = QuadratureRule.build(4)
    m = np.arange(1, 5)
    assert rule.order == 4
    assert rule.nodes == pytest.approx(np.cos((2 * m - 1) * np.pi / 8.0))
    assert rule.weights == pytest.approx(np.pi / 8.0 * np.sqrt(1 - np.square(rule.nodes)))


def test_rule_invariants():
    for order in (1, 2, 7, 33):
        rule = QuadratureRule.build(order)
        nodes = np.array(rule.nodes)
        assert np.all(nodes > -1.0) and np.all(nodes < 1.0)
        assert np.all(np.diff(nodes) < 0.0)
        assert np.all(np.array(rule.weights) > 0.0)


def test_rule_is_built_once_per_order_as_float_tuples():
    rule = QuadratureRule.build(7)
    assert QuadratureRule.build(7) is rule
    assert QuadratureRule.build(np.int64(7)) is rule
    assert QuadratureRule.build(8) is not rule
    for values, want in zip((rule.nodes, rule.weights), _numpy_rule(7)):
        assert type(values) is tuple and all(type(v) is float for v in values)
        assert [v.hex() for v in values] == [float(v).hex() for v in want]


def _integrate_over_numpy_scalars(rule, a, b, f):
    """integrate_gc's sum walked over np.float64 nodes and weights."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    for nu, w in zip(*_numpy_rule(rule.order)):
        total += w * f(half * nu + mid)
    return (b - a) * total


@pytest.mark.parametrize("order", [1, 5, 10, 20, 40])
@pytest.mark.parametrize("f,a,b", [
    (lambda y: math.exp(-(0.3 / y + 2.0 * y)), 0.05, 3.0),
    (math.sin, -2.0, 1.5),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1e-3),
    (lambda x: x * x * x - 7.0 * x, -1e5, 3e5),
])
def test_float_node_loop_matches_numpy_scalars_bitwise(order, f, a, b):
    rule = QuadratureRule.build(order)
    got = integrate_gc(rule, a, b, f)
    assert type(got) is float
    assert got.hex() == float(_integrate_over_numpy_scalars(rule, a, b, f)).hex()


def test_degenerate_interval_integrates_to_zero():
    rule = QuadratureRule.build(5)
    assert integrate_gc(rule, 1.0, 1.0, lambda x: 42.0) == 0.0
    assert integrate_gc(rule, 0.0, 0.0, lambda x: math.inf) == 0.0


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


def _smooth(rng, root):
    rate, scale, cubic = rng.uniform(0.1, 5.0), 10.0 ** rng.uniform(-3, 3), rng.uniform(0, 2)
    return lambda x: scale * (math.expm1(rate * (x - root)) + cubic * (x - root) ** 3)


def _flat(rng, root):
    # Plateaus, and values down to the subnormal range, whose step-formula
    # products underflow to a zero divisor.
    steep, scale = 10.0 ** rng.uniform(-1, 4), 10.0 ** rng.uniform(-320, 2)
    return lambda x: scale * math.tanh(steep * (x - root))


def _odd_power(rng, root):
    power = int(rng.choice([3, 5, 7, 9, 15, 31]))
    return lambda x: (x - root) ** power


def _step(rng, root):
    below, above = -10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)
    return lambda x: below if x < root else above


def _outcome(solve):
    """The root's bits, or the type of the error solving raised."""
    try:
        return solve().hex()
    except (ValueError, RuntimeError) as err:
        return type(err)


def _brent_outcomes(f, lo, hi, target=0.0, trace=False):
    """(port, scipy) outcomes for the root of f(x) - target, scipy's at the
    port's xtol=1e-30, rtol=1e-15 and maxiter=200, and, where trace is
    set, the zero divisors the port met.

    The port calls f once per step, and a step that tried to interpolate
    bound a fresh lim.  So each call of f from the port shows whether its
    step tried, and whether a zero divisor left den at 0 there.  The last
    lim seen is held, so that a later one cannot reuse its id.
    """
    zero_divisions = 0
    tried = None

    def enter(frame, event, arg):
        nonlocal zero_divisions, tried
        caller = frame.f_back
        if caller is not None and caller.f_code is _brentq.__code__:
            step = caller.f_locals
            if step.get("lim") is not tried:
                tried = step["lim"]
                zero_divisions += not step["den"]
        return None

    f_lo, f_hi = f(lo), f(hi)
    previous = sys.gettrace()
    if trace:
        sys.settrace(enter)
    try:
        ported = _outcome(lambda: _brentq(f, target, lo, hi, f_lo, f_hi))
    finally:
        sys.settrace(previous)
    wanted = _outcome(lambda: brentq(lambda x: f(x) - target, lo, hi,
                                     xtol=1e-30, rtol=1e-15, maxiter=200))
    return ported, wanted, zero_divisions


@pytest.mark.parametrize("family", [_smooth, _flat, _odd_power, _step])
def test_brent_port_matches_scipy_bitwise(family):
    rng = np.random.default_rng(sum(map(ord, family.__name__)))
    solved = zero_divisions = 0
    for _ in range(2500):
        width = 10.0 ** rng.uniform(-6, 2)
        lo = rng.normal() * 10.0 ** rng.uniform(-3, 3)
        hi = lo + width
        # Every family increases.  About one bracket in six holds no root
        # of f, a bracket the port's one caller never passes.
        f = family(rng, lo + width * rng.uniform(-0.1, 1.1))
        for target in (0.0, f(lo + 0.3 * width)):
            if not f(lo) - target <= 0.0 <= f(hi) - target:
                continue
            # Only _flat's values reach a zero divisor; tracing is slow.
            ported, wanted, divisions = _brent_outcomes(f, lo, hi, target,
                                                        trace=family is _flat)
            assert ported == wanted, (family.__name__, lo, hi, target)
            solved += 1
            zero_divisions += divisions
    assert solved > 4000
    if family is _flat:
        assert zero_divisions > 0


def test_brent_port_errors_match_scipy():
    cases = [
        (lambda x: x - 0.25, 0.0, 0.25, (0.25).hex()),       # zero at hi
        (lambda x: x - 0.25, 0.25, 1.0, (0.25).hex()),       # zero at lo
        # Bisection from 1e300 down to the tolerance takes over 1000 steps.
        (lambda x: -1.0 if x < 0.0 else 1.0, -1e300, 1e300, RuntimeError),
    ]
    for fn, lo, hi, want in cases:
        ported, wanted, _ = _brent_outcomes(fn, lo, hi)
        assert ported == wanted == want


def test_bessel_reference_values():
    for x, want in K1_REFERENCE.items():
        assert bessel_k1(x) == pytest.approx(want, rel=1e-12)


def test_bessel_small_argument_limit():
    assert 1e-6 * bessel_k1(1e-6) == pytest.approx(1.0, abs=1e-5)


def test_bessel_underflows_to_zero():
    # Underflow is the correct 0 of cdf_t3's deep left tail, not an event.
    assert bessel_k1(800.0) == 0.0


def test_bessel_monotone_and_log_convex():
    xs = np.linspace(0.05, 8.0, 60)
    ks = np.array([bessel_k1(float(x)) for x in xs])
    assert np.all(np.diff(ks) < 0.0)
    assert np.all(np.diff(np.log(ks), 2) > -1e-9)


def test_sampler_mean_and_support():
    rng = np.random.default_rng(1234)
    draws = sample_exponential(rng, 2.0, out=np.empty(1_000_000))
    assert draws.shape == (1_000_000,)
    assert float(draws.min()) >= 0.0
    assert float(draws.mean()) == pytest.approx(2.0, abs=0.01)


@pytest.mark.parametrize("n", [1, 7, 16_384, 262_144])
@pytest.mark.parametrize("mean", [1e-3, 0.25, 1.0, 3.7])
def test_sampler_is_bitwise_log1p_inversion(n, mean):
    out = np.empty(n)
    draws = sample_exponential(np.random.default_rng(2024), mean, out=out)
    assert draws is out
    reference = -mean * np.log1p(-np.random.default_rng(2024).random(n))
    assert draws.dtype == reference.dtype
    assert np.array_equal(draws.view(np.uint64), reference.view(np.uint64))


@given(mean=st.floats(min_value=1e-3, max_value=1e3))
def test_sampler_nonnegative_and_finite(mean):
    rng = np.random.default_rng(99)
    draws = sample_exponential(rng, mean, out=np.empty(64))
    assert np.all(draws >= 0.0)
    assert np.all(np.isfinite(draws))
