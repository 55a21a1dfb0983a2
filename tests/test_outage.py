"""Closed-form outage machinery against independently computed references."""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, event, given, settings, strategies as st
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import cython_special

from ehrelay import (
    McConfig,
    SystemParams,
    derive_constants,
    diversity_slope,
    energy_outage,
    mc_outage,
    outage_capacity,
    outage_dynamic_ps,
    outage_improved,
)
from ehrelay import numerics, outage
from ehrelay.model import link_constants
from ehrelay.numerics import QuadratureRule, bessel_k1, integrate_gc
from ehrelay.outage import (
    CaseFourGeometry,
    Scenario,
    _exp_curve_integral,
    _quantile_t3,
    _uplinks_hopeless,
    _window_mass,
    case4_geometry,
    cdf_t2,
    cdf_t3,
    improved_integration_bound,
    p_case1,
    p_case2,
    p_case3,
    p_case4,
)
from ehrelay.validation import _DIVERSITY_GEOMETRY, _array_cdfs, _oracle_case4

# Frozen by scripts/compute_reference_values.py: adaptive integration of the
# exact case integrands, root-finding on the boundary equations, and a 2-D
# integration of the exact four-link success event.
REF_CASE1 = 0.15311782010816002
REF_CASE2 = 0.005751293408392452
REF_CASE3 = 0.8319157561804856
REF_CASE4 = 0.00015235998824134569
REF_OUTAGE_DYNAMIC = 0.00906277031472058
REF_IMPROVED = {
    10.0: 0.2004156453249194,
    20.0: 0.037165518438565415,
    30.0: 0.005515817919810595,
}
REF_T_MAX = 1268.0125847986951
REF_GEOMETRY = {
    "q1": 1.660306103989928e-07,
    "q2": 8.549894911849543e-09,
    "x_delta": 0.005569961049247037,
    "y_delta": 0.10816320461953845,
    "x_plus": 0.006372719682320332,
    "y_plus": 0.1237519933958883,
}
REF_CDF_T2 = {1e-5: 0.00654728387513086,
              1e-4: 0.207369225013734,
              1e-3: 0.939013076612772}
REF_CDF_T3 = {0.1: 0.005967693038820512,
              1.0: 0.27973176363304486,
              10.0: 0.7665668611535681,
              1000.0: 0.9932425486315577}
REF_ENERGY_OUTAGE = 0.011942196384193512

DEFAULTS = SystemParams()
CONSTS = derive_constants(DEFAULTS, 0.5)
GEOMETRY = case4_geometry(CONSTS)


def _with(params=DEFAULTS, **kwargs):
    return dataclasses.replace(params, **kwargs)


def test_case_masses_at_reference_point():
    assert p_case1(DEFAULTS, CONSTS) == pytest.approx(REF_CASE1, abs=2e-5)
    assert p_case2(DEFAULTS, CONSTS) == pytest.approx(REF_CASE2, abs=2e-6)
    assert p_case3(DEFAULTS, CONSTS) == pytest.approx(REF_CASE3, rel=1e-12)
    assert p_case4(DEFAULTS, CONSTS, GEOMETRY) == pytest.approx(REF_CASE4, abs=1e-8)


def test_case_masses_tighten_at_high_order():
    fine = _with(quad_order=40)
    assert p_case1(fine, CONSTS) == pytest.approx(REF_CASE1, abs=1e-7)
    assert p_case2(fine, CONSTS) == pytest.approx(REF_CASE2, abs=1e-8)
    assert p_case4(fine, CONSTS, GEOMETRY) == pytest.approx(REF_CASE4, abs=1e-10)


def test_case1_order_convergence_gap():
    coarse = p_case1(_with(quad_order=5), CONSTS)
    fine = p_case1(_with(quad_order=50), CONSTS)
    assert abs(coarse - fine) < 1e-3


def test_case1_vanishing_threshold():
    tiny = _with(rate_bps_hz=1e-9)
    assert 0.0 <= p_case1(tiny, derive_constants(tiny, 0.5)) < 1e-4


def test_case2_mirrors_case1_under_role_swap():
    swapped = _with(dist_a=DEFAULTS.dist_b, dist_b=DEFAULTS.dist_a)
    assert p_case2(swapped, derive_constants(swapped, 0.5)) == pytest.approx(
        p_case1(DEFAULTS, CONSTS), rel=1e-12)


def test_case3_limits():
    tiny = _with(rate_bps_hz=1e-9)
    assert p_case3(tiny, derive_constants(tiny, 0.5)) > 1.0 - 1e-4
    washed = _with(fading_mean_a=1e12)
    c = derive_constants(washed, 0.5)
    assert p_case3(washed, c) == pytest.approx(math.exp(-c.delta_b), rel=1e-12)


def test_geometry_reference_point():
    assert GEOMETRY.scenario is Scenario.ThreeLow
    assert GEOMETRY.x1 == pytest.approx(CONSTS.delta_a, rel=1e-15)
    assert GEOMETRY.y1 == pytest.approx(CONSTS.delta_b, rel=1e-15)
    for name, want in REF_GEOMETRY.items():
        rel = 1e-8 if name in ("q1", "q2") else 1e-9
        assert getattr(GEOMETRY, name) == pytest.approx(want, rel=rel), name


def test_geometry_residuals():
    """Each intersection point satisfies its defining boundary equations."""
    def curve_a(y):
        return CONSTS.c_a / y + CONSTS.e_a - CONSTS.d_ratio_a * y

    def curve_b(x):
        return CONSTS.c_b / x + CONSTS.e_b - CONSTS.d_ratio_b * x

    assert curve_a(GEOMETRY.y_plus) == pytest.approx(GEOMETRY.x_plus, rel=1e-9)
    assert curve_b(GEOMETRY.x_plus) == pytest.approx(GEOMETRY.y_plus, rel=1e-9)
    assert curve_a(GEOMETRY.y_delta) == pytest.approx(GEOMETRY.x1, rel=1e-9)
    assert curve_b(GEOMETRY.x_delta) == pytest.approx(GEOMETRY.y1, rel=1e-9)


def test_geometry_symmetric_configuration():
    sym = _with(dist_a=10.0, dist_b=10.0)
    g = case4_geometry(derive_constants(sym, 0.5))
    assert g.x1 == pytest.approx(g.y1, rel=1e-12)
    assert g.q1 == pytest.approx(g.q2, rel=1e-12)
    assert g.x_delta == pytest.approx(g.y_delta, rel=1e-12)
    assert g.x_plus == pytest.approx(g.y_plus, rel=1e-12)


def test_empty_scenario_contributes_nothing():
    empty = CaseFourGeometry(x1=GEOMETRY.x1, y1=GEOMETRY.y1, q1=GEOMETRY.q1,
                             q2=GEOMETRY.q2, x_delta=GEOMETRY.x_delta,
                             y_delta=GEOMETRY.y_delta, x_plus=GEOMETRY.x_plus,
                             y_plus=GEOMETRY.y_plus, scenario=Scenario.One)
    assert p_case4(DEFAULTS, CONSTS, empty) == 0.0


def test_case4_invariant_under_role_swap():
    swapped = _with(dist_a=DEFAULTS.dist_b, dist_b=DEFAULTS.dist_a)
    c = derive_constants(swapped, 0.5)
    assert p_case4(swapped, c, case4_geometry(c)) == pytest.approx(
        p_case4(DEFAULTS, CONSTS, GEOMETRY), rel=1e-12)


# One point per single-curve layout; no figure, gate or benchmark point
# lands in either.  The oracle masses are 1.595e-3 (TwoLow) and 4.311e-3.
SINGLE_CURVE_POINTS = {
    Scenario.TwoLow: (dict(dist_a=5.0, dist_b=2.0, fading_mean_a=400.0,
                           fading_mean_b=150.0), 0.1),
    Scenario.TwoHigh: (dict(dist_a=2.0, dist_b=2.0, fading_mean_a=400.0,
                            fading_mean_b=50.0), 0.9),
}


@pytest.mark.parametrize("layout", sorted(SINGLE_CURVE_POINTS, key=lambda s: s.name))
def test_case4_single_curve_layouts_match_oracle(layout):
    overrides, theta = SINGLE_CURVE_POINTS[layout]
    p = _with(tx_power_dbm=-70.0, rate_bps_hz=2.0, quad_order=40, **overrides)
    c = derive_constants(p, theta)
    geom = case4_geometry(c)
    assert geom.scenario is layout
    want = _oracle_case4(p, c, geom)
    assert want > 1e-3
    assert p_case4(p, c, geom) == pytest.approx(want, rel=1e-7)


# A wide box over the inputs the case-four geometry reads: about a fifth of
# its uniform draws lay out on the B side, all of them below -20 dBm.
WIDE_BOX = dict(tx_power_dbm=(-150.0, 60.0), rate_bps_hz=(0.05, 10.0),
                dist_a=(1.0, 30.0), dist_b=(1.0, 30.0), time_split=(0.01, 0.49),
                eh_efficiency=(0.05, 1.0))


def _b_side_geometry(params, theta):
    """The case-four geometry where its layout is on the B side
    (y_delta < q1), else None; None too where the knees round onto the
    uplink floors."""
    try:
        geom = case4_geometry(derive_constants(params, theta))
    except ValueError:
        return None
    return geom if geom.scenario is not Scenario.One and geom.y_delta < geom.q1 else None


@settings(deadline=None, max_examples=1000)
@given(st.fixed_dictionaries({k: st.floats(*v) for k, v in WIDE_BOX.items()}),
       st.floats(0.01, 0.99))
def test_b_side_layouts_cross_at_or_past_the_knee(fields, theta):
    """case4_geometry's proof: a B-side layout's curves cross at or past x1,
    so no two-curve B-side layout exists."""
    geom = _b_side_geometry(SystemParams(**fields), theta)
    event(f"B side: {geom is not None}")
    if geom is None:
        return
    assert geom.scenario is Scenario.TwoHigh
    assert geom.x_plus >= geom.x1 * (1.0 - 1e-12)


def test_b_side_layouts_match_the_oracle():
    """Seeded B-side points of the wide box, fading means at the knees so the
    corner mass is large enough to compare."""
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 4:
        fields = {k: float(rng.uniform(*v)) for k, v in WIDE_BOX.items()}
        theta = float(rng.uniform(0.01, 0.99))
        geom = _b_side_geometry(SystemParams(**fields), theta)
        if geom is None:
            continue
        p = SystemParams(**fields, fading_mean_a=geom.x1, fading_mean_b=geom.y1,
                         quad_order=40)
        c = derive_constants(p, theta)
        want = _oracle_case4(p, c, geom)
        if want < 1e-4:
            continue
        assert case4_geometry(c) == geom
        assert p_case4(p, c, geom) == pytest.approx(want, rel=1e-7)
        checked += 1


def test_the_empty_layout_guard_holds_where_a_knee_rounds_onto_its_floor():
    """In exact arithmetic the layout is never empty; here delta_B lies
    1.4e-16 (relative) above knee_B, and rounding makes it so."""
    params = SystemParams(tx_power_dbm=-230.2, rate_bps_hz=7.3, fading_mean_a=1e25,
                          fading_mean_b=1e22)
    consts = derive_constants(params, 0.88)
    assert (consts.delta_b - consts.knee_b) / consts.knee_b < 2e-16
    assert not _uplinks_hopeless(consts)
    geom = case4_geometry(consts)
    assert geom.scenario is Scenario.One
    assert p_case4(params, consts, geom) == 0.0
    assert 0.0 <= outage_dynamic_ps(params, 0.88) <= 1.0


def test_dynamic_outage_reference_point():
    assert outage_dynamic_ps(DEFAULTS, 0.5) == pytest.approx(
        REF_OUTAGE_DYNAMIC, abs=2e-5)
    assert outage_dynamic_ps(_with(quad_order=40), 0.5) == pytest.approx(
        REF_OUTAGE_DYNAMIC, abs=1e-7)


def test_dynamic_outage_vanishing_threshold():
    assert outage_dynamic_ps(_with(rate_bps_hz=1e-9), 0.5) < 1e-6


def test_closed_forms_stay_probabilities_at_low_transmit_power():
    # Down here the success mass drowns in rounding: the case strips would
    # overflow, so outage_dynamic_ps must report the rounded 1.0 instead.
    for tx in [*np.arange(-130.0, 7.6, 2.5), -150.0, -200.0]:
        p = _with(tx_power_dbm=float(tx))
        for theta in (0.05, 0.2, 0.5, 0.8, 0.95):
            assert 0.0 <= outage_dynamic_ps(p, theta) <= 1.0, (tx, theta)
        assert 0.0 <= outage_improved(p) <= 1.0, tx
    assert outage_dynamic_ps(_with(tx_power_dbm=-150.0), 0.5) == 1.0


def test_improved_outage_is_one_far_below_the_noise():
    # Below about -815 dBm here b_o**2 of the window bound overflows; the
    # hopeless-uplink guard answers first.
    for tx in (-300.0, -1000.0, -1600.0):
        assert outage_improved(_with(tx_power_dbm=tx)) == 1.0


def test_estimators_agree_on_the_sure_outage_far_below_the_noise():
    # The dynamic-PS knees round onto the uplink floor down here, but the
    # outage is exactly 1.0 whatever theta; only an invalid theta raises.
    params = _with(tx_power_dbm=-300.0)
    cfg = McConfig(trials=4096, seed=1)
    assert outage_dynamic_ps(params, 0.5) == 1.0
    assert outage_improved(params) == 1.0
    assert mc_outage(params, "dynamic_ps", {"theta": 0.5}, cfg).probability == 1.0
    with pytest.raises(ValueError, match="theta"):
        outage_dynamic_ps(params, 1.5)


def _seeded_box(count, seed=2026):
    """Points far past the figures: transmit power -130..80 dBm, noise
    -120..-60 dBm, fading means log-uniform over 0.01..1000, M in
    {5, 10, 40} and theta in (0.01, 0.99)."""
    rng = np.random.default_rng(seed)
    tx = rng.uniform(-130.0, 80.0, count)
    noise = rng.uniform(-120.0, -60.0, count)
    means = 10.0 ** rng.uniform(-2.0, 3.0, (2, count))
    orders = rng.choice((5, 10, 40), count)
    theta = rng.uniform(0.01, 0.99, count)
    return [(SystemParams(tx_power_dbm=float(tx[i]), noise_dbm=float(noise[i]),
                          fading_mean_a=float(means[0, i]),
                          fading_mean_b=float(means[1, i]), quad_order=int(orders[i])),
             float(theta[i])) for i in range(count)]


def test_case_masses_are_probabilities_across_the_seeded_box():
    # Where the uplinks are hopeless the strips of cases 1, 2 and 4 would
    # overflow; there each mass is 0.0, within 2**-54 of the true one.
    hopeless = 0
    for params, theta in _seeded_box(1000):
        consts = derive_constants(params, theta)
        cases = (p_case1(params, consts), p_case2(params, consts),
                 p_case3(params, consts),
                 p_case4(params, consts, case4_geometry(consts)))
        assert all(type(p) is float and 0.0 <= p <= 1.0 for p in cases), params
        if _uplinks_hopeless(consts):
            hopeless += 1
            assert cases[0] == cases[1] == cases[3] == 0.0, params
        else:
            assert outage_dynamic_ps(params, theta) == min(max(1.0 - sum(cases), 0.0), 1.0)
    assert 0 < hopeless < 1000


def test_improved_outage_reference_points():
    for dbm, want in REF_IMPROVED.items():
        got = outage_improved(_with(tx_power_dbm=dbm))
        assert got == pytest.approx(want, abs=2e-5), f"P={dbm} dBm"


def test_improved_outage_vanishing_threshold():
    assert outage_improved(_with(rate_bps_hz=1e-9)) < 1e-6


def test_improved_beats_dynamic_at_reference_point():
    assert outage_improved(DEFAULTS) < outage_dynamic_ps(DEFAULTS, 0.5)


LADDER_POINTS = {dbm: link_constants(_with(tx_power_dbm=dbm)) for dbm in (0.0, 30.0, 60.0)}


def _solver_cdf(consts):
    """The t3 CDF formula as outage_improved builds it for its solver."""
    return outage._cdf_t3(consts, math.sqrt, numerics.bessel_k1)


@settings(max_examples=40, deadline=None)
@given(dbm=st.sampled_from(sorted(LADDER_POINTS)),
       fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          min_size=1, max_size=12))
def test_resumed_ladder_gives_the_fresh_walk(dbm, fractions):
    """Solves that share a ladder, in descending v as integrate_gc's nodes
    come, each get the bracket and the root of a walk from t_max."""
    consts = LADDER_POINTS[dbm]
    cdf = _solver_cdf(consts)
    t_max = improved_integration_bound(consts)
    v_max = cdf_t3(consts, t_max)
    levels = sorted((u * v_max for u in fractions), reverse=True)
    assume(all(0.0 < v < v_max for v in levels))
    real_brentq = outage._brentq
    brackets = []

    def solver_spy(f, target, lo, hi, *args):
        brackets.append((lo.hex(), hi.hex()))
        return real_brentq(f, target, lo, hi, *args)

    ladder = [(t_max, v_max)]
    with mock.patch.object(outage, "_brentq", solver_spy):
        for v in levels:
            resumed = _quantile_t3(cdf, v, ladder).hex()
            fresh = [(t_max, v_max)]
            assert _quantile_t3(cdf, v, fresh).hex() == resumed
            assert brackets.pop() == brackets.pop()
            assert ladder == fresh
    assert [t for t, _ in ladder] == [t_max * 2.0 ** -k for k in range(len(ladder))]


# The analytic-grid box of operating points; each field is drawn uniformly.
GRID_BOX = dict(tx_power_dbm=(0.0, 70.0), dist_a=(1.0, 20.0), dist_b=(1.0, 20.0),
                rate_bps_hz=(0.5, 5.0), time_split=(0.05, 0.45),
                eh_efficiency=(0.2, 1.0), gain_a_dbi=(0.0, 14.0),
                gain_b_dbi=(0.0, 14.0), gain_relay_dbi=(0.0, 14.0),
                fading_mean_a=(0.5, 2.0), fading_mean_b=(0.5, 2.0))


def _t3_written_out(consts, t):
    """cdf_t3 with lam_a*lam_b*t formed left to right, as it was before the
    product lam_a*lam_b was hoisted out of the per-t work."""
    lam_a = consts.z_a / consts.a_rate_a
    lam_b = consts.z_b / consts.a_rate_b
    z = math.sqrt(4.0 / (lam_a * lam_b * t))
    return z * float(scipy.special.k1(z))


@settings(max_examples=150, deadline=None)
@given(fields=st.fixed_dictionaries({k: st.floats(*v) for k, v in GRID_BOX.items()}),
       order=st.sampled_from([5, 10, 20, 40]),
       node=st.integers(0, 39),
       fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       at_node=st.booleans())
def test_quantile_t3_returns_scipys_root(fields, order, node, fraction, at_node):
    """At box points, for v at one of outage_improved's quadrature nodes or
    anywhere in (0, v_max), the solver's root is scipy's, bit for bit, on the
    ladder bracket: for cdf_t3 and for the formula written out."""
    consts = link_constants(SystemParams(**fields, quad_order=order))
    t_max = improved_integration_bound(consts)
    v_max = cdf_t3(consts, t_max)
    rule = QuadratureRule.build(order)
    u = 0.5 * rule.nodes[node % order] + 0.5 if at_node else fraction
    v = u * v_max
    assume(0.0 < v < v_max)
    rungs = [(t_max, v_max)]
    got = _quantile_t3(_solver_cdf(consts), v, rungs)
    k = next(i for i, (_, cdf) in enumerate(rungs) if not cdf > v)
    lo, hi = rungs[k][0], rungs[k - 1][0]
    assert [cdf for _, cdf in rungs] == [cdf_t3(consts, t) for t, _ in rungs]
    for reference in (cdf_t3, _t3_written_out):
        want = brentq(lambda t: reference(consts, t) - v, lo, hi,
                      xtol=1e-30, rtol=1e-15, maxiter=200)
        assert got.hex() == want.hex(), reference.__name__


@pytest.mark.parametrize("dbm", sorted(LADDER_POINTS))
@pytest.mark.parametrize("order", [5, 40])
def test_improved_outage_evaluates_each_ladder_rung_once(monkeypatch, dbm, order):
    params = _with(tx_power_dbm=dbm, quad_order=order)
    want = outage_improved(params)
    real_formula = outage._cdf_t3
    real_brentq = outage._brentq
    brackets = []
    outside = []
    inside = []
    solver_calls = []

    def formula_spy(consts, *ops):
        cdf = real_formula(consts, *ops)

        def spied(t):
            (inside if brackets else outside).append(t)
            return cdf(t)
        return spied

    def brentq_spy(f, target, lo, hi, *args, **kwargs):
        brackets.append((lo, hi))
        try:
            return real_brentq(f, target, lo, hi, *args, **kwargs)
        finally:
            ends = brackets.pop()
            assert not set(inside) & set(ends)
            solver_calls.append(len(inside))
            inside.clear()

    monkeypatch.setattr(outage, "_cdf_t3", formula_spy)
    monkeypatch.setattr(outage, "_brentq", brentq_spy)
    assert outage_improved(params) == want
    # Outside the solver: v_max at the bound, then each rung of the ladder
    # once; inside it, never at a bracket end, whose CDF the ladder holds.
    t_max = improved_integration_bound(link_constants(params))
    assert outside == [t_max * 2.0 ** -k for k in range(len(outside))]
    assert len(outside) >= 2
    # The spy sees the solver's evaluations: one solve per node, each of
    # them evaluating the formula.
    assert len(solver_calls) == order
    assert min(solver_calls) >= 1


def test_integration_bound():
    t_max = improved_integration_bound(CONSTS)
    assert t_max == pytest.approx(REF_T_MAX, rel=1e-12)
    # Defining quadratic of the window-closure point.
    assert CONSTS.a_o * t_max ** 2 + CONSTS.b_o * t_max == pytest.approx(1.0, rel=1e-9)


def test_cdf_t2_reference_and_limits():
    for t, want in REF_CDF_T2.items():
        assert cdf_t2(CONSTS, t) == pytest.approx(want, rel=1e-12)
    gate_t2, _ = _array_cdfs(CONSTS)
    assert gate_t2(np.array(list(REF_CDF_T2))).tolist() \
        == pytest.approx(list(REF_CDF_T2.values()), rel=1e-12)
    assert cdf_t2(CONSTS, 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("geometry,branch", [
    ({}, "rate_a < rate_b"),
    ({"dist_b": 5.0}, "equal rates"),
    ({"dist_a": 15.0, "dist_b": 5.0}, "rate_a > rate_b"),
], ids=["distinct", "equal", "distinct-swapped"])
def test_cdf_t2_is_plus_zero_at_zero_on_every_branch(geometry, branch):
    # The closed form itself gives +0.0 at t = 0, with no special case.
    consts = link_constants(_with(**geometry))
    rate_a, rate_b = consts.a_rate_a, consts.a_rate_b
    assert branch == ("equal rates" if rate_a == rate_b else
                      "rate_a < rate_b" if rate_a < rate_b else "rate_a > rate_b")
    gate_t2, _ = _array_cdfs(consts)
    for value in (cdf_t2(consts, 0.0), float(gate_t2(np.zeros(1))[0])):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_cdf_t2_distinct_rate_closed_form():
    # With rates 1 and 2 the distinct-rate branch collapses to (1 - e^-t)^2.
    c = dataclasses.replace(CONSTS, a_rate_a=1.0, a_rate_b=2.0)
    assert cdf_t2(c, 1.0) == pytest.approx((1.0 - math.exp(-1.0)) ** 2, rel=1e-12)


def test_cdf_t2_near_equal_rates_are_stable():
    a = CONSTS.a_rate_a
    c = dataclasses.replace(CONSTS, a_rate_b=a * (1.0 + 1e-12))
    t = 3.0 / a
    want = 1.0 - math.exp(-3.0) - 3.0 * math.exp(-3.0)
    assert cdf_t2(c, t) == pytest.approx(want, rel=1e-9)


def test_cdf_t3_reference_and_limits():
    for t, want in REF_CDF_T3.items():
        assert cdf_t3(CONSTS, t) == pytest.approx(want, rel=1e-12)
    _, gate_t3 = _array_cdfs(CONSTS)
    assert gate_t3(np.array(list(REF_CDF_T3))).tolist() \
        == pytest.approx(list(REF_CDF_T3.values()), rel=1e-12)
    # Unit fading means make the t=1 value exactly 2 K1(2).
    assert cdf_t3(CONSTS, 1.0) == pytest.approx(2.0 * bessel_k1(2.0), rel=1e-12)
    assert cdf_t3(CONSTS, 1e10) == pytest.approx(1.0, abs=1e-6)
    assert cdf_t3(CONSTS, 2e-3) < 1e-6


T2_RATE_SETTINGS = {
    "distinct": CONSTS,
    "distinct-swapped": dataclasses.replace(CONSTS, a_rate_a=CONSTS.a_rate_b,
                                            a_rate_b=CONSTS.a_rate_a),
    "equal": dataclasses.replace(CONSTS, a_rate_b=CONSTS.a_rate_a),
    "near-equal": dataclasses.replace(CONSTS,
                                      a_rate_b=CONSTS.a_rate_a * (1.0 + 1e-12)),
}
T3_SETTINGS = {
    "defaults": CONSTS,
    "equal-rates": derive_constants(_with(dist_b=5.0), 0.5),
    "unequal-means": derive_constants(
        _with(fading_mean_a=0.7, fading_mean_b=1.3), 0.5),
}


@pytest.mark.parametrize("setting", sorted(T2_RATE_SETTINGS))
def test_gate_t2_agrees_with_cdf_t2(setting):
    """Criterion 8's t2 CDF, the formula of cdf_t2 on numpy's exp and expm1,
    is within a few ulps of cdf_t2 on each rate branch."""
    consts = T2_RATE_SETTINGS[setting]
    gate_t2, _ = _array_cdfs(consts)
    t = np.append(np.geomspace(1e-12, 1e3, 200_000), 0.0)
    got = gate_t2(t)
    want = np.array([cdf_t2(consts, float(x)) for x in t])
    assert got.shape == t.shape
    assert np.max(np.abs(got - want)) <= 4.0 * np.finfo(float).eps
    assert got[-1] == 0.0


@pytest.mark.parametrize("setting", sorted(T3_SETTINGS))
def test_gate_t3_is_bit_identical_to_cdf_t3(setting):
    """Criterion 8's t3 CDF, the formula of cdf_t3 on np.sqrt and the
    scipy.special.k1 ufunc, gives cdf_t3's bits, and 1.0 at t = inf, where
    a sampled gain is 0."""
    consts = T3_SETTINGS[setting]
    _, gate_t3 = _array_cdfs(consts)
    t = np.append(np.geomspace(1e-10, 1e14, 200_000), math.inf)
    got = gate_t3(t)
    want = np.array([cdf_t3(consts, float(x)) for x in t])
    assert got.shape == t.shape
    assert np.array_equal(got, want)
    assert got[-1] == 1.0


def test_the_scalar_k1_is_one_function():
    assert numerics.bessel_k1 is cython_special.k1


def test_every_t3_formula_evaluation_goes_through_bessel_k1(monkeypatch):
    """outage_improved reads numerics.bessel_k1 when called, so a spy there
    sees every evaluation of the t3 formula, its solver's too, not only
    v_max's: 80 at the defaults (M = 10)."""
    want = outage_improved(DEFAULTS)
    k1_calls = formula_calls = 0
    real_k1, real_formula = numerics.bessel_k1, outage._cdf_t3

    def k1_spy(z):
        nonlocal k1_calls
        k1_calls += 1
        return real_k1(z)

    def formula_spy(consts, *ops):
        cdf = real_formula(consts, *ops)

        def counted(t):
            nonlocal formula_calls
            formula_calls += 1
            return cdf(t)
        return counted

    monkeypatch.setattr(numerics, "bessel_k1", k1_spy)
    monkeypatch.setattr(outage, "_cdf_t3", formula_spy)
    assert outage_improved(DEFAULTS) == want
    assert k1_calls == formula_calls > 5 * DEFAULTS.quad_order


def test_scalar_k1_is_the_ufunc_bit_for_bit(monkeypatch):
    """bessel_k1, which cdf_t3 calls, and the K1 that outage_improved's solver
    calls both give float(scipy.special.k1(z)), bit for bit: over both cephes
    branches (z <= 2 and z > 2), at tiny z, and where K1 underflows to 0.0
    past z of about 700.  test_gate_t3_is_bit_identical_to_cdf_t3 holds
    criterion 8's t3 CDF, on the ufunc, to the same bits."""
    formulas = []
    real_formula = outage._cdf_t3
    monkeypatch.setattr(outage, "_cdf_t3", lambda consts, sqrt, k1: (
        formulas.append(k1) or real_formula(consts, sqrt, k1)))
    outage_improved(DEFAULTS)
    solver_k1 = formulas[-1]
    tiny = [5e-324, 1e-320, 1e-310, 1e-300, 1e-100, 1e-10]
    underflow = [700.0, 705.0, 710.0, 740.0, 746.0, 800.0, 1e10, math.inf]
    zs = tiny + np.geomspace(1e-3, 800.0, 20_001).tolist() + underflow
    assert min(zs) <= 2.0 < max(zs)
    for z in zs:
        want = float(scipy.special.k1(z)).hex()
        assert bessel_k1(z).hex() == want and solver_k1(z).hex() == want, z
    assert bessel_k1(746.0) == solver_k1(746.0) == 0.0


def test_cdf_t3_is_zero_where_k1_underflows():
    """At the defaults lam_a*lam_b = 1, so t = 1e-6 gives z = 2000: K1
    underflows to 0 while z stays finite."""
    assert scipy.special.k1(math.sqrt(4.0 / 1e-6)) == 0.0
    assert cdf_t3(CONSTS, 1e-6) == 0.0
    _, gate_t3 = _array_cdfs(CONSTS)
    assert gate_t3(np.array([1e-6])).tolist() == [0.0]


def test_cdf_t3_gives_the_limit_where_z_overflows():
    """0.0, with no warning, at a t so small that z = sqrt(4/(lam_a*lam_b*t))
    overflows: at the defaults lam_a*lam_b = 1, and at fading means 0.01 the
    product lam_a*lam_b*t itself underflows to 0 at 5e-324."""
    small = derive_constants(_with(fading_mean_a=0.01, fading_mean_b=0.01), 0.5)
    assert (small.z_a / small.a_rate_a) * (small.z_b / small.a_rate_b) * 5e-324 == 0.0
    for consts in (CONSTS, small):
        for t in (1e-308, 5e-324):
            assert cdf_t3(consts, t) == 0.0


def test_cdf_t3_gives_the_limit_where_z_is_zero():
    """1.0, with no warning, where z = sqrt(4/(lam_a*lam_b*t)) is 0: at
    fading means 3.2 lam_a*lam_b*t overflows from about 1e307 on, and at
    EXTREME_FADING_POINTS A lam_b is inf, as Z_B/fading_mean_b is 0."""
    large = link_constants(_with(fading_mean_a=3.2, fading_mean_b=3.2))
    assert (large.z_a / large.a_rate_a) * (large.z_b / large.a_rate_b) * 1e308 == math.inf
    at_a = link_constants(SystemParams(**EXTREME_FADING_POINTS["A"][0]))
    assert at_a.a_rate_b == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e305, 1e308, 1.7e308):
            assert cdf_t3(large, t) == 1.0
        for t in (5e-324, 1e-300, 1.0, 1e300):
            assert cdf_t3(at_a, t) == 1.0


@pytest.mark.parametrize("cdf,bad", [(cdf_t2, -1e-300), (cdf_t2, math.nan),
                                     (cdf_t3, 0.0), (cdf_t3, math.nan)])
def test_scalar_cdfs_reject_out_of_domain_t(cdf, bad):
    with pytest.raises(ValueError):
        cdf(CONSTS, bad)
    with pytest.raises(ValueError):
        cdf(CONSTS, np.float64(bad))


def test_cdfs_nondecreasing_on_dense_grids():
    t2_vals = np.array([cdf_t2(CONSTS, float(t))
                        for t in np.logspace(-8, 0, 10000)])
    assert t2_vals[0] < 1e-6 and 1.0 - t2_vals[-1] < 1e-6
    assert np.all(np.diff(t2_vals) >= 0.0)

    t3_vals = np.array([cdf_t3(CONSTS, float(t))
                        for t in np.logspace(-2.5, 8, 10000)])
    assert t3_vals[0] < 1e-6 and 1.0 - t3_vals[-1] < 1e-6
    assert np.all(np.diff(t3_vals) >= 0.0)


def _window_mass_deriv(consts, t):
    """Derivative in t of the decode-window mass, in closed form.

    Only valid strictly inside (0, integration bound), where both window
    edges are finite.
    """
    upper = 1.0 / (consts.varpi * consts.z_a * consts.z_b * t) + consts.varpi
    lower = 2.0 * consts.varpi / (1.0 - consts.snr_threshold / consts.y_big * t)
    d_upper = -1.0 / (consts.varpi * consts.z_a * consts.z_b * t * t)
    slope = consts.snr_threshold / consts.y_big
    den = 1.0 - slope * t
    d_lower = 2.0 * consts.varpi * slope / (den * den)
    rate_a = consts.a_rate_a
    rate_b = consts.a_rate_b
    gap = rate_a - rate_b
    if abs(gap) <= 1e-9 * max(rate_a, rate_b):
        return rate_a ** 2 * (d_upper * upper * math.exp(-rate_a * upper)
                              - d_lower * lower * math.exp(-rate_a * lower))
    scale = rate_a * rate_b / gap
    return scale * (d_upper * (math.exp(-rate_b * upper) - math.exp(-rate_a * upper))
                    - d_lower * (math.exp(-rate_b * lower) - math.exp(-rate_a * lower)))


def test_window_mass_derivative_matches_finite_differences():
    """Closed-form derivative of the decode-window mass, checked by FD.

    Run at 5 dBm where the derivative is large enough for double-precision
    central differences to resolve; points below the FD noise floor are
    skipped.
    """
    p = _with(tx_power_dbm=5.0)
    c = derive_constants(p, 0.5)
    t_max = improved_integration_bound(c)
    resolved = 0
    for frac in np.linspace(0.02, 0.98, 25):
        t = frac * t_max
        h = t * 1e-5
        fd = (_window_mass(c, t + h) - _window_mass(c, t - h)) / (2.0 * h)
        cf = _window_mass_deriv(c, t)
        if abs(cf) >= 1e-8:
            resolved += 1
            assert fd == pytest.approx(cf, rel=1e-4)
    assert resolved >= 5


# High-gain antennas 1 cm from the relay: the case-four crossing x_plus
# underflows to 0 at transmit powers where varpi**2 is still a normal float.
_CENTIMETRE_GEOMETRY = dict(gain_a_dbi=60.0, gain_b_dbi=60.0, gain_relay_dbi=60.0,
                            dist_a=0.01, dist_b=0.01)


@pytest.mark.parametrize("geometry", [{}, _DIVERSITY_GEOMETRY, _CENTIMETRE_GEOMETRY],
                         ids=["default", "diversity", "60dBi-1cm"])
def test_extreme_snr_gives_a_probability_or_a_value_error(geometry):
    """Over transmit powers far past any link budget and noise floors from
    -3000 to 500 dBm, where Y overflows and varpi**2 or x_plus underflows,
    each closed form returns a probability or raises the ValueError that
    names the transmit power."""
    for noise_dbm in (-3000.0, -700.0, -90.0, 0.0, 500.0):
        for tx_power_dbm in np.linspace(-300.0, 3000.0, 120).tolist():
            params = _with(tx_power_dbm=tx_power_dbm, noise_dbm=noise_dbm, **geometry)
            for evaluate in (outage_improved, lambda p: outage_dynamic_ps(p, 0.5)):
                try:
                    value = evaluate(params)
                except ValueError as err:
                    assert "tx_power_dbm" in str(err)
                else:
                    assert type(value) is float and 0.0 <= value <= 1.0


# Extreme fading means.  A: Z_B/fading_mean_b underflows to 0, so lam_b is
# inf.  B: b_o**2 overflows.  C: a_o is inf.  D: a dynamic-PS strip's
# integral overflows where its exp(-e/lam_x) factor underflows.  Per scheme,
# the outage (a float) or the input the ValueError must name (a str).
EXTREME_FADING_POINTS = {
    "A": (dict(path_loss_exp=6.0, dist_b=0.002, gain_b_dbi=97.0, gain_relay_dbi=94.0,
               fading_mean_b=1e296),
          {"improved": "fading_mean_b", "dynamic_ps": 4.3298697960381105e-15}),
    "B": (dict(tx_power_dbm=454.0, noise_dbm=31.0, path_loss_exp=7.5, dist_a=5564.0,
               dist_b=43922.0, fading_mean_a=1e92, fading_mean_b=1e90,
               rate_bps_hz=292.0),
          {"improved": "rate_bps_hz", "dynamic_ps": "tx_power_dbm"}),
    "C": (dict(tx_power_dbm=1228.0, fading_mean_a=1e145, fading_mean_b=1e108,
               rate_bps_hz=675.0),
          {"improved": "rate_bps_hz", "dynamic_ps": "tx_power_dbm"}),
    "D": (dict(tx_power_dbm=1324.0, noise_dbm=-292.0, fading_mean_a=1e-109),
          {"improved": 0.0, "dynamic_ps": "fading_mean_a"}),
}


@pytest.mark.parametrize("point", sorted(EXTREME_FADING_POINTS))
@pytest.mark.parametrize("scheme", ["improved", "dynamic_ps"])
def test_extreme_fading_means_give_a_probability_or_name_an_input(point, scheme):
    fields, outcomes = EXTREME_FADING_POINTS[point]
    params = SystemParams(**fields)
    evaluate = outage_improved if scheme == "improved" \
        else (lambda p: outage_dynamic_ps(p, 0.5))
    want = outcomes[scheme]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(want, str):
            with pytest.raises(ValueError, match=want):
                evaluate(params)
        else:
            assert evaluate(params) == want


@pytest.mark.parametrize("fading_mean", [1e150, 1e153, 1e200])
def test_improved_outage_never_reads_the_t3_cdf_at_z_zero(fading_mean):
    """Once lam_a*lam_b*t_max overflows, z is 0 at the window bound and the
    formula reads 0*inf on the ladder's first rungs, which the solver
    cannot bracket; before the check, the outage read a wrong 1.0, above
    the dynamic-PS outage it never exceeds."""
    params = _with(fading_mean_a=fading_mean, fading_mean_b=fading_mean)
    try:
        value = outage_improved(params)
    except ValueError as err:
        assert "fading_mean_a" in str(err)
    else:
        assert value <= outage_dynamic_ps(params, 0.5)


def test_capacity_formula():
    assert outage_capacity(DEFAULTS, 1.0) == 0.0
    # beta = 1/3 equalizes the two slot lengths, so the effective time is 1/3.
    assert outage_capacity(DEFAULTS, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    quarter = _with(time_split=0.25)
    assert outage_capacity(quarter, 0.5) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        outage_capacity(DEFAULTS, -0.1)
    with pytest.raises(ValueError):
        outage_capacity(DEFAULTS, 1.1)


def test_energy_outage_reference_and_limits():
    gated = _with(circuit_sensitivity_dbm=-20.0)
    got = energy_outage(gated)
    assert got == pytest.approx(REF_ENERGY_OUTAGE, rel=1e-9)
    ungated = _with(circuit_sensitivity_dbm=-300.0)
    assert energy_outage(ungated) < 1e-12


@pytest.mark.parametrize("tx_power_dbm", [10.0, 30.0, -20.0])
def test_missing_sensitivity_is_the_zero_sensitivity_limit(tx_power_dbm):
    ideal = _with(tx_power_dbm=tx_power_dbm)
    faint = _with(ideal, circuit_sensitivity_dbm=-300.0)
    assert energy_outage(ideal) == energy_outage(faint)


def test_energy_outage_symmetric_links_square():
    sym = _with(dist_a=10.0, dist_b=10.0, circuit_sensitivity_dbm=-20.0)
    c = derive_constants(sym, 0.5)
    level = c.varpi + c.harvest_floor
    single = -math.expm1(-c.a_rate_a * level)
    assert energy_outage(sym) == pytest.approx(single ** 2, rel=1e-12)


def test_diversity_slope_synthetic_inputs():
    def log_linear(point):
        return 10.0 ** (-(point.tx_power_dbm - point.noise_dbm) / 10.0)

    grid = [40.0, 50.0, 60.0, 70.0]
    assert diversity_slope(DEFAULTS, log_linear, grid) == pytest.approx(1.0, abs=1e-9)
    assert diversity_slope(DEFAULTS, lambda point: 0.01, grid) == pytest.approx(
        0.0, abs=1e-12)


def test_diversity_slope_validation():
    def constant(point):
        return 0.01

    with pytest.raises(ValueError):
        diversity_slope(DEFAULTS, constant, [40.0, 50.0])
    with pytest.raises(ValueError):
        diversity_slope(DEFAULTS, constant, [50.0, 40.0, 60.0])
    with pytest.raises(ValueError):
        diversity_slope(DEFAULTS, lambda point: 0.0, [40.0, 50.0, 60.0])


def test_high_snr_outage_follows_the_eps_log_law():
    """As eps = gamma_th/s -> 0, s the transmit SNR, an outage needs one
    uplink gain small while the other stays of order 1, so
    P_out = C*eps*ln(1/eps) + O(eps), C = Z_A*Z_B/(2*kappa*lam_A*lam_B)*w.
    dynamic_ps at theta has w = m/(1-theta)^2 + m/theta^2, with
    m = theta^2 + (1-theta)^2; improved, whose theta tends to 0 with u_A,
    has w = 2.  Each decade of s then adds C*gamma_th*ln 10 to s*P_out.
    M = 40 resolves that increment to 1e-4 from 100 dB, where M = 10 sits
    about 1e-3 above it; past 130 dB the complement's rounding drifts it."""
    params = _with(**_DIVERSITY_GEOMETRY)
    link = link_constants(params)
    per_weight = (link.z_a * link.z_b * link.snr_threshold * math.log(10.0)
                  / (2.0 * link.kappa * params.fading_mean_a * params.fading_mean_b))

    def offsets(evaluate, weight, order, snr_grid):
        """Relative offsets from the law of s*P_out's per-decade increments."""
        scaled = [10.0 ** (db / 10.0) * evaluate(
                      _with(params, quad_order=order, tx_power_dbm=params.noise_dbm + db))
                  for db in snr_grid]
        return [(b - a) / (per_weight * weight) - 1.0 for a, b in zip(scaled, scaled[1:])]

    assert 2.0 * per_weight == pytest.approx(20.860, abs=1e-3)
    assert max(map(abs, offsets(outage_improved, 2.0, 10, range(70, 131, 10)))) <= 5e-5
    for theta, increment in ((0.3, 79.560), (0.5, 41.719), (0.8, 188.388)):
        m = theta ** 2 + (1.0 - theta) ** 2
        weight = m / (1.0 - theta) ** 2 + m / theta ** 2
        assert per_weight * weight == pytest.approx(increment, abs=1e-3)
        coarse, fine = (offsets(lambda p: outage_dynamic_ps(p, theta), weight, order,
                                range(90, 131, 10)) for order in (10, 40))
        assert max(map(abs, fine[1:])) <= 1e-4
        assert all(abs(c) > abs(f) for c, f in zip(coarse, fine))


def test_exp_curve_integral_matches_adaptive_quadrature():
    rule = QuadratureRule.build(20)
    cases = [
        (0.002, 1.0, 1e-7, 0.2),
        (0.01, -5.0, 0.05, 0.5),
        (1.0, 0.0, 0.01, 3.0),
        (5e-4, 40.0, 1e-6, 0.05),
    ]
    for c_over, k_lin, lo, hi in cases:
        want, _ = integrate.quad(
            lambda y: math.exp(-(c_over / y + k_lin * y)),
            lo, hi, limit=400, epsabs=1e-15, epsrel=1e-13)
        got = _exp_curve_integral(rule, c_over, k_lin, lo, hi)
        assert got == pytest.approx(want, rel=2e-5), (c_over, k_lin)
    # Pure exponential case is closed-form exact.
    got = _exp_curve_integral(rule, 0.0, 3.0, 0.0, 2.0)
    assert got == pytest.approx((1.0 - math.exp(-6.0)) / 3.0, rel=1e-12)


def _exp_curve_integral_by_integrate_gc(rule, c_over, k_lin, lo, hi):
    """_exp_curve_integral as it was before its node loop was inlined: each
    panel's bowing is a closure over the exponent, summed by integrate_gc."""
    if not hi > lo:
        return 0.0
    if c_over == 0.0:
        if k_lin == 0.0:
            return hi - lo
        return math.exp(-k_lin * lo) * -math.expm1(-k_lin * (hi - lo)) / k_lin
    if lo <= 0.0:
        lo = min(hi, c_over / 45.0) * 2.0 ** -52

    def exponent(y):
        return c_over / y + k_lin * y

    floor = min(hi, max(lo, c_over / 45.0))
    edges = [hi]
    while edges[-1] > 16.0 * floor:
        edges.append(edges[-1] / 16.0)
    if edges[-1] > floor:
        edges.append(floor)
    if lo < floor:
        edges.append(lo)
    total = 0.0
    for a, b in zip(edges[1:], edges[:-1]):
        g_a = exponent(a)
        g_b = exponent(b)
        d_g = g_b - g_a
        if d_g == 0.0:
            total += (b - a) * math.exp(-g_a)
        elif abs(d_g) <= 30.0:
            total += math.exp(-g_a) * -math.expm1(-d_g) * (b - a) / d_g
        else:
            total += (math.exp(-g_a) - math.exp(-g_b)) * (b - a) / d_g
        slope = d_g / (b - a)

        def bowing(y, a=a, g_a=g_a, slope=slope):
            return math.exp(-exponent(y)) - math.exp(-(g_a + slope * (y - a)))

        total += integrate_gc(rule, a, b, bowing)
    return total


def _bits_or_error(evaluate):
    try:
        return evaluate().hex()
    except ArithmeticError as err:    # exp overflows for a steep negative k_lin
        return type(err)


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(deadline=None, max_examples=400)
@given(order=st.sampled_from([2, 5, 10, 20, 40]),
       c_over=st.one_of(st.just(0.0), _decades(-14.0, 6.0)),
       k_lin=st.one_of(st.just(0.0), _decades(-8.0, 4.0),
                       _decades(-8.0, 2.5).map(lambda k: -k)),
       lo=st.one_of(st.just(0.0), _decades(-12.0, 2.0)),
       span=_decades(-6.0, 4.0))
def test_exp_curve_integral_node_loop_is_integrate_gc(order, c_over, k_lin, lo, span):
    """The inlined node loop gives each panel's integrate_gc sum bit for bit,
    so the whole integral keeps its bits."""
    rule = QuadratureRule.build(order)
    hi = lo + span * max(lo, 1e-3)
    got = _bits_or_error(lambda: _exp_curve_integral(rule, c_over, k_lin, lo, hi))
    want = _bits_or_error(lambda: _exp_curve_integral_by_integrate_gc(
        rule, c_over, k_lin, lo, hi))
    event(f"{'error' if isinstance(want, type) else 'value'}")
    assert got == want


@settings(deadline=None, max_examples=25)
@given(
    tx_power=st.floats(min_value=5.0, max_value=35.0),
    dist_a=st.floats(min_value=2.0, max_value=18.0),
    dist_b=st.floats(min_value=2.0, max_value=18.0),
    rate=st.floats(min_value=0.5, max_value=6.0),
    beta=st.floats(min_value=0.1, max_value=0.4),
    theta=st.floats(min_value=0.25, max_value=0.75),
    order=st.integers(min_value=2, max_value=6),
)
def test_case_partition_sanity(tx_power, dist_a, dist_b, rate, beta, theta, order):
    """Each case mass and their total stay inside [0, 1]."""
    p = SystemParams(tx_power_dbm=tx_power, dist_a=dist_a, dist_b=dist_b,
                     rate_bps_hz=rate, time_split=beta, quad_order=order)
    c = derive_constants(p, theta)
    terms = [p_case1(p, c), p_case2(p, c), p_case3(p, c),
             p_case4(p, c, case4_geometry(c))]
    assert all(0.0 <= term <= 1.0 for term in terms)
    assert 0.0 <= sum(terms) <= 1.0 + 1e-12


FIGURE_RANGE_POINTS = (
    ("dynamic_ps", {"theta": 0.3}, {}),
    ("dynamic_ps", {"theta": 0.5}, {}),
    ("dynamic_ps", {"theta": 0.8}, {}),
    ("dynamic_ps", {"theta": 0.5}, {"rate_bps_hz": 1.0}),
    ("dynamic_ps", {"theta": 0.5}, {"rate_bps_hz": 3.0}),
    ("dynamic_ps", {"theta": 0.5}, {"tx_power_dbm": 10.0}),
    ("dynamic_ps", {"theta": 0.5}, {"tx_power_dbm": 15.0}),
    ("dynamic_ps", {"theta": 0.5}, {"tx_power_dbm": 20.0}),
    ("dynamic_ps", {"theta": 0.5}, {"tx_power_dbm": 25.0}),
    ("dynamic_ps", {"theta": 0.5}, {"dist_a": 4.0, "dist_b": 16.0, "rate_bps_hz": 3.0}),
    ("dynamic_ps", {"theta": 0.5}, {"dist_a": 8.0, "dist_b": 12.0, "rate_bps_hz": 3.0}),
    ("dynamic_ps", {"theta": 0.5}, {"dist_a": 12.0, "dist_b": 8.0, "rate_bps_hz": 3.0}),
    ("dynamic_ps", {"theta": 0.5}, {"dist_a": 16.0, "dist_b": 4.0, "rate_bps_hz": 3.0}),
    ("dynamic_ps", {"theta": 0.5}, {"time_split": 0.15, "tx_power_dbm": 20.0, "rate_bps_hz": 5.0}),
    ("dynamic_ps", {"theta": 0.5}, {"time_split": 0.25, "tx_power_dbm": 20.0, "rate_bps_hz": 5.0}),
    ("dynamic_ps", {"theta": 0.5}, {"time_split": 0.40, "tx_power_dbm": 20.0, "rate_bps_hz": 5.0}),
    ("improved", {}, {"tx_power_dbm": 12.0}),
    ("improved", {}, {"tx_power_dbm": 22.0}),
    ("improved", {}, {"tx_power_dbm": 28.0}),
    ("improved", {}, {}),
)


def test_analytic_matches_simulation_across_figure_ranges():
    """Fixed 20-point grid spanning the experiment axes, one million trials each."""
    for i, (scheme, args, overrides) in enumerate(FIGURE_RANGE_POINTS):
        p = _with(**overrides)
        if scheme == "dynamic_ps":
            analytic = outage_dynamic_ps(p, args["theta"])
        else:
            analytic = outage_improved(p)
        est = mc_outage(p, scheme, args, McConfig(trials=1_000_000, seed=101 + i,
                                                  shards=4))
        tol = max(3.0 * est.std_error, 5e-3)
        assert abs(analytic - est.probability) <= tol, (scheme, args, overrides)
