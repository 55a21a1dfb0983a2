"""Closed-form system outage probabilities for the adaptive relay schemes.

For the per-channel power-splitting scheme the success probability splits
into four disjoint cases by comparing each gain against its decode knee
(below the knee a link cannot ride on its own harvested energy alone).
Cases 1 to 3 reduce to one-dimensional integrals or a pure exponential; the
fourth is the probability mass of a region bounded by two hyperbola-like
broadcast-feasibility curves and two knee lines, handled by classifying the
curve intersections into scenarios first.

For the jointly optimized scheme the outage collapses, after a change of
variables to the combined uplink rate t2 = g_A/Z_A + g_B/Z_B and the product
term t3 = 1/(g_A*g_B), to a single quadrature over t3 with the t2 mass
inside a decode window.  The two variables are treated as independent,
which is the approximation the tolerance tests measure.  Each of their CDFs
is one formula, which _cdf_t2 and _cdf_t3 build once per set of link
constants; the Brent solver of the t3 quantile evaluates a copy of the t3
formula in its loop, which the tests hold to the formula bit for bit.

All remaining integrals use the same fixed-order Gauss-Chebyshev rule as
the published expressions, so quadrature order is a visible model knob, not
an implementation detail.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import numerics
from .model import (DerivedConstants, LinkConstants, SystemParams, _out_of_range,
                    check_theta, derive_constants, link_constants)
from .numerics import QuadratureRule, _brentq, integrate_gc


class Scenario(enum.Enum):
    """Layout of the case-four success region relative to its bounding box."""

    One = "empty"
    TwoLow = "single-curve, A-side boundary"
    TwoHigh = "single-curve, B-side boundary"
    ThreeLow = "two-curve, A-side crossing"


@dataclass(frozen=True)
class CaseFourGeometry:
    """Intersection points of the four region boundaries, plus the scenario.

    x coordinates live on the A-gain axis, y coordinates on the B-gain axis.
    x1/y1 are the knee lines; q1/q2, x_delta/y_delta, and x_plus/y_plus are
    where the two broadcast-feasibility curves meet the knees and each other.
    """

    x1: float
    y1: float
    q1: float
    q2: float
    x_delta: float
    y_delta: float
    x_plus: float
    y_plus: float
    scenario: Scenario


def _boundary_gain_a(consts: DerivedConstants, gain_b: float) -> float:
    """Smallest A gain that keeps the B-bound broadcast decodable, given g_B."""
    return consts.c_a / gain_b + consts.e_a - consts.d_ratio_a * gain_b


def _boundary_gain_b(consts: DerivedConstants, gain_a: float) -> float:
    """Smallest B gain that keeps the A-bound broadcast decodable, given g_A."""
    return consts.c_b / gain_a + consts.e_b - consts.d_ratio_b * gain_a


# Every curved edge is one side of the boundary g_x >= c/g_y + e - d_ratio*g_y:
# (c_a, e_a, d_ratio_a) bounds g_A over g_B, (c_b, e_b, d_ratio_b) the mirror.
# The helpers below take one side's constants.

def _knee_crossing(c: float, e: float, d_ratio: float, delta: float) -> float:
    """y gain above which the boundary sinks under the x knee g_x = delta.

    The same point bounds the curved edge of the case-four region on y.
    """
    gap = e - delta
    return (gap + math.sqrt(gap * gap + 4.0 * d_ratio * c)) / (2.0 * d_ratio)


def _rule(params: SystemParams) -> QuadratureRule:
    return QuadratureRule.build(params.quad_order)


def _clamp_unit(value: float) -> float:
    return float(min(max(value, 0.0), 1.0))


_PANEL_RATIO = 16.0
_DEAD_EXPONENT = 45.0


def _exp_curve_integral(rule: QuadratureRule, c_over: float, k_lin: float,
                        lo: float, hi: float) -> float:
    """Integral of exp(-(c_over/y + k_lin*y)) over (lo, hi).

    The quadrature rule's node layout cannot represent constants exactly, so
    feeding it the raw integrand costs a relative error near 1.7e-2 at order
    five regardless of smoothness.  Instead the exponent's chord on each
    panel is integrated in closed form and the rule sees only the bowing
    between curve and chord, which vanishes at panel edges.  The 1/y term
    also packs structure into layers narrower than any node spacing near the
    low end, so panels shrink geometrically toward it.  The caller, _strip,
    has ruled out an empty interval: hi > lo.
    """
    if c_over == 0.0:
        # Pure exponential: the chord is the exponent itself.
        if k_lin == 0.0:
            return hi - lo
        return math.exp(-k_lin * lo) \
            * -math.expm1(-k_lin * (hi - lo)) / k_lin
    if lo <= 0.0:
        # The integrand underflows long before the pole; nudge off it.
        lo = min(hi, c_over / _DEAD_EXPONENT) * 2.0 ** -52

    # Panel edges, descending from hi to lo.  Below `floor` the 1/y term
    # alone keeps the integrand under exp(-45), so one panel suffices there.
    floor = min(hi, max(lo, c_over / _DEAD_EXPONENT))
    edges = [hi]
    while edges[-1] > _PANEL_RATIO * floor:
        edges.append(edges[-1] / _PANEL_RATIO)
    if edges[-1] > floor:
        edges.append(floor)
    if lo < floor:
        edges.append(lo)

    exp = math.exp
    total = 0.0
    for a, b in zip(edges[1:], edges[:-1]):
        g_a = c_over / a + k_lin * a
        g_b = c_over / b + k_lin * b
        d_g = g_b - g_a
        if d_g == 0.0:
            total += (b - a) * exp(-g_a)
        elif abs(d_g) <= 30.0:
            total += exp(-g_a) * -math.expm1(-d_g) * (b - a) / d_g
        else:
            total += (exp(-g_a) - exp(-g_b)) * (b - a) / d_g
        slope = d_g / (b - a)
        # integrate_gc of the curve minus its chord: same operations, same order.
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        bowing = 0.0
        for nu, w in zip(rule.nodes, rule.weights):
            y = half * nu + mid
            bowing += w * (exp(-(c_over / y + k_lin * y))
                           - exp(-(g_a + slope * (y - a))))
        total += (b - a) * bowing
    return total


def _slab(lam_x: float, lam_y: float, x_from: float, lo: float, hi: float) -> float:
    """P(g_x >= x_from) * P(lo <= g_y < hi) for exponential gains."""
    return math.exp(-x_from / lam_x) * (math.exp(-lo / lam_y)
                                        - math.exp(-hi / lam_y))


def _strip(rule: QuadratureRule, lam_x: float, lam_y: float, c: float,
           e: float, d_ratio: float, lo: float, hi: float, x_cap: float) -> float:
    """Mass of {lo <= g_y < hi, c/g_y + e - d_ratio*g_y <= g_x < x_cap}.

    x_cap = inf leaves g_x unbounded above; the subtracted slab is then 0.0.
    """
    if not hi > lo:
        return 0.0
    part = math.exp(-e / lam_x) / lam_y * _exp_curve_integral(
        rule, c / lam_x, 1.0 / lam_y - d_ratio / lam_x, lo, hi)
    return part - _slab(lam_x, lam_y, x_cap, lo, hi)


def _one_knee(params: SystemParams, consts: DerivedConstants, lam_x: float,
              lam_y: float, c: float, e: float, d_ratio: float, delta_x: float,
              floor_y: float, delta_y: float) -> float:
    """Success mass of the strip where only the x gain clears its knee.

    g_y runs from uplink feasibility floor_y to its knee delta_y; g_x must
    clear its knee delta_x and the boundary.  Past the knee crossing the
    inner mass is a bare exponential, a slab in closed form; only the
    curved head goes through the quadrature rule.
    """
    if _uplinks_hopeless(consts) or not delta_y > floor_y:
        return 0.0
    kink = min(max(_knee_crossing(c, e, d_ratio, delta_x), floor_y), delta_y)
    head = _strip(_rule(params), lam_x, lam_y, c, e, d_ratio, floor_y, kink,
                  math.inf)
    return _clamp_unit(head + _slab(lam_x, lam_y, delta_x, kink, delta_y))


def p_case1(params: SystemParams, consts: DerivedConstants) -> float:
    """Success mass of the strip where only the A gain clears its knee."""
    return _one_knee(params, consts, params.fading_mean_a, params.fading_mean_b,
                     consts.c_a, consts.e_a, consts.d_ratio_a, consts.delta_a,
                     consts.knee_b, consts.delta_b)


def p_case2(params: SystemParams, consts: DerivedConstants) -> float:
    """Mirror of p_case1 with the roles of the two terminals swapped."""
    return _one_knee(params, consts, params.fading_mean_b, params.fading_mean_a,
                     consts.c_b, consts.e_b, consts.d_ratio_b, consts.delta_b,
                     consts.knee_a, consts.delta_a)


def p_case3(params: SystemParams, consts: DerivedConstants) -> float:
    """Success mass where both gains clear their knees; exact, no quadrature."""
    return math.exp(-consts.delta_a / params.fading_mean_a
                    - consts.delta_b / params.fading_mean_b)


def case4_geometry(consts: DerivedConstants) -> CaseFourGeometry:
    """Locate every boundary intersection and classify the region layout.

    The empty layout is ruled out first, then the B-side one, then the
    A-side ones; ties use the comparisons exactly as written.

    A B-side layout has one curve.  In u = g/Z units (the A knee is
    delta_A = x1/Z_A) the A downlink needs alpha*a*P >= varpi and the B
    downlink beta*b*P >= varpi, with harvest P = a + b - 2*varpi.  A B-side
    layout (y_delta < q1 = knee_B) means beta*(delta_A - varpi) > 1.  A
    crossing at a+ < delta_A would then need P+ > delta_A - varpi, from
    alpha*a+*P+ = varpi = alpha*delta_A*(delta_A - varpi), and also
    P+ < delta_A - varpi, because b+ = varpi/(beta*P+) < varpi.  So the
    crossing lies at or past x1.

    In exact arithmetic the empty layout never occurs: q2 = knee_A and
    x_delta < delta_A, and likewise on the B side.  The guard stays, as
    rounding reaches it where a knee lies within an ulp of its floor.
    """
    x1 = consts.delta_a
    y1 = consts.delta_b
    q1 = _boundary_gain_b(consts, x1)
    q2 = _boundary_gain_a(consts, y1)

    # Larger quadratic root of each curve meeting the opposite knee line.
    x_delta = _knee_crossing(consts.c_b, consts.e_b, consts.d_ratio_b, y1)
    y_delta = _knee_crossing(consts.c_a, consts.e_a, consts.d_ratio_a, x1)

    c_sum = consts.c_a + consts.c_b
    x_plus = (consts.c_b * consts.e_a
              + math.sqrt(consts.c_b ** 2 * consts.e_a ** 2
                          + 4.0 * consts.d_ratio_a * consts.c_b ** 2 * c_sum)) \
        / (2.0 * c_sum)
    if x_plus == 0.0:
        # c_b*e_a and c_b**2 underflow at extreme SNR, before varpi**2 does.
        raise ValueError("tx_power_dbm against noise_dbm leaves the floating-"
                         "point range: the case-four crossing x_plus underflows to 0")
    y_plus = _boundary_gain_b(consts, x_plus)

    points = (x1, y1, q1, q2, x_delta, y_delta, x_plus, y_plus)
    if any(math.isnan(v) for v in points):
        raise ArithmeticError(
            f"case-four geometry produced NaN intersection points: {points!r}")

    if max(q2, x_delta) >= x1 or max(q1, y_delta) >= y1:
        scenario = Scenario.One
    elif y_delta < q1:
        scenario = Scenario.TwoHigh
    elif x_plus <= max(q2, x_delta) or x_plus >= x1:
        scenario = Scenario.TwoLow
    else:
        scenario = Scenario.ThreeLow

    return CaseFourGeometry(x1=x1, y1=y1, q1=q1, q2=q2, x_delta=x_delta,
                            y_delta=y_delta, x_plus=x_plus, y_plus=y_plus,
                            scenario=scenario)


def p_case4(params: SystemParams, consts: DerivedConstants,
            geom: CaseFourGeometry) -> float:
    """Success mass of the box where neither gain clears its knee.

    A single-curve layout is one curve-bounded strip; the two-curve layout
    adds a strip per curve and the rectangle beyond the crossing point.
    """
    if geom.scenario is Scenario.One or _uplinks_hopeless(consts):
        return 0.0

    lam_a = params.fading_mean_a
    lam_b = params.fading_mean_b
    rule = _rule(params)
    # strip_over_b(lo, hi, a_cap) spans lo <= g_B < hi; strip_over_a mirrors it.
    strip_over_b = partial(_strip, rule, lam_a, lam_b, consts.c_a, consts.e_a,
                           consts.d_ratio_a)
    strip_over_a = partial(_strip, rule, lam_b, lam_a, consts.c_b, consts.e_b,
                           consts.d_ratio_b)

    if geom.scenario is Scenario.TwoLow:
        value = strip_over_b(geom.y_delta, geom.y1, geom.x1)
    elif geom.scenario is Scenario.TwoHigh:
        value = strip_over_a(geom.x_delta, geom.x1, geom.y1)
    else:
        corner = (math.exp(-geom.x_plus / lam_a) - math.exp(-geom.x1 / lam_a)) \
            * (math.exp(-geom.y_plus / lam_b) - math.exp(-geom.y1 / lam_b))
        value = corner \
            + strip_over_a(geom.x_delta, geom.x_plus, geom.y1) \
            + strip_over_b(geom.y_delta, geom.y_plus, geom.x1)

    return _clamp_unit(value)


# The inputs that set the scale of a gain against the noise floor.
_SCALE_FIELDS = ("tx_power_dbm", "noise_dbm", "fading_mean_a", "fading_mean_b")


def _uplinks_hopeless(consts: LinkConstants) -> bool:
    """True where P(both uplinks decode), a bound on every scheme's success, is
    below half an ulp of 1: outage rounds to 1.0 and the closed forms overflow,
    so p_case1, p_case2 and p_case4 return 0.0, within 2**-54 of their mass."""
    return math.exp(-consts.varpi * (consts.a_rate_a + consts.a_rate_b)) < 2.0 ** -54


def outage_dynamic_ps(params: SystemParams, theta: float) -> float:
    """System outage probability of the per-channel power-splitting scheme.

    The four case probabilities are quadrature approximations, so their sum
    can stray outside [0, 1] by the rule's truncation error; at order 2 the
    overshoot reaches the percent scale.  The result is clamped rather than
    rejected so convergence studies can evaluate deliberately coarse orders.
    ValueError, naming the inputs involved, where a case strip overflows.
    The form assumes the ideal rectenna: it ignores circuit_sensitivity_dbm,
    so at a gated point it gives the ungated outage.
    """
    check_theta(theta)
    link = link_constants(params)
    if _uplinks_hopeless(link):
        return 1.0
    consts = derive_constants(params, theta, link)
    try:
        success = (p_case1(params, consts)
                   + p_case2(params, consts)
                   + p_case3(params, consts)
                   + p_case4(params, consts, case4_geometry(consts)))
    except OverflowError as err:
        # A strip's factor exp(-e/lam_x) can underflow where its integral
        # overflows; a log-space strip product would remove the case.
        raise _out_of_range(params, "a case strip", _SCALE_FIELDS) from err
    return _clamp_unit(1.0 - success)


def cdf_t2(consts: LinkConstants, t: float) -> float:
    """CDF of the combined uplink variable g_A/Z_A + g_B/Z_B.

    Distinct-rate and equal-rate closed forms; the distinct branch is
    rearranged around expm1 because the printed form cancels catastrophically
    when the two rates approach each other.
    """
    if not t >= 0.0:
        raise ValueError("cdf_t2 requires t >= 0")
    if math.isinf(t):
        return 1.0
    return _cdf_t2(consts, math.exp, math.expm1)(t)


def _cdf_t2(consts: LinkConstants, exp, expm1):
    """The one t2 CDF formula, of a finite t >= 0 with math's exp and expm1,
    or of an array of them with np's (criterion 8's), a few ulps apart.  The
    rate branch, rate_b/gap and the expm1 rate are fixed once per consts."""
    rate_a = consts.a_rate_a
    rate_b = consts.a_rate_b
    neg_a = -rate_a
    neg_b = -rate_b
    gap = rate_a - rate_b
    if abs(gap) <= 1e-9 * max(rate_a, rate_b):
        def cdf(t):
            return 1.0 - exp(neg_b * t) - rate_b * t * exp(neg_a * t)
        return cdf
    ratio = rate_b / gap
    # exp(-rate_a*t) - exp(-rate_b*t), anchored on the smaller rate so the
    # expm1 argument is never positive.
    if rate_a <= rate_b:
        spread = -(rate_b - rate_a)

        def cdf(t):
            return 1.0 - exp(neg_b * t) + ratio * (-exp(neg_a * t) * expm1(spread * t))
    else:
        spread = -(rate_a - rate_b)

        def cdf(t):
            tail_b = exp(neg_b * t)
            return 1.0 - tail_b + ratio * (tail_b * expm1(spread * t))
    return cdf


def cdf_t3(consts: LinkConstants, t: float) -> float:
    """CDF of the reciprocal gain product 1/(g_A*g_B), the formula's limit
    at its ends: 1.0 at t = inf and where lam_a or lam_b is inf (a rate
    Z/fading_mean is 0), and for z = sqrt(4/(lam_a*lam_b*t)) 0.0 at z = inf
    and 1.0 at z = 0."""
    if not t > 0.0:
        raise ValueError("cdf_t3 requires t > 0")
    if math.isinf(t) or not min(consts.a_rate_a, consts.a_rate_b) > 0.0:
        return 1.0
    scaled = _t3_scale(consts) * t
    z = math.sqrt(4.0 / scaled) if scaled > 0.0 else math.inf
    if 0.0 < z < math.inf:
        return _cdf_t3(consts, math.sqrt, numerics.bessel_k1)(t)
    return 1.0 if z == 0.0 else 0.0


def _cdf_t3(consts: LinkConstants, sqrt, k1):
    """The one t3 CDF formula z*K1(z), z = sqrt(4/(lam_a*lam_b*t)), of a finite
    t > 0 with math.sqrt and numerics.bessel_k1, or of an array of them with
    np.sqrt and the scipy.special.k1 ufunc (criterion 8's), bit for bit; nan
    where z is inf or 0; ZeroDivisionError where a float lam_a*lam_b*t is 0."""
    lam_ab = _t3_scale(consts)

    def cdf(t):
        z = sqrt(4.0 / (lam_ab * t))
        return z * k1(z)
    return cdf


def _t3_scale(consts: LinkConstants) -> float:
    """lam_a*lam_b, the scale of t3 = 1/(g_A*g_B); ZeroDivisionError where a
    rate Z/fading_mean has underflowed to 0."""
    return (consts.z_a / consts.a_rate_a) * (consts.z_b / consts.a_rate_b)


def improved_integration_bound(consts: LinkConstants) -> float:
    """Largest t3 for which the decode window of t2 can be nonempty.

    The first candidate is the positive root of the window-collapse
    quadratic, written in the subtraction-free form; the second is where the
    broadcast bound blows up.  The root always lands at or below the second
    candidate, which is kept as a guard.
    """
    root = 2.0 / (math.sqrt(consts.b_o ** 2 + 4.0 * consts.a_o) + consts.b_o)
    return min(root, consts.y_big / consts.snr_threshold)


def _window_mass(consts: LinkConstants):
    """The probability that t2 falls inside its decode window, as a function
    of t3 = t > 0: the window runs from 2*varpi/(1 - t*gamma_th/Y) (inf from
    the pole on) to 1/(varpi*Z_A*Z_B*t) + varpi.  cdf_t2's formula and the
    window's coefficients are built once; an edge at inf has CDF 1.0, as in
    cdf_t2."""
    cdf = _cdf_t2(consts, math.exp, math.expm1)
    varpi = consts.varpi
    scale = varpi * consts.z_a * consts.z_b
    slope = consts.snr_threshold / consts.y_big
    two_varpi = 2.0 * varpi
    inf = math.inf

    def mass(t):
        upper = 1.0 / (scale * t) + varpi
        den = 1.0 - slope * t
        lower = two_varpi / den if den > 0.0 else inf
        return ((cdf(upper) if upper < inf else 1.0)
                - (cdf(lower) if lower < inf else 1.0))
    return mass


def _quantile_t3(consts: LinkConstants, ladder: list):
    """The quantile function of the reciprocal gain product: v to the t
    whose CDF equals v.

    ladder holds the (t, cdf) rungs t_max * 2**-k walked so far, from rung
    0 at the bound, whose CDF v_max exceeds v, and grows here as needed;
    each rung's CDF is the t3 formula from _cdf_t3.  The bracket is the
    first rung whose CDF is at most v and the rung above it.  Calls that
    share a ladder come in non-increasing v, as integrate_gc's nodes do:
    every rung above the last then has a CDF above v, so the walk resumes
    at the last rung, and each rung is evaluated once.  Halving is exact,
    so a shared ladder gives every v the bracket, and the Brent solver the
    iterates, of a fresh one.  The solver, numerics._brentq, takes both
    bracket ends' CDFs from the ladder and evaluates the same formula on
    lam_a*lam_b and numerics.bessel_k1, read here, in its own loop.  A rung
    lies within a halving of a t whose CDF exceeds v > 0, so z < 746 * 2**0.5
    there, and outage_improved has checked z > 0 at t_max: the formula is
    finite on the bracket.
    """
    lam_ab = _t3_scale(consts)
    k1 = numerics.bessel_k1
    cdf = _cdf_t3(consts, math.sqrt, k1)

    def quantile(v: float) -> float:
        k = max(len(ladder) - 1, 1)
        while True:
            if k == len(ladder):
                t = 0.5 * ladder[-1][0]
                ladder.append((t, cdf(t)))
            lo, cdf_lo = ladder[k]
            if not cdf_lo > v:
                break
            k += 1
        hi, cdf_hi = ladder[k - 1]
        return _brentq(lam_ab, k1, v, lo, hi, cdf_lo, cdf_hi)
    return quantile


def outage_improved(params: SystemParams) -> float:
    """System outage probability of the jointly optimized scheme.

    The success mass is the decode-window probability of the combined uplink
    variable integrated against the reciprocal-product density up to the
    window-collapse bound.  The quadrature runs on the probability scale of
    that density, not on the t3 axis: at realistic link budgets the density
    mass and the window collapse live many orders of magnitude apart, so a
    fixed rule placed directly in t3 samples only flat regions.  On the
    probability scale the rule integrates the deviation from full window
    mass, which keeps the exactly known tail term out of the quadrature sum
    and lets the default order resolve every regime the sweeps visit.
    Each node inverts the CDF on one halving ladder from t_max shared by
    the nodes: integrate_gc visits them in descending v, so each node
    resumes the walk at the previous node's bracket (_quantile_t3).  The
    quantile function and the decode-window mass are built once per call.

    The scheme picks theta per realization, so only the theta-free link
    constants enter.  ValueError, naming the inputs involved, where extreme
    inputs push the window-collapse quadratic or lam_a*lam_b*t_max out of
    the floating-point range.  Like outage_dynamic_ps, it assumes the ideal
    rectenna and ignores circuit_sensitivity_dbm.
    """
    consts = link_constants(params)
    if _uplinks_hopeless(consts):
        return 1.0
    # Checked past the guard: b_o**2 and a_o also overflow far below the
    # noise, where the outage is 1.0.
    if not consts.b_o * consts.b_o + 4.0 * consts.a_o < math.inf:
        raise _out_of_range(params, "b_o**2 + 4*a_o of the window-collapse bound",
                            ("tx_power_dbm", "noise_dbm", "rate_bps_hz"))
    t_max = improved_integration_bound(consts)
    if not math.isfinite(t_max):
        return 0.0
    if not (min(consts.a_rate_a, consts.a_rate_b) > 0.0
            and _t3_scale(consts) * t_max < math.inf):
        # Else z is 0 at t_max, where the t3 formula reads 0*inf.
        raise _out_of_range(params, "lam_a*lam_b*t of the t3 CDF", _SCALE_FIELDS)
    v_max = cdf_t3(consts, t_max)
    rule = _rule(params)
    quantile = _quantile_t3(consts, [(t_max, v_max)])
    window = _window_mass(consts)

    def miss_at_quantile(v: float) -> float:
        return 1.0 - window(quantile(v))

    missed = integrate_gc(rule, 0.0, v_max, miss_at_quantile)
    return _clamp_unit((1.0 - v_max) + missed)


def outage_capacity(params: SystemParams, p_out: float) -> float:
    """Throughput discounted by outage over the effective transmission time."""
    if not 0.0 <= p_out <= 1.0:
        raise ValueError("p_out must lie in [0, 1]")
    beta = params.time_split
    effective_time = min(beta * params.block_duration,
                         (1.0 - 2.0 * beta) * params.block_duration)
    return (1.0 - p_out) * params.rate_bps_hz * effective_time


def energy_outage(params: SystemParams) -> float:
    """Probability that neither link delivers usable harvested power.

    A link is dead when its harvested RF power under the adaptive split is
    zero (gain at or below the knee) or below the rectenna sensitivity.  A
    missing sensitivity is the limit as it goes to 0, equal bit for bit to
    -300 dBm at ordinary powers; mc_energy_outage refuses it, as its test
    power >= sensitivity would count a zero harvest as alive.
    """
    consts = link_constants(params)
    level = consts.varpi + consts.harvest_floor
    miss_a = -math.expm1(-consts.a_rate_a * level)
    miss_b = -math.expm1(-consts.a_rate_b * level)
    return miss_a * miss_b


def diversity_slope(params: SystemParams, evaluate, snr_grid) -> float:
    """Least-squares slope of -log10(outage) against log10(transmit SNR).

    snr_grid lists transmit-SNR points in dB, ascending, at least three of
    them; each point rescales the transmit power against the fixed noise
    floor.  evaluate maps params to an outage probability, for example
    outage_improved or lambda p: outage_dynamic_ps(p, 0.5).
    """
    grid = [float(v) for v in snr_grid]
    if len(grid) < 3:
        raise ValueError("snr_grid needs at least 3 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("snr_grid must be strictly ascending")

    decades = []
    neg_log_out = []
    for snr_db in grid:
        point = replace(params, tx_power_dbm=params.noise_dbm + snr_db)
        p_out = evaluate(point)
        if p_out <= 0.0:
            raise ValueError(f"outage is zero at {snr_db} dB; slope undefined")
        decades.append(snr_db / 10.0)
        neg_log_out.append(-math.log10(p_out))
    slope, _ = np.polyfit(decades, neg_log_out, 1)
    return float(slope)
