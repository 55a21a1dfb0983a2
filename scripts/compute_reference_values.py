"""Independent reference values for the test suite.

Recomputes every frozen literal in tests/ from first principles, without
importing the package: derived constants through mpmath at 50 digits,
region geometry through root-finding on the boundary equations, the case
masses through adaptive integration of the exact integrands, the dynamic
PS outage through a 1-D mpmath integral of its closed-form success
threshold, and the jointly optimized scheme through a 2-D integration of
the exact four-link success event.  Run and diff the output when a constant changes:

    python3 scripts/compute_reference_values.py
"""

import math

import mpmath as mp
from scipy import integrate
from scipy.optimize import brentq

mp.mp.dps = 50

# Reference operating point (linear conversions done below).
TX_POWER_DBM = 30.0
NOISE_DBM = -90.0
EH_EFFICIENCY = mp.mpf(6) / 10
TIME_SPLIT = mp.mpf(1) / 3
PATH_LOSS_EXP = mp.mpf(27) / 10
DIST_A = mp.mpf(5)
DIST_B = mp.mpf(15)
REF_DIST = mp.mpf(1)
CARRIER_HZ = mp.mpf(915e6)
GAIN_DBI = mp.mpf(8)
FADING_MEAN_A = mp.mpf(1)
FADING_MEAN_B = mp.mpf(1)
RATE = mp.mpf(2)
SPEED_OF_LIGHT = mp.mpf(299792458)


def dbm_to_watts(v):
    return mp.mpf(10) ** ((mp.mpf(v) - 30) / 10)


def dbi_to_linear(v):
    return mp.mpf(10) ** (mp.mpf(v) / 10)


def constants(theta, tx_power_dbm=TX_POWER_DBM, rate=RATE):
    """Every derived symbol, as mpmath numbers."""
    wavelength = SPEED_OF_LIGHT / CARRIER_HZ
    common = wavelength ** 2 * REF_DIST ** (PATH_LOSS_EXP - 2) / (4 * mp.pi) ** 2
    lam_big = dbi_to_linear(GAIN_DBI) ** 2 * common
    z_a = DIST_A ** PATH_LOSS_EXP / lam_big
    z_b = DIST_B ** PATH_LOSS_EXP / lam_big

    p_w = dbm_to_watts(tx_power_dbm)
    n_w = dbm_to_watts(NOISE_DBM)
    gamma_th = mp.mpf(2) ** rate - 1
    varpi = gamma_th * n_w / p_w

    hg = EH_EFFICIENCY * TIME_SPLIT * p_w / ((1 - 2 * TIME_SPLIT) * n_w)
    mix = theta ** 2 + (1 - theta) ** 2
    x_a = hg * (1 - theta) ** 2 / (z_a * mix)
    x_b = hg * theta ** 2 / (z_b * mix)
    y_big = hg / (z_a * z_b)

    return {
        "lambda_big": lam_big, "z_a": z_a, "z_b": z_b,
        "gamma_th": gamma_th, "varpi": varpi, "hg": hg,
        "x_factor_a": x_a, "x_factor_b": x_b, "y_big": y_big,
        "c_a": gamma_th * z_a / x_b, "c_b": gamma_th * z_b / x_a,
        "d_ratio_a": z_a / z_b, "d_ratio_b": z_b / z_a,
        "e_a": 2 * varpi * z_a, "e_b": 2 * varpi * z_b,
        "delta_a": (varpi + mp.sqrt(varpi ** 2 + 4 * gamma_th / (z_a * x_a))) * z_a / 2,
        "delta_b": (varpi + mp.sqrt(varpi ** 2 + 4 * gamma_th / (z_b * x_b))) * z_b / 2,
        "a_rate_a": z_a / FADING_MEAN_A, "a_rate_b": z_b / FADING_MEAN_B,
        "a_o": varpi ** 2 * z_a * z_b * gamma_th / y_big,
        "b_o": varpi ** 2 * z_a * z_b + gamma_th / y_big,
        "p_w": p_w, "n_w": n_w,
    }


def show(label, value):
    print(f"{label} = {float(value)!r}")


def section(title):
    print(f"\n== {title} ==")


section("derived constants, reference point, theta = 0.5")
C = constants(mp.mpf(1) / 2)
for key in ("lambda_big", "z_a", "z_b", "gamma_th", "varpi", "x_factor_a",
            "x_factor_b", "y_big", "c_a", "c_b", "e_a", "e_b", "delta_a",
            "delta_b", "a_o", "b_o"):
    show(key, C[key])

section("modified Bessel K1 spot values (mpmath)")
for x in (0.01, 0.5, 1.0, 10.0, 100.0):
    show(f"k1({x})", mp.besselk(1, mp.mpf(x)))

section("uplink-sum and product-reciprocal CDF spot values, theta = 0.5")


def cdf_t2(c, t):
    a, b = c["a_rate_a"], c["a_rate_b"]
    t = mp.mpf(t)
    if a == b:
        return 1 - mp.e ** (-b * t) - b * t * mp.e ** (-a * t)
    return 1 - mp.e ** (-b * t) + b / (a - b) * (mp.e ** (-a * t) - mp.e ** (-b * t))


def cdf_t3(t):
    z = mp.sqrt(4 / (FADING_MEAN_A * FADING_MEAN_B * mp.mpf(t)))
    return z * mp.besselk(1, z)


for t in (1e-5, 1e-4, 1e-3):
    show(f"cdf_t2({t})", cdf_t2(C, t))
for t in (0.1, 1.0, 10.0, 1000.0):
    show(f"cdf_t3({t})", cdf_t3(t))

section("region geometry by root-finding, theta = 0.5")
cf = {k: float(v) for k, v in C.items()}


def boundary_a(y):
    return cf["c_a"] / y + cf["e_a"] - cf["d_ratio_a"] * y


def boundary_b(x):
    return cf["c_b"] / x + cf["e_b"] - cf["d_ratio_b"] * x


x1 = cf["delta_a"]
y1 = cf["delta_b"]
show("q1 = boundary_b(x1)", boundary_b(x1))
show("q2 = boundary_a(y1)", boundary_a(y1))
x_delta = brentq(lambda x: boundary_b(x) - y1, 1e-12, x1, xtol=1e-300, rtol=1e-15)
y_delta = brentq(lambda y: boundary_a(y) - x1, 1e-12, y1, xtol=1e-300, rtol=1e-15)
show("x_delta", x_delta)
show("y_delta", y_delta)
x_plus = brentq(lambda x: boundary_a(boundary_b(x)) - x, x_delta, x1,
                xtol=1e-300, rtol=1e-15)
show("x_plus", x_plus)
show("y_plus = boundary_b(x_plus)", boundary_b(x_plus))

section("per-channel scheme case masses, adaptive integration, theta = 0.5")


def case1_integrand(y):
    return math.exp(-max(boundary_a(y), x1) - y)


lo_b = cf["varpi"] * cf["z_b"]
ref1, err1 = integrate.quad(case1_integrand, lo_b, y1, limit=400,
                            epsabs=1e-15, epsrel=1e-13, points=[y_delta])
show("case1", ref1)


def case2_integrand(x):
    return math.exp(-max(boundary_b(x), y1) - x)


lo_a = cf["varpi"] * cf["z_a"]
ref2, err2 = integrate.quad(case2_integrand, lo_a, x1, limit=400,
                            epsabs=1e-17, epsrel=1e-13, points=[x_delta])
show("case2", ref2)
show("case3", mp.e ** (-C["delta_a"] - C["delta_b"]))


def case4_integrand(y):
    shift = cf["e_b"] - y
    inverse_b = (shift + math.sqrt(shift * shift
                                   + 4.0 * cf["d_ratio_b"] * cf["c_b"])) \
        / (2.0 * cf["d_ratio_b"])
    x_lo = max(boundary_a(y), inverse_b, lo_a)
    if x_lo >= x1:
        return 0.0
    return math.exp(-y) * (math.exp(-x_lo) - math.exp(-x1))


ref4, err4 = integrate.quad(case4_integrand, lo_b, y1, limit=800,
                            epsabs=1e-16, epsrel=1e-13,
                            points=[y_delta, boundary_b(x_plus)])
show("case4", ref4)
success = ref1 + ref2 + float(mp.e ** (-C["delta_a"] - C["delta_b"])) + ref4
show("outage_dynamic_ps", 1.0 - success)

section("dynamic PS scheme, exact success event, 1-D integration over g_B")


def dynamic_outage_exact(theta):
    """P(g_B < knee_B) plus the integral over g_B >= knee_B of
    P(g_A < g*(g_B)) f_B(g_B), where g*(g_B), the least g_A at which all
    four links decode, is the largest of knee_A and the roots of the two
    downlink conditions X_x * g_x * pool = gamma_th."""
    c = constants(mp.mpf(theta))
    z_a, z_b, gamma = c["z_a"], c["z_b"], c["gamma_th"]
    x_a, x_b = c["x_factor_a"], c["x_factor_b"]
    knee_a, knee_b = c["varpi"] * z_a, c["varpi"] * z_b

    def positive_root(qa, qb):
        """The positive root of qa*x**2 + qb*x - gamma, without cancellation."""
        disc = mp.sqrt(qb ** 2 + 4 * qa * gamma)
        return 2 * gamma / (disc + qb) if qb >= 0 else (disc - qb) / (2 * qa)

    def threshold_a(g_b):
        h_b = (g_b - knee_b) / z_b
        linear = knee_a + z_a * (gamma / (x_b * g_b) - h_b)
        return max(knee_a, linear, positive_root(x_a / z_a, x_a * (h_b - knee_a / z_a)))

    # g* kinks where the weaker downlink changes sides, on x_a*g_a = x_b*g_b.
    slope = x_b / x_a
    kink = positive_root(x_b * (slope / z_a + 1 / z_b),
                         -x_b * (knee_a / z_a + knee_b / z_b))

    def integrand(g_b):
        return (-mp.expm1(-threshold_a(g_b) / FADING_MEAN_A)
                * mp.exp(-g_b / FADING_MEAN_B) / FADING_MEAN_B)

    return (-mp.expm1(-knee_b / FADING_MEAN_B)
            + mp.quad(integrand, [knee_b, kink, mp.inf]))


for theta in (0.3, 0.5, 0.8):
    show(f"dynamic_outage_exact(theta={theta!r})", dynamic_outage_exact(theta))

section("jointly optimized scheme, exact success event, 2-D integration")


def improved_outage_exact(tx_power_dbm):
    c = {k: float(v) for k, v in constants(mp.mpf(1) / 2, tx_power_dbm).items()}
    gamma = c["gamma_th"]
    knee_a = c["varpi"] * c["z_a"]
    knee_b = c["varpi"] * c["z_b"]

    def downlink(g_a, g_b):
        # Both broadcast SNRs under the equalizing weight collapse to this.
        harvest = (g_a - knee_a) / c["z_a"] + (g_b - knee_b) / c["z_b"]
        return c["hg"] * g_a * g_b * harvest / (g_a * c["z_b"] + g_b * c["z_a"])

    def b_threshold(g_a):
        lo = knee_b * (1.0 + 1e-14)
        if downlink(g_a, lo) >= gamma:
            return knee_b
        hi = max(2.0 * knee_b, float(FADING_MEAN_B))
        while downlink(g_a, hi) < gamma:
            hi *= 2.0
            if hi > 1e12:
                return math.inf
        return brentq(lambda g: downlink(g_a, g) - gamma, lo, hi,
                      xtol=1e-300, rtol=1e-15)

    mean_a = float(FADING_MEAN_A)
    mean_b = float(FADING_MEAN_B)

    def outer(g_a):
        t = b_threshold(g_a)
        if math.isinf(t):
            return 0.0
        return math.exp(-g_a / mean_a) / mean_a * math.exp(-max(t, knee_b) / mean_b)

    cut = knee_a + 45.0 * mean_a
    succ, err = integrate.quad(outer, knee_a, cut, limit=800,
                               epsabs=1e-13, epsrel=1e-12)
    return 1.0 - succ


for dbm in (10.0, 20.0, 30.0):
    show(f"improved_outage_exact(P={dbm:g} dBm)", improved_outage_exact(dbm))

section("jointly optimized scheme, window bound and tail, theta-free")
b_o = C["b_o"]
a_o = C["a_o"]
t_max = 2 / (mp.sqrt(b_o ** 2 + 4 * a_o) + b_o)
show("t_max", t_max)
show("cdf_t3(t_max)", cdf_t3(t_max))

section("energy outage closed form, sensitivity -20 dBm")
level = C["varpi"] + dbm_to_watts(-20) / C["p_w"]
miss_a = 1 - mp.e ** (-C["a_rate_a"] * level)
miss_b = 1 - mp.e ** (-C["a_rate_b"] * level)
show("energy_outage", miss_a * miss_b)

section("quadrature cross-checks of the adaptive results")
show("case1 quad error bound", err1)
show("case2 quad error bound", err2)
show("case4 quad error bound", err4)
