"""Core model: parameter handling, derived constants, the physics kernel."""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ehrelay import outage_dynamic_ps, outage_improved
from ehrelay.model import (
    DerivedConstants,
    KernelWorkspace,
    SystemParams,
    broadcast_factors,
    count_below,
    critical_ratio,
    dbi_to_linear,
    dbm_to_watts,
    derive_constants,
    downlink_gain,
    harvest_pool,
    link_constants,
    normalized_gains,
)

# Frozen by scripts/compute_reference_values.py (mpmath, 50 digits),
# reference operating point with theta = 0.5.
REF_LAMBDA_BIG = 0.027063221351946276
REF_Z_A = 2849.964970428562
REF_Z_B = 55343.536791276674
REF_VARPI = 3e-12
REF_X_FACTOR_A = 105264451.70829158
REF_X_FACTOR_B = 5420687.173127801
REF_Y_BIG = 3804.0377544097796
REF_C_A = 0.0015772714119476287
REF_C_B = 0.0015772714119476287
REF_E_A = 1.7099789822571373e-08
REF_E_B = 3.3206122074766005e-07
REF_DELTA_A = 0.009012384833197147
REF_DELTA_B = 0.1750117130450859
REF_A_O = 1.1195032981262697e-18
REF_B_O = 0.0007886357059752339

DEFAULTS = SystemParams()
CONSTS = derive_constants(DEFAULTS, 0.5)
DYNAMIC = {"theta": 0.5}


def _loaded(g_a, g_b, params=DEFAULTS):
    """(consts, ws): the link constants of params and a workspace that
    normalized_gains has filled from gains g_a and g_b."""
    g_a, g_b = np.array(g_a, float, ndmin=1), np.array(g_b, float, ndmin=1)
    consts, ws = link_constants(params), KernelWorkspace(g_a.shape)
    normalized_gains(consts, g_a, g_b, ws)
    return consts, ws


def _ratio(g_a, g_b, rho=None, theta=0.5, params=DEFAULTS):
    """r* at power split rho (None: the knee split) and broadcast weight
    theta (None: the equalizing one), on gains g_a and g_b."""
    consts, ws = _loaded(g_a, g_b, params)
    return critical_ratio(rho, downlink_gain(consts, theta, ws), ws).copy()


def _pool(g_a, g_b, rho=None, params=DEFAULTS):
    """harvest_pool's pool at split rho and the operating point's eps and
    rectenna floor, with the workspace it leaves."""
    consts, ws = _loaded(g_a, g_b, params)
    return harvest_pool(rho, consts.varpi, consts.harvest_floor, ws).copy(), ws


# Rich enough a B gain that neither downlink nor the B uplink limits r* at
# the defaults: r* is then the A uplink's term.
RICH_B = 1e7


def test_unit_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
    assert dbi_to_linear(0.0) == 1.0
    assert dbi_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)


def test_threshold_and_wavelength():
    assert DEFAULTS.snr_threshold == pytest.approx(3.0, rel=1e-15)
    # At d0 = 1 m the path factor is the free-space one, G_i G_R (lambda/4pi)^2,
    # with lambda = c/f.
    free_space = dbi_to_linear(8.0) ** 2 * (299792458.0 / 915e6 / (4.0 * math.pi)) ** 2
    assert DEFAULTS.dist_a ** DEFAULTS.path_loss_exp / CONSTS.z_a == \
        pytest.approx(free_space, rel=1e-14)
    assert CONSTS.harvest_floor == 0.0
    # P = 1 W at 30 dBm: pi = P_th / P is the sensitivity in watts.
    with_floor = link_constants(dataclasses.replace(DEFAULTS, circuit_sensitivity_dbm=-20.0))
    assert with_floor.harvest_floor == pytest.approx(1e-5, rel=1e-12)
    # P / sigma^2 is 1e12 at the reference point.
    assert CONSTS.kappa == pytest.approx(CONSTS.harvest_gain / 1e12, rel=1e-12)
    assert CONSTS.kappa == pytest.approx(0.6, rel=1e-12)


def test_normalized_threshold_is_three_picounits():
    # gamma_th * sigma^2_W / P_W with sigma^2_W = 1e-12 and P_W = 1.
    assert CONSTS.varpi == pytest.approx(REF_VARPI, rel=1e-12)


def test_derived_constants_reference_point():
    x_factor_a, x_factor_b = broadcast_factors(CONSTS, 0.5)
    got = {
        "lambda_big_a": DEFAULTS.dist_a ** DEFAULTS.path_loss_exp / CONSTS.z_a,
        "lambda_big_b": DEFAULTS.dist_b ** DEFAULTS.path_loss_exp / CONSTS.z_b,
        "z_a": CONSTS.z_a,
        "z_b": CONSTS.z_b,
        "x_factor_a": x_factor_a,
        "x_factor_b": x_factor_b,
        "y_big": CONSTS.y_big,
        "c_a": CONSTS.c_a,
        "c_b": CONSTS.c_b,
        "e_a": CONSTS.e_a,
        "e_b": CONSTS.e_b,
        "delta_a": CONSTS.delta_a,
        "delta_b": CONSTS.delta_b,
        "a_o": CONSTS.a_o,
        "b_o": CONSTS.b_o,
    }
    want = {
        "lambda_big_a": REF_LAMBDA_BIG,
        "lambda_big_b": REF_LAMBDA_BIG,
        "z_a": REF_Z_A,
        "z_b": REF_Z_B,
        "x_factor_a": REF_X_FACTOR_A,
        "x_factor_b": REF_X_FACTOR_B,
        "y_big": REF_Y_BIG,
        "c_a": REF_C_A,
        "c_b": REF_C_B,
        "e_a": REF_E_A,
        "e_b": REF_E_B,
        "delta_a": REF_DELTA_A,
        "delta_b": REF_DELTA_B,
        "a_o": REF_A_O,
        "b_o": REF_B_O,
    }
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-12), name
    assert CONSTS.a_rate_a == pytest.approx(REF_Z_A, rel=1e-12)
    assert CONSTS.a_rate_b == pytest.approx(REF_Z_B, rel=1e-12)


def test_symmetric_geometry_collapses_link_constants():
    sym = dataclasses.replace(DEFAULTS, dist_a=10.0, dist_b=10.0)
    c = derive_constants(sym, 0.5)
    assert c.z_a == pytest.approx(c.z_b, rel=1e-15)
    assert c.delta_a == pytest.approx(c.delta_b, rel=1e-15)
    x_a, x_b = broadcast_factors(c, 0.5)
    assert x_a == pytest.approx(x_b, rel=1e-15)


def test_half_theta_mix_identity():
    # At theta = 0.5 both broadcast factors reduce to hg / (2 z_i).
    x_a, x_b = broadcast_factors(CONSTS, 0.5)
    assert x_a * CONSTS.z_a == pytest.approx(x_b * CONSTS.z_b, rel=1e-12)
    assert x_a * CONSTS.z_a == pytest.approx(
        CONSTS.y_big * CONSTS.z_a * CONSTS.z_b / 2.0, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(time_split=0.5)
    with pytest.raises(ValueError):
        SystemParams(time_split=0.0)
    with pytest.raises(ValueError):
        SystemParams(eh_efficiency=0.0)
    with pytest.raises(ValueError):
        SystemParams(eh_efficiency=1.2)
    with pytest.raises(ValueError):
        SystemParams(dist_a=-1.0)
    with pytest.raises(ValueError):
        SystemParams(rate_bps_hz=0.0)
    with pytest.raises(ValueError):
        SystemParams(quad_order=0)
    with pytest.raises(ValueError):
        SystemParams(quad_order=2.5)


def test_quad_order_takes_integral_values_and_stores_an_int():
    for value in (12, 12.0, np.int64(12)):
        order = SystemParams(quad_order=value).quad_order
        assert order == 12 and type(order) is int
    assert SystemParams(quad_order=12.0) == SystemParams(quad_order=12)
    # An int is never converted to float, so a huge one raises no OverflowError.
    assert SystemParams(quad_order=10 ** 400).quad_order == 10 ** 400


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, 0, 0.0, -3, "12", None])
def test_quad_order_rejects_other_values_naming_them(value):
    with pytest.raises(ValueError) as exc:
        SystemParams(quad_order=value)
    assert str(exc.value) == f"quad_order must be an integer >= 1, got {value!r}"


@pytest.mark.parametrize("field,value", [
    ("dist_a", "5"),
    ("tx_power_dbm", True),
    ("noise_dbm", False),
    ("circuit_sensitivity_dbm", True),
    ("rate_bps_hz", np.bool_(True)),
    ("gain_relay_dbi", None),
    ("fading_mean_a", [1.0]),
    ("quad_order", True),
    ("quad_order", np.bool_(True)),
])
def test_params_reject_bools_and_non_real_values_naming_them(field, value):
    with pytest.raises(ValueError, match=field):
        SystemParams(**{field: value})


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SystemParams)
                                   if f.name != "quad_order"])
def test_params_reject_integers_past_the_float_range_naming_them(field):
    with pytest.raises(ValueError, match=f"^{field} is out of range"):
        SystemParams(**{field: 10 ** 400})


def test_params_take_numpy_scalars_and_a_missing_sensitivity():
    point = SystemParams(tx_power_dbm=np.float64(20.0), dist_a=np.int64(6),
                         eh_efficiency=np.float32(0.5), quad_order=np.int64(7),
                         circuit_sensitivity_dbm=None)
    assert point == SystemParams(tx_power_dbm=20.0, dist_a=6.0,
                                 eh_efficiency=0.5, quad_order=7)


@pytest.mark.parametrize("cast", [np.float32, np.float64, int])
def test_params_store_real_fields_as_floats(cast):
    # A float32 field would set the closed forms' precision, and the
    # improved form's root finder would then fail to converge.
    given = {"dist_a": cast(5), "tx_power_dbm": cast(30), "rate_bps_hz": cast(2),
             "circuit_sensitivity_dbm": cast(-20)}
    point = SystemParams(**given)
    plain = SystemParams(**{name: float(value) for name, value in given.items()})
    assert all(type(value) is float for name, value in vars(point).items()
               if name != "quad_order")
    assert outage_dynamic_ps(point, 0.5) == outage_dynamic_ps(plain, 0.5)
    assert outage_improved(point) == outage_improved(plain)


@pytest.mark.parametrize("field,value", [
    ("tx_power_dbm", math.nan),
    ("tx_power_dbm", math.inf),
    ("noise_dbm", -math.inf),
    ("gain_relay_dbi", math.nan),
    ("dist_a", math.inf),
    ("fading_mean_b", math.inf),
    ("rate_bps_hz", math.inf),
    ("circuit_sensitivity_dbm", math.nan),
    # Finite dB values whose linear value rounds to 0 or overflows.
    ("tx_power_dbm", -3400.0),
    ("noise_dbm", 4000.0),
    ("gain_a_dbi", -4000.0),
    ("circuit_sensitivity_dbm", -3400.0),
    # Finite rates whose SNR threshold 2**rate - 1 overflows or rounds to 0.
    ("rate_bps_hz", 1100.0),
    ("rate_bps_hz", 2000.0),
    ("rate_bps_hz", 1e-17),
])
def test_params_reject_non_finite_and_unrepresentable_values(field, value):
    with pytest.raises(ValueError, match=field):
        SystemParams(**{field: value})


@pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
def test_link_constants_are_the_theta_free_part(theta):
    link = link_constants(DEFAULTS)
    full = derive_constants(DEFAULTS, theta)
    for f in dataclasses.fields(link):
        assert getattr(full, f.name) == getattr(link, f.name), f.name
    assert link.knee_a == link.varpi * link.z_a
    assert link.knee_b == link.varpi * link.z_b
    assert link.y_big == link.harvest_gain / (link.z_a * link.z_b)


# The functions that build the constants; a field read only there is unused.
_CONSTANTS_BUILDERS = {"link_constants", "derive_constants"}


def _constants_reads(node, receivers=frozenset()) -> set:
    """Attribute names read under node, less the reads inside the constants
    builders and the reads from a SystemParams, whose properties share some
    field names: a parameter annotated SystemParams, or self in its methods."""
    if isinstance(node, ast.FunctionDef):
        if node.name in _CONSTANTS_BUILDERS:
            return set()
        arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        receivers = receivers | {a.arg for a in arguments
                                 if isinstance(a.annotation, ast.Name)
                                 and a.annotation.id == "SystemParams"}
    elif isinstance(node, ast.ClassDef) and node.name == "SystemParams":
        receivers = receivers | {"self"}
    read = set()
    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in receivers)):
        read.add(node.attr)
    for child in ast.iter_child_nodes(node):
        read |= _constants_reads(child, receivers)
    return read


def test_every_constants_field_is_read():
    """Each DerivedConstants field is read as an attribute somewhere in the
    package outside the functions that build it, and not from a
    SystemParams."""
    read = set()
    for path in (pathlib.Path(__file__).parents[1] / "src" / "ehrelay").glob("*.py"):
        read |= _constants_reads(ast.parse(path.read_text(encoding="utf-8")))
    fields = [f.name for f in dataclasses.fields(DerivedConstants)]
    assert len(fields) == 22
    assert [name for name in fields if name not in read] == []


def test_derive_constants_theta_domain():
    with pytest.raises(ValueError):
        derive_constants(DEFAULTS, 0.0)
    with pytest.raises(ValueError):
        derive_constants(DEFAULTS, 1.0)


def test_knee_gains_normalize_onto_eps():
    """The kernel's one convention: it compares each normalized gain
    u = g/Z with eps, and equality decodes.  At the default point a gain on
    its knee, g = knee = eps*Z, normalizes onto eps exactly."""
    _, ws = _loaded(CONSTS.knee_a, CONSTS.knee_b)
    assert ws.u_a[0] == ws.u_b[0] == CONSTS.varpi
    assert ws.total[0] == 2.0 * CONSTS.varpi and ws.low[0] == CONSTS.varpi


def test_uplink_boundary_values():
    knee_a = CONSTS.knee_a
    # At the knee, the A uplink bounds the knee split's r* at eps exactly,
    # and a fixed split at (1 - rho) * eps.
    assert _ratio(knee_a, RICH_B)[0] == CONSTS.varpi
    assert _ratio(knee_a, RICH_B, rho=0.3)[0] == 0.7 * CONSTS.varpi
    # rho = 1 leaves nothing to decode, rho = 0 nothing to harvest.
    assert _ratio(knee_a, RICH_B, rho=1.0)[0] == 0.0
    assert _ratio(knee_a, RICH_B, rho=0.0)[0] == 0.0


def test_uplink_reference_value():
    # P / sigma^2 is exactly 1e12 at the reference point, so the uplink
    # SNR 0.7e12 / Z_A is forced by the frozen z_a literal.
    ratio = _ratio(DEFAULTS.fading_mean_a, RICH_B, rho=0.3)
    assert ratio[0] * 1e12 == pytest.approx(0.7e12 / REF_Z_A, rel=1e-12)


def test_uplink_boundary_convention():
    """Above their knees, the knee split's uplinks always decode: its pool
    is U - 2*eps and never zeroed, for both adaptive schemes."""
    rng = np.random.default_rng(2024)
    g_a = CONSTS.knee_a * (1.0 + 10.0 * rng.random(10_000))
    g_b = CONSTS.knee_b * (1.0 + 10.0 * rng.random(10_000))
    pool, ws = _pool(g_a, g_b)
    assert (ws.low >= CONSTS.varpi).all()
    assert np.array_equal(pool, ws.total - 2.0 * CONSTS.varpi)

    # Both gains dead: the equalizing gain is 0, not 0/0, and so is r*.
    consts, ws = _loaded(0.0, 0.0)
    assert downlink_gain(consts, None, ws)[0] == 0.0
    for theta in (0.5, None):
        assert _ratio(0.0, 0.0, theta=theta)[0] == 0.0


def test_downlink_zero_without_harvest():
    pool, _ = _pool(2.0, 1.0, rho=0.0)
    assert pool[0] == 0.0
    assert _ratio(2.0, 1.0, rho=0.0)[0] == 0.0


def test_downlink_reference_pair():
    """Downlink pair at gains (2, 1) with the optimal, knee split ratios:
    the weaker downlink SNR is P/sigma^2 * a * pool."""
    rho_a = 1.0 - REF_VARPI * REF_Z_A / 2.0
    rho_b = 1.0 - REF_VARPI * REF_Z_B
    harvest = rho_a * 2.0 / REF_Z_A + rho_b * 1.0 / REF_Z_B
    pool, _ = _pool(2.0, 1.0)
    assert pool[0] == pytest.approx(harvest, rel=1e-12)
    consts, ws = _loaded(2.0, 1.0)
    weaker = 1e12 * downlink_gain(consts, 0.5, ws)[0] * pool[0]
    assert weaker == pytest.approx(
        min(REF_X_FACTOR_A * 2.0, REF_X_FACTOR_B * 1.0) * harvest, rel=1e-12)


def test_static_equal_decision():
    for rho in (0.5, 0.0, 0.7):
        consts, ws = _loaded(2.0, 1.0)
        u_sum = 2.0 / CONSTS.z_a + 1.0 / CONSTS.z_b
        assert harvest_pool(rho, consts.varpi, 0.0, ws)[0] == u_sum * rho
        gain = downlink_gain(consts, 0.5, ws)
        want = min((1.0 - rho) * (1.0 / CONSTS.z_b), rho * (gain[0] * u_sum))
        assert critical_ratio(rho, gain, ws)[0] == want


def test_dynamic_split_knee_values():
    knee_a, knee_b = CONSTS.knee_a, CONSTS.knee_b
    # On both knees the uplinks just decode and nothing is harvested.
    pool, _ = _pool(knee_a, knee_b)
    assert pool[0] == 0.0
    # Twice the knee harvests half of each link: eps of each.
    pool, _ = _pool(2.0 * knee_a, 2.0 * knee_b)
    assert pool[0] == 2.0 * CONSTS.varpi
    # Below the knees the uplinks fail, and the pool is 0.
    pool, _ = _pool(0.5 * knee_a, 0.1 * knee_b)
    assert pool[0] == 0.0


def _improved_gain(g_a, g_b):
    consts, ws = _loaded(g_a, g_b)
    return float(downlink_gain(consts, None, ws)[0])


def _theta_gain(g_a, g_b, theta):
    consts, ws = _loaded(g_a, g_b)
    return float(downlink_gain(consts, theta, ws)[0])


def test_improved_theta_special_points():
    # Gains scaled so g_a * z_b equals g_b * z_a give the symmetric split.
    g_b = REF_Z_B / REF_Z_A
    assert _improved_gain(1.0, g_b) == pytest.approx(_theta_gain(1.0, g_b, 0.5), rel=1e-12)

    # A vanishing B gain leaves nearly all the broadcast to B: a -> kappa*u_B.
    assert _improved_gain(1.0, 1e-30) == pytest.approx(
        CONSTS.kappa * 1e-30 / CONSTS.z_b, rel=1e-12)

    # A single vanishing gain leaves no downlink gain.
    assert _improved_gain(1.0, 0.0) == 0.0
    assert _improved_gain(0.0, 1.0) == 0.0


def test_improved_theta_reference_value():
    want = math.sqrt(2.0 * REF_Z_B) / (math.sqrt(2.0 * REF_Z_B) + math.sqrt(REF_Z_A))
    assert _improved_gain(2.0, 1.0) == pytest.approx(_theta_gain(2.0, 1.0, want), rel=1e-12)


def test_outage_indicator_inclusive_threshold():
    eps = CONSTS.varpi
    ws = KernelWorkspace(3)
    assert count_below(np.array([eps, 2.0 * eps, 1.0]), eps, ws) == 0
    assert count_below(np.array([np.nextafter(eps, 0.0), eps, 0.0]), eps, ws) == 2


def test_rectenna_threshold_is_inclusive():
    gated = link_constants(dataclasses.replace(DEFAULTS, circuit_sensitivity_dbm=-20.0))
    floor = gated.harvest_floor
    ws = KernelWorkspace(2)
    # A split of 0.5 harvests half of u exactly; B harvests nothing.
    ws.u_a[:] = [2.0 * floor, np.nextafter(2.0 * floor, 0.0)]
    ws.u_b[:] = 0.0
    ws.total[:] = ws.u_a
    ws.low[:] = 0.0
    harvest_pool(0.5, gated.varpi, floor, ws)
    assert ws.on.tolist() == [True, False]


def test_outage_indicator_vanishing_threshold():
    tiny_rate = dataclasses.replace(DEFAULTS, rate_bps_hz=1e-9)
    eps = link_constants(tiny_rate).varpi
    ratio = _ratio(1e-3, 1e-3, params=tiny_rate)
    assert count_below(ratio, eps, KernelWorkspace(1)) == 0


def test_scale_consistency():
    """Shifting P and sigma^2 by the same dB amount changes nothing: r*
    reads neither, and eps stays put."""
    shifted = dataclasses.replace(DEFAULTS, tx_power_dbm=37.0, noise_dbm=-83.0)
    c2 = derive_constants(shifted, 0.5)
    assert c2.varpi == pytest.approx(CONSTS.varpi, rel=1e-12)
    for rho, theta in ((None, 0.5), (None, None), (0.3, 0.5)):
        assert np.array_equal(_ratio(0.8, 1.7, rho, theta),
                              _ratio(0.8, 1.7, rho, theta, params=shifted))
    assert _pool(0.8, 1.7)[0][0] == pytest.approx(_pool(0.8, 1.7, params=shifted)[0][0],
                                                   rel=1e-9)


@given(
    extra_a=st.floats(min_value=0.0, max_value=5.0),
    extra_b=st.floats(min_value=0.0, max_value=5.0),
    shrink_a=st.floats(min_value=0.0, max_value=1.0),
    shrink_b=st.floats(min_value=0.0, max_value=1.0),
)
def test_split_ratio_optimality(extra_a, extra_b, shrink_a, shrink_b):
    """No feasible smaller split beats the kernel's knee split; larger
    splits break the uplink."""
    g_a, g_b = CONSTS.knee_a + extra_a, CONSTS.knee_b + extra_b
    consts, ws = _loaded(g_a, g_b)
    eps, u_a, u_b, total = consts.varpi, ws.u_a[0], ws.u_b[0], ws.total[0]
    # The kernel's weaker downlink SNR at the knee split: a times its
    # pooled harvest, in units of eps, times P/sigma^2.
    gain = downlink_gain(consts, 0.5, ws)[0]
    pool = harvest_pool(None, eps, 0.0, ws)[0]
    if not ws.flag[0]:
        return  # g on a knee rounded below it: no split decodes
    best = gain * pool * (consts.harvest_gain / consts.kappa)
    # The knee split rho_x = 1 - eps/u_x harvests rho_x*u_x, the pool is
    # their sum, and shrinking a split ratio shrinks its harvest term in
    # proportion.  Rounding near the knee is a few ulps of U.
    harvest_a, harvest_b = (1.0 - eps / u_a) * u_a, (1.0 - eps / u_b) * u_b
    slack = 4.0 * np.spacing(total)
    assert pool == pytest.approx(harvest_a + harvest_b, rel=1e-12, abs=slack)
    x_a, x_b = broadcast_factors(consts, 0.5)
    snr = min(x_a * g_a, x_b * g_b)
    sub = snr * (shrink_a * harvest_a + shrink_b * harvest_b)
    assert sub <= (best + snr * slack) * (1.0 + 1e-12)

    # rho_x + (1 - rho_x) / 2 leaves half the decode fraction eps/u_x, and
    # so half of link x's uplink: r* falls below eps and the pool empties.
    for u in (u_a, u_b):
        rho = 1.0 - 0.5 * (eps / u)
        assert critical_ratio(rho, downlink_gain(consts, 0.5, ws), ws)[0] < eps
        assert harvest_pool(rho, eps, 0.0, ws)[0] == 0.0


@given(
    g_a=st.floats(min_value=1e-12, max_value=20.0),
    g_b=st.floats(min_value=1e-12, max_value=20.0),
)
def test_improved_weight_equalizes_downlinks(g_a, g_b):
    """The improved gain kappa*u_A*u_B/U is the gain of the weight that
    equalizes the two downlinks."""
    consts, ws = _loaded(g_a, g_b)
    theta = math.sqrt(ws.u_a[0]) / (math.sqrt(ws.u_a[0]) + math.sqrt(ws.u_b[0]))
    weight_a = consts.kappa * (1.0 - theta) ** 2 / (theta ** 2 + (1.0 - theta) ** 2)
    weight_b = consts.kappa * theta ** 2 / (theta ** 2 + (1.0 - theta) ** 2)
    improved = downlink_gain(consts, None, ws)[0]
    # Extreme gain ratios park theta within ~5e-8 of 1, where the 1-theta
    # cancellation caps the achievable equality at roughly eps/(1-theta).
    assert weight_a * ws.u_a[0] == pytest.approx(improved, rel=1e-6, abs=1e-30)
    assert weight_b * ws.u_b[0] == pytest.approx(improved, rel=1e-6, abs=1e-30)


@given(
    g_a=st.floats(min_value=1e-9, max_value=20.0),
    g_b=st.floats(min_value=1e-9, max_value=20.0),
    rho=st.floats(min_value=0.0, max_value=1.0),
    bump=st.floats(min_value=0.0, max_value=1.0),
)
def test_downlinks_nondecreasing_in_split_ratios(g_a, g_b, rho, bump):
    # static_equal, the one fixed split any scheme runs, splits both links
    # at one rho; at eps 0 no uplink zeroes the pool.
    consts, ws = _loaded(g_a, g_b)
    lo = harvest_pool(rho, 0.0, 0.0, ws)[0]
    hi = harvest_pool(rho + bump * (1.0 - rho), 0.0, 0.0, ws)[0]
    assert hi >= lo * (1.0 - 1e-12)
