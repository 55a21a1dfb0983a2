"""Core model: parameter handling, derived constants, the physics kernel."""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ehrelay.model import (
    DerivedConstants,
    KernelWorkspace,
    SchemeSpec,
    SystemParams,
    _all_clear,
    _equalizing_theta,
    _power_split,
    _rectenna_on,
    _uplinks_clear,
    broadcast_factors,
    broadcast_stage,
    dbi_to_linear,
    dbm_to_watts,
    derive_constants,
    link_constants,
    split_stage,
    stage_keys,
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


def _stages(g_a, g_b, rho=None, theta=0.5, params=DEFAULTS):
    """The workspace after split_stage at split rho (None: the knee split)
    and broadcast_stage at weight theta (None: the equalizing one), both
    as stage_keys gives them, on gains g_a and g_b."""
    g_a, g_b = np.array(g_a, float, ndmin=1), np.array(g_b, float, ndmin=1)
    consts, ws = link_constants(params), KernelWorkspace(g_a.shape)
    split_stage(consts, rho, g_a, g_b, ws)
    broadcast_stage(consts, theta, g_a, g_b, ws)
    return ws


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
    assert CONSTS.sensitivity_w == 0.0
    with_floor = link_constants(dataclasses.replace(DEFAULTS, circuit_sensitivity_dbm=-20.0))
    assert with_floor.sensitivity_w == pytest.approx(1e-5, rel=1e-12)


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
    assert len(fields) == 23
    assert [name for name in fields if name not in read] == []


def test_derive_constants_theta_domain():
    with pytest.raises(ValueError):
        derive_constants(DEFAULTS, 0.0)
    with pytest.raises(ValueError):
        derive_constants(DEFAULTS, 1.0)


def test_uplink_boundary_values():
    g_a = CONSTS.varpi * CONSTS.z_a
    g_b = CONSTS.varpi * CONSTS.z_b
    ws = _stages(g_a, g_b, rho=0.0)
    assert ws.up_a[0] == pytest.approx(DEFAULTS.snr_threshold, rel=1e-12)
    assert ws.up_b[0] == pytest.approx(DEFAULTS.snr_threshold, rel=1e-12)

    ws = _stages(g_a, g_b, rho=1.0)
    assert ws.up_a[0] == 0.0 and ws.up_b[0] == 0.0


def test_uplink_reference_value():
    # P / sigma^2 is exactly 1e12 at the reference point, so the value is
    # forced by the frozen z_a literal.
    ws = _stages(DEFAULTS.fading_mean_a, 1.0, rho=0.3)
    assert ws.up_a[0] == pytest.approx(0.7e12 / REF_Z_A, rel=1e-12)


def test_uplink_boundary_convention():
    """Adaptive knee splits decode whatever way the uplink product rounds.

    Without the uplink slack a few percent of these gains land one ulp
    below the threshold and would count as uplink outages.
    """
    rng = np.random.default_rng(2024)
    knee_a = CONSTS.varpi * CONSTS.z_a
    knee_b = CONSTS.varpi * CONSTS.z_b
    g_a = knee_a * (1.0 + 10.0 * rng.random(10_000))
    g_b = knee_b * (1.0 + 10.0 * rng.random(10_000))
    # Both adaptive schemes run the knee split, whose uplink verdict the
    # broadcasts leave in place.
    assert stage_keys(SchemeSpec("dynamic_ps", DYNAMIC))[0] is \
        stage_keys(SchemeSpec("improved"))[0] is None
    for theta in (0.5, None):
        assert _stages(g_a, g_b, theta=theta).uplink.all()

    dead = np.zeros(1)
    assert _equalizing_theta(CONSTS, dead, dead, KernelWorkspace(1))[0] == 0.5
    for theta in (0.5, None):
        assert not _stages(dead, dead, theta=theta).ok.any()


def test_downlink_zero_without_harvest():
    ws = _stages(2.0, 1.0, rho=0.0)
    assert ws.down_a[0] == 0.0 and ws.down_b[0] == 0.0


def test_downlink_reference_pair():
    """Downlink pair at gains (2, 1) with the optimal, knee split ratios."""
    rho_a = 1.0 - REF_VARPI * REF_Z_A / 2.0
    rho_b = 1.0 - REF_VARPI * REF_Z_B
    harvest = rho_a * 2.0 / REF_Z_A + rho_b * 1.0 / REF_Z_B
    ws = _stages(2.0, 1.0)
    assert ws.down_a[0] == pytest.approx(REF_X_FACTOR_A * 2.0 * harvest, rel=1e-12)
    assert ws.down_b[0] == pytest.approx(REF_X_FACTOR_B * 1.0 * harvest, rel=1e-12)


def _power_splits(rho, g_a, g_b):
    """(decode_a, decode_b, harvest_a, harvest_b) that split_stage takes at
    split rho, each as a float."""
    split = _power_split(CONSTS, rho, np.array([g_a]), np.array([g_b]), KernelWorkspace(1))
    return tuple(float(np.asarray(x).item()) for x in split)


def test_static_equal_decision():
    for rho in (0.5, 0.0, 0.7):
        assert stage_keys(SchemeSpec("static_equal", {"rho": rho})) == (rho, 0.5)
        assert _power_splits(rho, 2.0, 1.0) == (
            1.0 - rho, 1.0 - rho, rho * 2.0 / CONSTS.z_a, rho * 1.0 / CONSTS.z_b)


def test_dynamic_split_knee_values():
    knee_a = CONSTS.varpi * CONSTS.z_a
    knee_b = CONSTS.varpi * CONSTS.z_b
    # The kernel reports 1 - rho as the decode fraction and rho*g/Z as the
    # harvest term, so rho == 0 reads as decode 1 with nothing harvested.
    assert _power_splits(None, knee_a, knee_b) == (1.0, 1.0, 0.0, 0.0)

    decode_a, decode_b, _, _ = _power_splits(None, 2.0 * knee_a, 2.0 * knee_b)
    assert 1.0 - decode_a == pytest.approx(0.5, rel=1e-12)
    assert 1.0 - decode_b == pytest.approx(0.5, rel=1e-12)

    assert _power_splits(None, 0.5 * knee_a, 0.1 * knee_b) == (1.0, 1.0, 0.0, 0.0)


def _improved_theta(g_a, g_b):
    theta = _equalizing_theta(CONSTS, np.array([g_a]), np.array([g_b]), KernelWorkspace(1))
    return float(theta[0])


def test_improved_theta_special_points():
    # Gains scaled so g_a * z_b equals g_b * z_a give the symmetric split.
    assert _improved_theta(1.0, REF_Z_B / REF_Z_A) == pytest.approx(0.5, rel=1e-12)

    theta = _improved_theta(1.0, 1e-30)
    assert theta > 0.999999
    assert theta < 1.0

    # A single vanishing gain is nudged onto the ends of the open interval.
    assert _improved_theta(1.0, 0.0) == np.nextafter(1.0, 0.0)
    assert _improved_theta(0.0, 1.0) == np.nextafter(0.0, 1.0)


def test_improved_theta_reference_value():
    want = math.sqrt(2.0 * REF_Z_B) / (math.sqrt(2.0 * REF_Z_B) + math.sqrt(REF_Z_A))
    assert _improved_theta(2.0, 1.0) == pytest.approx(want, rel=1e-12)


def _all_decode(params, up_a, up_b, down_a, down_b) -> bool:
    """Whether four link SNRs all decode, by the kernel's two tests."""
    consts, ws = link_constants(params), KernelWorkspace(1)
    _uplinks_clear(consts, np.array([up_a]), np.array([up_b]), ws)
    return bool(_all_clear(consts, np.array([down_a]), np.array([down_b]), ws)[0])


def test_outage_indicator_inclusive_threshold():
    g = DEFAULTS.snr_threshold
    assert _all_decode(DEFAULTS, g, g, g, g)
    assert not _all_decode(DEFAULTS, g / 2.0, 1e9, 1e9, 1e9)
    assert not _all_decode(DEFAULTS, 1e9, 1e9, 1e9, np.nextafter(g, 0.0))


def test_rectenna_threshold_is_inclusive():
    # P is exactly 1 W at 30 dBm, so a harvest term equal to the
    # sensitivity delivers exactly the sensitivity.
    gated = link_constants(dataclasses.replace(DEFAULTS, circuit_sensitivity_dbm=-20.0))
    assert gated.tx_power_w == 1.0
    floor = gated.sensitivity_w
    ws = KernelWorkspace(2)
    on = _rectenna_on(gated, np.array([floor, np.nextafter(floor, 0.0)]), ws, ws.ok)
    assert on.tolist() == [True, False]


def test_outage_indicator_vanishing_threshold():
    tiny_rate = dataclasses.replace(DEFAULTS, rate_bps_hz=1e-9)
    assert _all_decode(tiny_rate, 1e-6, 1e-6, 1e-6, 1e-6)


def test_scale_consistency():
    """Shifting P and sigma^2 by the same dB amount changes nothing."""
    shifted = dataclasses.replace(DEFAULTS, tx_power_dbm=37.0, noise_dbm=-83.0)
    c2 = derive_constants(shifted, 0.5)
    assert c2.varpi == pytest.approx(CONSTS.varpi, rel=1e-12)
    s1 = _stages(0.8, 1.7)
    s2 = _stages(0.8, 1.7, params=shifted)
    for name in ("up_a", "up_b", "down_a", "down_b"):
        assert getattr(s2, name)[0] == pytest.approx(getattr(s1, name)[0], rel=1e-9), name


@given(
    extra_a=st.floats(min_value=0.0, max_value=5.0),
    extra_b=st.floats(min_value=0.0, max_value=5.0),
    shrink_a=st.floats(min_value=0.0, max_value=1.0),
    shrink_b=st.floats(min_value=0.0, max_value=1.0),
)
def test_split_ratio_optimality(extra_a, extra_b, shrink_a, shrink_b):
    """No feasible smaller split beats the knee split; larger splits break the uplink."""
    g_a = np.array([CONSTS.varpi * CONSTS.z_a + extra_a])
    g_b = np.array([CONSTS.varpi * CONSTS.z_b + extra_b])
    ws = KernelWorkspace(1)
    split_stage(CONSTS, None, g_a, g_b, ws)
    # Shrinking a split ratio shrinks its harvest term in proportion; read
    # them before the broadcast writes its downlinks over them.
    pooled = shrink_a * ws.harvest_a[0] + shrink_b * ws.harvest_b[0]
    broadcast_stage(CONSTS, 0.5, g_a, g_b, ws)
    x_a, x_b = broadcast_factors(CONSTS, 0.5)
    sub = min(x_a * g_a[0] * pooled, x_b * g_b[0] * pooled)
    assert sub <= min(ws.down_a[0], ws.down_b[0]) * (1.0 + 1e-12)

    # rho_a + (1 - rho_a) / 2 leaves half the decode fraction, and so half
    # the uplink SNR.
    assert 0.5 * ws.up_a[0] < DEFAULTS.snr_threshold


@given(
    g_a=st.floats(min_value=1e-12, max_value=20.0),
    g_b=st.floats(min_value=1e-12, max_value=20.0),
)
def test_improved_weight_equalizes_downlinks(g_a, g_b):
    ws = _stages(g_a, g_b, theta=None)
    # Extreme gain ratios park theta within ~5e-8 of 1, where the 1-theta
    # cancellation caps the achievable equality at roughly eps/(1-theta).
    assert ws.down_a[0] == pytest.approx(ws.down_b[0], rel=1e-6, abs=1e-30)


@given(
    g_a=st.floats(min_value=1e-9, max_value=20.0),
    g_b=st.floats(min_value=1e-9, max_value=20.0),
    rho=st.floats(min_value=0.0, max_value=1.0),
    bump=st.floats(min_value=0.0, max_value=1.0),
)
def test_downlinks_nondecreasing_in_split_ratios(g_a, g_b, rho, bump):
    # static_equal, the one fixed split any scheme runs, splits both links
    # at one rho.
    lo = _stages(g_a, g_b, rho=rho)
    hi = _stages(g_a, g_b, rho=rho + bump * (1.0 - rho))
    assert hi.down_a[0] >= lo.down_a[0] * (1.0 - 1e-12)
    assert hi.down_b[0] >= lo.down_b[0] * (1.0 - 1e-12)
