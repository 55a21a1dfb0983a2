"""System model for a three-step two-way relay network with RF energy harvesting.

Terminals A and B exchange messages through a decode-and-forward relay R that
has no power supply of its own.  Each block of length T is split into three
slots: A transmits for beta*T, B transmits for beta*T, and R broadcasts a
re-encoded combination of both messages for the remaining (1-2*beta)*T.  The
relay power-splits each received signal, harvesting a fraction rho_i of the
power and decoding from the rest; the broadcast weights the two re-encoded
messages by a power allocation ratio theta.

All arithmetic below is carried out in linear units (watts, dimensionless
gains).  SystemParams converts its dBm / dBi inputs on every read, through
properties; link_constants reads them once per configuration, and the
array kernel reads only the LinkConstants it returns.

SchemeSpec is the catalogue of relay schemes: each id, its argument with
default and range, and the "id:arg=value" text form live there only.

The array kernel runs in two stages, its one entry: split_stage, the
theta-free work that all schemes at one operating point and power split
share, and broadcast_stage, which adds a broadcast weight theta and counts
outages.  Both write into a KernelWorkspace: the Monte Carlo simulator
keeps one per block, so a chunk allocates no arrays, and the acceptance
criteria read the SNRs and harvest terms the stages leave in theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0


def dbm_to_watts(value_dbm: float) -> float:
    """Convert a power from dBm to watts."""
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def dbi_to_linear(gain_dbi: float) -> float:
    """Convert an antenna gain from dBi to a linear ratio."""
    return 10.0 ** (gain_dbi / 10.0)


# Types a real-valued input may hold (bool excepted).
_REAL_TYPES = (int, float, np.integer, np.floating)


def real_number(name: str, value) -> float:
    """value as a float; raises ValueError, naming name, unless it is a finite
    real number: not a bool, a string, a complex value or an int past the
    float range."""
    # bool is an int subclass, but True is no power, distance or ratio.
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} is out of range: too large for a float") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


# Fields given in dB units, with their conversion to linear units.
_DB_FIELDS = {"tx_power_dbm": dbm_to_watts, "noise_dbm": dbm_to_watts,
               "circuit_sensitivity_dbm": dbm_to_watts, "gain_a_dbi": dbi_to_linear,
               "gain_b_dbi": dbi_to_linear, "gain_relay_dbi": dbi_to_linear}


@dataclass(frozen=True)
class SystemParams:
    """Physical and protocol constants of one network configuration.

    Defaults reproduce the reference operating point used throughout the
    experiment suite.
    """

    tx_power_dbm: float = 30.0        # terminal transmit power P
    noise_dbm: float = -90.0          # noise variance sigma^2
    eh_efficiency: float = 0.6        # energy conversion efficiency eta, in (0, 1]
    time_split: float = 1.0 / 3.0     # time allocation ratio beta, in (0, 0.5)
    block_duration: float = 1.0       # block length T in seconds
    path_loss_exp: float = 2.7        # path loss exponent alpha
    dist_a: float = 5.0               # A-R distance in meters
    dist_b: float = 15.0              # B-R distance in meters
    ref_dist: float = 1.0             # close-in reference distance d0 in meters
    carrier_freq_hz: float = 915e6    # carrier frequency (sets the wavelength)
    gain_a_dbi: float = 8.0           # antenna gain at A
    gain_b_dbi: float = 8.0           # antenna gain at B
    gain_relay_dbi: float = 8.0       # antenna gain at R
    fading_mean_a: float = 1.0        # mean of the exponential |h_A|^2
    fading_mean_b: float = 1.0        # mean of the exponential |h_B|^2
    rate_bps_hz: float = 2.0          # transmission rate U in bit/s/Hz
    quad_order: int = 10              # Gauss-Chebyshev order M
    circuit_sensitivity_dbm: float | None = None  # rectenna threshold P_th; None = ideal

    def __post_init__(self) -> None:
        order = self.quad_order
        integral = not isinstance(order, bool) and (
            isinstance(order, (int, np.integer))
            or (isinstance(order, float) and order.is_integer()))
        if not integral or order < 1:
            raise ValueError(f"quad_order must be an integer >= 1, got {order!r}")
        object.__setattr__(self, "quad_order", int(order))
        for name, value in vars(self).items():
            # quad_order is an int by now, finite however large; only the
            # sensitivity may be None.
            if name == "quad_order" or (value is None
                                        and name == "circuit_sensitivity_dbm"):
                continue
            real_number(name, value)
        for name, to_linear in _DB_FIELDS.items():
            value = getattr(self, name)
            if value is None:
                continue
            try:
                linear = to_linear(value)
            except OverflowError:
                linear = math.inf
            if not 0.0 < linear < math.inf:
                raise ValueError(f"{name}={value!r} is out of range: in linear "
                                 f"units it rounds to {linear!r}")
        if not 0.0 < self.time_split < 0.5:
            raise ValueError("time_split must lie strictly between 0 and 0.5")
        if not 0.0 < self.eh_efficiency <= 1.0:
            raise ValueError("eh_efficiency must lie in (0, 1]")
        for name in ("block_duration", "path_loss_exp", "dist_a", "dist_b",
                     "ref_dist", "carrier_freq_hz", "fading_mean_a",
                     "fading_mean_b", "rate_bps_hz"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.rate_bps_hz < 1024.0:
            raise ValueError(f"rate_bps_hz={self.rate_bps_hz!r} is out of range: "
                             "the SNR threshold 2**rate - 1 overflows from 1024 on")
        if self.snr_threshold == 0.0:
            raise ValueError(f"rate_bps_hz={self.rate_bps_hz!r} is too small: "
                             "the SNR threshold 2**rate - 1 rounds to 0")

    @property
    def snr_threshold(self) -> float:
        """Decoding threshold gamma_th; the rate is the single source of truth."""
        return 2.0 ** self.rate_bps_hz - 1.0

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_freq_hz

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @property
    def noise_w(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    @property
    def sensitivity_w(self) -> float:
        """Rectenna activation threshold in watts; the ideal case maps to 0."""
        if self.circuit_sensitivity_dbm is None:
            return 0.0
        return dbm_to_watts(self.circuit_sensitivity_dbm)


@dataclass(frozen=True)
class LinkConstants:
    """Precomputed linear-unit symbols of one configuration, free of theta.

    All that the array kernel reads of an operating point; the closed forms
    read them too, and the dynamic-PS closed form adds a theta part on top.
    """

    z_a: float            # d_i^alpha / Lambda_i, Lambda_i the antenna/path factor
    z_b: float
    varpi: float          # gamma_th * sigma^2 / P
    knee_a: float         # varpi * Z_A: below it the A uplink cannot decode
    knee_b: float
    harvest_gain: float   # eta*beta*P / ((1-2*beta)*sigma^2): broadcast SNR per harvest
    y_big: float          # harvest_gain / (Z_A*Z_B)
    d_ratio_a: float      # Z_A / Z_B
    d_ratio_b: float      # Z_B / Z_A
    e_a: float            # 2 * varpi * Z_A
    e_b: float            # 2 * varpi * Z_B
    a_rate_a: float       # Z_A / fading_mean_a
    a_rate_b: float
    a_o: float            # varpi^2 * Z_A * Z_B * gamma_th / Y
    b_o: float            # varpi^2 * Z_A * Z_B + gamma_th / Y
    snr_threshold: float  # gamma_th
    snr_scale: float      # P / sigma^2
    tx_power_w: float     # P
    sensitivity_w: float  # rectenna threshold P_th; 0.0 for the ideal rectenna


@dataclass(frozen=True)
class DerivedConstants(LinkConstants):
    """LinkConstants plus the symbols of one power allocation ratio theta."""

    c_a: float            # gamma_th * Z_A / X_B
    c_b: float            # gamma_th * Z_B / X_A
    delta_a: float        # decode-feasibility knee of the A link
    delta_b: float


# Inputs every path factor Z depends on besides its own distance and gain.
_PATH_FIELDS = ("path_loss_exp", "ref_dist", "carrier_freq_hz", "gain_relay_dbi")


def _out_of_range(params: SystemParams, symbol: str, fields) -> ValueError:
    inputs = ", ".join(f"{name}={getattr(params, name)!r}" for name in fields)
    return ValueError(f"{inputs}: {symbol} leaves the floating-point range")


def link_constants(params: SystemParams) -> LinkConstants:
    """Evaluate every derived symbol that does not depend on theta.

    SystemParams has ruled out an SNR threshold that rounds to 0 or
    overflows.  Raises ValueError, naming the inputs involved, where a path
    factor, the product of the two or varpi**2 overflows or vanishes, which
    would otherwise surface as an OverflowError or ZeroDivisionError.
    """
    alpha = params.path_loss_exp
    g_relay = dbi_to_linear(params.gain_relay_dbi)

    def path_factor(dist: float, gain_dbi: float, fields: tuple) -> float:
        """Z = d^alpha / Lambda, Lambda the close-in antenna/path factor:
        free-space at d0, exponent alpha beyond it."""
        try:
            common = params.wavelength_m ** 2 * params.ref_dist ** (alpha - 2.0) \
                / (4.0 * math.pi) ** 2
            z = dist ** alpha / (dbi_to_linear(gain_dbi) * g_relay * common)
        except (OverflowError, ZeroDivisionError):
            z = math.inf
        if not 0.0 < z < math.inf:
            raise _out_of_range(params, "the path factor Z", fields + _PATH_FIELDS)
        return z

    z_a = path_factor(params.dist_a, params.gain_a_dbi, ("dist_a", "gain_a_dbi"))
    z_b = path_factor(params.dist_b, params.gain_b_dbi, ("dist_b", "gain_b_dbi"))

    p_w = params.tx_power_w
    n_w = params.noise_w
    gamma_th = params.snr_threshold
    varpi = gamma_th * n_w / p_w
    beta = params.time_split
    harvest_gain = params.eh_efficiency * beta * p_w / ((1.0 - 2.0 * beta) * n_w)
    y_big = harvest_gain / (z_a * z_b) if z_a * z_b > 0.0 else 0.0
    if not y_big > 0.0:
        raise _out_of_range(params, "Y = harvest_gain / (Z_A * Z_B)",
                            ("tx_power_dbm", "noise_dbm", "dist_a", "dist_b",
                             "gain_a_dbi", "gain_b_dbi", "gain_relay_dbi"))
    try:
        varpi_sq = varpi ** 2
    except OverflowError:
        raise _out_of_range(params, "varpi**2",
                            ("tx_power_dbm", "noise_dbm", "rate_bps_hz")) from None

    return LinkConstants(
        z_a=z_a, z_b=z_b, varpi=varpi, knee_a=varpi * z_a, knee_b=varpi * z_b,
        harvest_gain=harvest_gain, y_big=y_big,
        d_ratio_a=z_a / z_b, d_ratio_b=z_b / z_a,
        e_a=2.0 * varpi * z_a, e_b=2.0 * varpi * z_b,
        a_rate_a=z_a / params.fading_mean_a, a_rate_b=z_b / params.fading_mean_b,
        a_o=varpi_sq * z_a * z_b * gamma_th / y_big,
        b_o=varpi_sq * z_a * z_b + gamma_th / y_big,
        snr_threshold=gamma_th, snr_scale=p_w / n_w, tx_power_w=p_w,
        sensitivity_w=params.sensitivity_w,
    )


class KernelWorkspace:
    """Arrays the kernel below writes into, for batches of one shape.

    Each kernel function writes every result and temporary into its
    arrays instead of allocating, so a caller that evaluates batch after
    batch allocates once.  Each call overwrites what the last call with the
    same workspace returned; the uplink SNRs overwrite the decode fractions,
    and the downlink SNRs the harvest terms once pooled.
    """

    def __init__(self, shape) -> None:
        (self.decode_a, self.decode_b, self.harvest_a, self.harvest_b,
         self.theta, self.pooled, self.scratch) = (np.empty(shape) for _ in range(7))
        self.up_a, self.up_b = self.decode_a, self.decode_b
        self.down_a, self.down_b = self.harvest_a, self.harvest_b
        self.ok, self.flag, self.uplink = (np.empty(shape, dtype=bool) for _ in range(3))


def broadcast_factors(consts: LinkConstants, theta,
                      ws: KernelWorkspace | None = None) -> tuple:
    """Downlink SNR coefficients (X_A, X_B) at weight theta (scalar or array).

    X_A carries (1-theta)^2 and X_B carries theta^2, both normalized by the
    total broadcast weight theta^2 + (1-theta)^2.  Each square is taken
    once: a Python float theta's with Python's ** (pow), an array theta's by
    NumPy, in place, in ws's down, scratch and theta arrays when given,
    overwriting theta once read.  The two round apart in the last bit on
    168 of 200,000 uniform doubles, so neither path may be routed through
    the other without moving bits; a scalar theta stays a Python float.
    """
    spare = ws is not None and getattr(theta, "ndim", 0)
    x_a = np.subtract(1.0, theta, out=ws.down_a) if spare else 1.0 - theta
    x_a **= 2
    x_b = np.square(theta, out=ws.down_b) if spare else theta ** 2
    mix = np.add(x_b, x_a, out=ws.scratch) if spare else x_b + x_a
    x_a *= consts.harvest_gain
    x_a /= np.multiply(consts.z_a, mix, out=ws.theta) if spare else consts.z_a * mix
    x_b *= consts.harvest_gain
    x_b /= np.multiply(consts.z_b, mix, out=ws.theta) if spare else consts.z_b * mix
    return x_a, x_b


def check_theta(theta: float) -> None:
    """Raise ValueError unless the broadcast weight lies inside (0, 1)."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie strictly inside (0, 1)")


def derive_constants(params: SystemParams, theta: float,
                     link: LinkConstants | None = None) -> DerivedConstants:
    """LinkConstants plus the theta part, for the dynamic-PS closed form.

    link, if given, is link_constants(params), already built by the caller.
    Raises ValueError for theta outside the open interval (0, 1), for
    inputs link_constants rejects, and for a transmit power so low that
    the decode knees round onto the uplink floor.
    """
    check_theta(theta)
    if link is None:
        link = link_constants(params)
    z_a, z_b, varpi, gamma_th = link.z_a, link.z_b, link.varpi, link.snr_threshold
    x_factor_a, x_factor_b = broadcast_factors(link, theta)
    delta_a = 0.5 * (varpi + math.sqrt(varpi ** 2 + 4.0 * gamma_th / (z_a * x_factor_a))) * z_a
    delta_b = 0.5 * (varpi + math.sqrt(varpi ** 2 + 4.0 * gamma_th / (z_b * x_factor_b))) * z_b

    # The discriminant exceeds varpi^2, so each knee sits strictly above
    # the decode boundary unless the harvest term drowns in rounding.
    if not (delta_a > link.knee_a and delta_b > link.knee_b):
        raise ValueError(
            f"tx_power_dbm={params.tx_power_dbm!r} against noise_dbm="
            f"{params.noise_dbm!r} at theta={theta!r} leaves no harvest "
            "margin: the decode knees round onto the uplink floor")

    return DerivedConstants(**vars(link),
                            c_a=gamma_th * z_a / x_factor_b,
                            c_b=gamma_th * z_b / x_factor_a,
                            delta_a=delta_a, delta_b=delta_b)


# Extreme admissible values of the open-interval theta; a single vanishing
# gain is nudged onto them so the optimizer formula stays inside (0, 1).
_THETA_LO = float(np.nextafter(0.0, 1.0))
_THETA_HI = float(np.nextafter(1.0, 0.0))

# Relative slack on the uplink threshold comparison.  The adaptive schemes
# harvest everything above decode feasibility, which parks the true uplink
# SNR exactly on the threshold; a handful of ulps of slack makes that
# boundary resolve to success (the model's inclusive convention) instead of
# depending on rounding direction.  True sub-threshold events sit a
# continuum away, so the slack does not bias them measurably.
_UPLINK_SLACK = 16.0 * float(np.finfo(np.float64).eps)


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")


# The relay schemes, each with its control arguments: name -> (default, check).
_SCHEMES = {"static_equal": {"rho": (0.5, _check_rho)},
            "dynamic_ps": {"theta": (0.5, check_theta)},
            "improved": {}}


@dataclass(frozen=True)
class SchemeSpec:
    """One relay scheme with the control arguments given for it.

    Construction raises ValueError for an unknown scheme, an argument the
    scheme does not take, or a value out of its range.  The text form is
    "id" or "id:key=value,...", each value in the shortest form that parses
    back to it.
    """

    scheme_id: str
    args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.canonical()

    def canonical(self) -> dict:
        """Every argument of the scheme, defaults filled in: what
        stage_keys reads."""
        if self.scheme_id not in _SCHEMES:
            raise ValueError(f"unknown scheme_id {self.scheme_id!r}; "
                             f"expected one of {tuple(_SCHEMES)}")
        args = dict(self.args)
        canon = {}
        for name, (default, check) in _SCHEMES[self.scheme_id].items():
            canon[name] = real_number(name, args.pop(name, default))
            check(canon[name])
        if args:
            raise ValueError(f"unsupported arguments for {self.scheme_id!r}: {sorted(args)}")
        return canon

    def label(self) -> str:
        if not self.args:
            return self.scheme_id
        parts = ",".join(f"{k}={str(float(v)).removesuffix('.0')}"
                         for k, v in sorted(self.args.items()))
        return f"{self.scheme_id}:{parts}"

    @classmethod
    def parse(cls, text: str) -> SchemeSpec:
        """The spec a label() text names; a key given twice raises ValueError."""
        scheme_id, _, arg_part = text.partition(":")
        args = {}
        if arg_part:
            for piece in arg_part.split(","):
                key, sep, value = piece.partition("=")
                if not sep:
                    raise ValueError(f"bad scheme argument {piece!r}; expected key=value")
                if (key := key.strip()) in args:
                    raise ValueError(f"scheme argument {key!r} is given twice in {text!r}")
                args[key] = float(value)
        return cls(scheme_id.strip(), args)


def stage_keys(scheme_id: str, canon: dict) -> tuple:
    """(rho, theta) of a scheme with canonical arguments canon: its power
    split, None for the knee split, and its broadcast weight, None for the
    per-trial equalizing one."""
    if scheme_id == "static_equal":
        return canon["rho"], 0.5
    return None, canon.get("theta")


def _power_split(consts: LinkConstants, rho, g_a, g_b, ws: KernelWorkspace) -> tuple:
    """(decode_a, decode_b, harvest_a, harvest_b) at stage_keys split rho:
    the 1-rho fraction of each link left for information, and rho*g/Z, its
    harvested-power term.  The knee split's fractions are min(knee/g, 1),
    not 1-rho, so that the saturated uplink product g*decode reproduces the
    knee exactly instead of through a cancellation."""
    if rho is not None:
        harvest_a = np.multiply(g_a, rho, out=ws.harvest_a)
        harvest_a /= consts.z_a
        harvest_b = np.multiply(g_b, rho, out=ws.harvest_b)
        harvest_b /= consts.z_b
        return 1.0 - rho, 1.0 - rho, harvest_a, harvest_b
    with np.errstate(divide="ignore"):
        decode_a = np.divide(consts.knee_a, g_a, out=ws.decode_a)
        decode_b = np.divide(consts.knee_b, g_b, out=ws.decode_b)
    np.minimum(decode_a, 1.0, out=decode_a)
    np.minimum(decode_b, 1.0, out=decode_b)
    # The knee split harvests max(g - knee, 0)/Z.
    harvest_a = np.subtract(g_a, consts.knee_a, out=ws.harvest_a)
    np.maximum(harvest_a, 0.0, out=harvest_a)
    harvest_a /= consts.z_a
    harvest_b = np.subtract(g_b, consts.knee_b, out=ws.harvest_b)
    np.maximum(harvest_b, 0.0, out=harvest_b)
    harvest_b /= consts.z_b
    return decode_a, decode_b, harvest_a, harvest_b


def _equalizing_theta(consts: LinkConstants, g_a, g_b, ws: KernelWorkspace):
    """The improved scheme's theta, which equalizes the two downlink SNRs;
    0.5, for determinism, where both gains vanish and every theta fails."""
    side_a = np.multiply(g_a, consts.z_b, out=ws.theta)
    np.sqrt(side_a, out=side_a)
    denom = np.multiply(g_b, consts.z_a, out=ws.scratch)
    np.sqrt(denom, out=denom)
    denom += side_a
    # The denominator vanishes only where both gains do; skip the
    # masking when no realization is such.
    if denom.min(initial=math.inf) > 0.0:
        theta = np.divide(side_a, denom, out=side_a)
    else:
        positive = denom > 0.0
        side_a[...] = np.where(positive, side_a / np.where(positive, denom, 1.0), 0.5)
        theta = side_a
    return np.clip(theta, _THETA_LO, _THETA_HI, out=theta)


def _rectenna_on(consts: LinkConstants, harvest, ws: KernelWorkspace, out):
    """True where a link's harvested RF power reaches the rectenna sensitivity."""
    power = np.multiply(harvest, consts.tx_power_w, out=ws.scratch)
    return np.greater_equal(power, consts.sensitivity_w, out=out)


def _uplinks_clear(consts: LinkConstants, up_a, up_b, ws: KernelWorkspace) -> None:
    """Leave in ws.uplink where both uplinks decode, at a threshold lowered
    by _UPLINK_SLACK: the adaptive knee splits succeed however they round."""
    bar = consts.snr_threshold * (1.0 - _UPLINK_SLACK)
    np.greater_equal(up_a, bar, out=ws.uplink)
    ws.uplink &= np.greater_equal(up_b, bar, out=ws.flag)


def _all_clear(consts: LinkConstants, down_a, down_b, ws: KernelWorkspace):
    """True where all four links decode, by ws.uplink for the uplinks;
    equality counts as success."""
    ok = np.greater_equal(down_a, consts.snr_threshold, out=ws.ok)
    ok &= np.greater_equal(down_b, consts.snr_threshold, out=ws.flag)
    ok &= ws.uplink
    return ok


def split_stage(consts: LinkConstants, rho, g_a, g_b, ws: KernelWorkspace) -> None:
    """The theta-free kernel work at the operating point of consts and
    stage_keys split rho, for squared channel gains g_a and g_b: leaves in
    ws the uplink SNRs (up_a, up_b), their verdict (uplink), the harvest
    terms and their pooled sum (pooled), which each broadcast_stage after it
    reads.  When gated, a link whose RF harvest misses the rectenna
    sensitivity adds nothing to the pool; each test stays in ws.ok, ws.flag."""
    decode_a, decode_b, harvest_a, harvest_b = _power_split(consts, rho, g_a, g_b, ws)
    up_a = np.multiply(g_a, decode_a, out=ws.up_a)
    up_a *= consts.snr_scale
    up_a /= consts.z_a
    up_b = np.multiply(g_b, decode_b, out=ws.up_b)
    up_b *= consts.snr_scale
    up_b /= consts.z_b
    _uplinks_clear(consts, up_a, up_b, ws)
    if consts.sensitivity_w == 0.0:
        np.add(harvest_a, harvest_b, out=ws.pooled)
    else:
        np.multiply(harvest_a, _rectenna_on(consts, harvest_a, ws, ws.ok), out=ws.pooled)
        ws.pooled += np.multiply(harvest_b, _rectenna_on(consts, harvest_b, ws, ws.flag),
                                 out=ws.scratch)


def broadcast_stage(consts: LinkConstants, theta, g_a, g_b, ws: KernelWorkspace) -> int:
    """The outage count at stage_keys weight theta after the last
    split_stage in ws.  Leaves the downlink SNRs in ws.down_a and ws.down_b,
    over the harvest terms, and where all four links decode in ws.ok; the
    uplink results and the pooled harvest stay."""
    if theta is None:
        theta = _equalizing_theta(consts, g_a, g_b, ws)
    x_a, x_b = broadcast_factors(consts, theta, ws)
    down_a = np.multiply(x_a, g_a, out=ws.down_a)
    down_a *= ws.pooled
    down_b = np.multiply(x_b, g_b, out=ws.down_b)
    down_b *= ws.pooled
    ok = _all_clear(consts, down_a, down_b, ws)
    return ok.size - int(np.count_nonzero(ok))


def rectennas_off(ws: KernelWorkspace):
    """The energy outage after a gated knee split_stage in ws: true where
    neither link's rectenna test passed."""
    active = np.logical_or(ws.ok, ws.flag, out=ws.ok)
    return np.logical_not(active, out=active)

