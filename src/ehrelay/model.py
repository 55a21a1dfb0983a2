"""System model for a three-step two-way relay network with RF energy harvesting.

Terminals A and B exchange messages through a decode-and-forward relay R that
has no power supply of its own.  Each block of length T is split into three
slots: A transmits for beta*T, B transmits for beta*T, and R broadcasts a
re-encoded combination of both messages for the remaining (1-2*beta)*T.  The
relay power-splits each received signal, harvesting a fraction rho_i of the
power and decoding from the rest; the broadcast weights the two re-encoded
messages by a power allocation ratio theta.

All arithmetic below is carried out in linear units (watts, dimensionless
gains).  SystemParams holds the inputs, in dBm / dBi where given so, and
the one derived value that its own checks read, the SNR threshold;
link_constants converts the rest once per configuration, and the
LinkConstants it returns is the one home of derived link values, all that
the array kernel reads.  The noise variance sigma^2 is a constant of the
model, NOISE_DBM = -90 dBm, as the 915 MHz carrier is: tx_power_dbm alone
sets the transmit SNR P/sigma^2.

SchemeSpec is the catalogue of relay schemes: each id, its argument with
default and range, and the "id:arg=value" text form live there only.

The array kernel reads a trial through its normalized gains u_x = g_x/Z_x.
With eps = gamma_th*sigma^2/P (varpi), kappa = eta*beta/(1-2*beta) and
pi = P_th/P (harvest_floor), the four links of a trial decode as follows;
equality counts as success throughout.
- Uplinks: the knee split (dynamic_ps, improved) decodes iff u_A >= eps and
  u_B >= eps, and link x harvests h_x = u_x - eps; a fixed split rho decodes
  iff (1-rho)*u_x >= eps for both links, and harvests h_x = rho*u_x.
- Rectennas: link x adds h_x to the pool iff h_x >= pi; ideally, always.
- Downlinks: at broadcast weight theta, with m = theta^2 + (1-theta)^2,
  w_A = (1-theta)^2/m and w_B = theta^2/m, downlink x decodes iff
  kappa*w_x*u_x*pool >= eps.  Both do iff a*pool >= eps, for the downlink
  gain a = kappa*min(w_A*u_A, w_B*u_B).  The improved scheme's weight
  sqrt(u_A)/(sqrt(u_A) + sqrt(u_B)) equalizes the two: a = kappa*u_A*u_B/U,
  with U = u_A + u_B.
With the ideal rectenna the pool is U - 2*eps (knee split) or rho*U, and a
trial succeeds iff eps <= r*, its critical ratio:
- knee split: r* = min(u_A, u_B, a*U/(1 + 2*a));
- fixed rho: r* = min((1-rho)*min(u_A, u_B), rho*a*U).
r* reads neither P, sigma^2 nor gamma_th, so one r* array serves every
cell, such as every row of a transmit power, rate or M sweep, that shares
Z_A, Z_B, kappa and the scheme's rho and theta.  The kernel functions
below write into a KernelWorkspace.
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
_DB_FIELDS = {"tx_power_dbm": dbm_to_watts, "circuit_sensitivity_dbm": dbm_to_watts,
               "gain_a_dbi": dbi_to_linear, "gain_b_dbi": dbi_to_linear,
               "gain_relay_dbi": dbi_to_linear}


@dataclass(frozen=True)
class SystemParams:
    """Physical and protocol constants of one network configuration.

    Defaults reproduce the reference operating point used throughout the
    experiment suite.
    """

    tx_power_dbm: float = 30.0        # terminal transmit power P
    eh_efficiency: float = 0.6        # energy conversion efficiency eta, in (0, 1]
    time_split: float = 1.0 / 3.0     # time allocation ratio beta, in (0, 0.5)
    path_loss_exp: float = 2.7        # path loss exponent alpha
    dist_a: float = 5.0               # A-R distance in meters
    dist_b: float = 15.0              # B-R distance in meters
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
        if order > 1 << 16:     # the closed forms hold M-long node arrays
            raise ValueError(f"quad_order must be at most 2**16 = 65536, got {order!r}")
        object.__setattr__(self, "quad_order", int(order))
        for name, value in vars(self).items():
            # quad_order is an int by now, at most 2**16; only the
            # sensitivity may be None.  A float32 stored as given would set
            # the closed forms' precision.
            if name == "quad_order" or (value is None
                                        and name == "circuit_sensitivity_dbm"):
                continue
            object.__setattr__(self, name, real_number(name, value))
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
        for name in ("path_loss_exp", "dist_a", "dist_b", "fading_mean_a",
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
    kappa: float          # eta*beta / (1-2*beta): harvest_gain / (P/sigma^2)
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
    harvest_floor: float  # P_th / P, the least harvest term a rectenna converts; 0.0 ideal


@dataclass(frozen=True)
class DerivedConstants(LinkConstants):
    """LinkConstants plus the symbols of one power allocation ratio theta."""

    c_a: float            # gamma_th * Z_A / X_B
    c_b: float            # gamma_th * Z_B / X_A
    delta_a: float        # decode-feasibility knee of the A link
    delta_b: float


# Inputs every path factor Z depends on besides its own distance and gain.
_PATH_FIELDS = ("path_loss_exp", "gain_relay_dbi")
# (lambda/4pi)^2 at the fixed 915 MHz carrier and d0 = 1 m; another f or d0
# is the gain_relay_dbi offset 20*log10(915e6/f) + 10*(alpha-2)*log10(d0).
_FREE_SPACE = (SPEED_OF_LIGHT_M_S / 915e6) ** 2 / (4.0 * math.pi) ** 2
# sigma^2; another floor of N dBm is the offset -(N+90) dB on tx_power_dbm
# and circuit_sensitivity_dbm, as P enters only through P/sigma^2 and P_th/P.
NOISE_DBM = -90.0
_NOISE_W = dbm_to_watts(NOISE_DBM)


def _out_of_range(params: SystemParams, symbol: str, fields) -> ValueError:
    inputs = ", ".join(f"{name}={getattr(params, name)!r}" for name in fields)
    return ValueError(f"{inputs}: {symbol} leaves the floating-point range")


def link_constants(params: SystemParams) -> LinkConstants:
    """Evaluate every derived symbol that does not depend on theta.

    SystemParams has ruled out an SNR threshold that rounds to 0 or
    overflows.  Raises ValueError, naming the inputs involved, where a path
    factor, Y or varpi**2 overflows or vanishes (Y and varpi**2 do at extreme
    SNR), which would otherwise surface as an OverflowError or division by 0.
    """
    alpha = params.path_loss_exp
    g_relay = dbi_to_linear(params.gain_relay_dbi)

    def path_factor(dist: float, gain_dbi: float, fields: tuple) -> float:
        """Z = d^alpha / Lambda, Lambda = G_i*G_R*(lambda/4pi)^2 the close-in
        antenna/path factor: free space at d0, exponent alpha beyond it."""
        try:
            z = dist ** alpha / (dbi_to_linear(gain_dbi) * g_relay * _FREE_SPACE)
        except (OverflowError, ZeroDivisionError):
            z = math.inf
        if not 0.0 < z < math.inf:
            raise _out_of_range(params, "the path factor Z", fields + _PATH_FIELDS)
        return z

    z_a = path_factor(params.dist_a, params.gain_a_dbi, ("dist_a", "gain_a_dbi"))
    z_b = path_factor(params.dist_b, params.gain_b_dbi, ("dist_b", "gain_b_dbi"))

    p_w = dbm_to_watts(params.tx_power_dbm)
    gamma_th = params.snr_threshold
    varpi = gamma_th * _NOISE_W / p_w
    beta = params.time_split
    harvest_gain = params.eh_efficiency * beta * p_w / ((1.0 - 2.0 * beta) * _NOISE_W)
    y_big = harvest_gain / (z_a * z_b) if z_a * z_b > 0.0 else 0.0
    if not 0.0 < y_big < math.inf:
        raise _out_of_range(params, "Y = harvest_gain / (Z_A * Z_B)",
                            ("tx_power_dbm", "dist_a", "dist_b",
                             "gain_a_dbi", "gain_b_dbi", "gain_relay_dbi"))
    try:
        varpi_sq = varpi ** 2
    except OverflowError:
        varpi_sq = math.inf
    if not 0.0 < varpi_sq < math.inf:
        raise _out_of_range(params, "varpi**2", ("tx_power_dbm", "rate_bps_hz"))

    return LinkConstants(
        z_a=z_a, z_b=z_b, varpi=varpi, knee_a=varpi * z_a, knee_b=varpi * z_b,
        harvest_gain=harvest_gain, kappa=params.eh_efficiency * beta / (1.0 - 2.0 * beta),
        y_big=y_big,
        d_ratio_a=z_a / z_b, d_ratio_b=z_b / z_a,
        e_a=2.0 * varpi * z_a, e_b=2.0 * varpi * z_b,
        a_rate_a=z_a / params.fading_mean_a, a_rate_b=z_b / params.fading_mean_b,
        a_o=varpi_sq * z_a * z_b * gamma_th / y_big,
        b_o=varpi_sq * z_a * z_b + gamma_th / y_big,
        snr_threshold=gamma_th,
        harvest_floor=(0.0 if params.circuit_sensitivity_dbm is None
                       else dbm_to_watts(params.circuit_sensitivity_dbm) / p_w),
    )


def broadcast_factors(consts: LinkConstants, theta: float) -> tuple:
    """Downlink SNR coefficients (X_A, X_B) at weight theta, for the
    dynamic-PS closed form.

    X_A carries (1-theta)^2 and X_B carries theta^2, both normalized by the
    total broadcast weight theta^2 + (1-theta)^2.  Each square is taken
    once, with Python's ** (pow) on Python floats.
    """
    x_a = (1.0 - theta) ** 2
    x_b = theta ** 2
    mix = x_b + x_a
    return (x_a * consts.harvest_gain / (consts.z_a * mix),
            x_b * consts.harvest_gain / (consts.z_b * mix))


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
            f"tx_power_dbm={params.tx_power_dbm!r} at theta={theta!r} leaves no "
            "harvest margin: the decode knees round onto the uplink floor")

    return DerivedConstants(**vars(link),
                            c_a=gamma_th * z_a / x_factor_b,
                            c_b=gamma_th * z_b / x_factor_a,
                            delta_a=delta_a, delta_b=delta_b)


def _check_rho(rho: float) -> None:
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")


# The relay schemes, each with its control arguments: name -> (default, check).
_SCHEMES = {"static_equal": {"rho": (0.5, _check_rho)},
            "dynamic_ps": {"theta": (0.5, check_theta)},
            "improved": {}}


class _SchemeArgs(dict):
    """A SchemeSpec's resolved arguments: a dict that refuses every change,
    so no holder of a spec can change what it runs.  Being a dict, it still
    pickles, copies, converts under dataclasses.asdict and writes as JSON."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a SchemeSpec's args are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        # Pickle's default for a dict subclass refills it item by item.
        return type(self), (dict(self),)


@dataclass(frozen=True)
class SchemeSpec:
    """One relay scheme and the control arguments it runs with.

    Construction resolves the arguments once into args, a new read-only
    dict holding every argument of the scheme, given or defaulted, as a
    float (-0.0 as 0.0), so equal specs run alike, hash alike and share one
    label, and no holder of a spec can change what it runs.  It raises
    ValueError for an unknown scheme, an argument the scheme does not take,
    or a value out of its range.  The text form, label()'s, is "id" or
    "id:key=value,...", each value in the shortest form that parses back.
    """

    scheme_id: str
    args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scheme_id not in _SCHEMES:
            raise ValueError(f"unknown scheme_id {self.scheme_id!r}; "
                             f"expected one of {tuple(_SCHEMES)}")
        given, args = dict(self.args), {}
        for name, (default, check) in _SCHEMES[self.scheme_id].items():
            # Adding 0.0 turns -0.0 into 0.0 and leaves every other float as is.
            args[name] = real_number(name, given.pop(name, default)) + 0.0
            check(args[name])
        if given:
            raise ValueError(f"unsupported arguments for {self.scheme_id!r}: {sorted(given)}")
        object.__setattr__(self, "args", _SchemeArgs(args))

    def label(self) -> str:
        parts = ",".join(f"{k}={v}".removesuffix(".0") for k, v in sorted(self.args.items()))
        return f"{self.scheme_id}:{parts}" if parts else self.scheme_id

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
                try:
                    args[key] = float(value)
                except ValueError:
                    raise ValueError(f"scheme argument {key}={value!r} is not a number "
                                     f"in {text!r}") from None
        return cls(scheme_id.strip(), args)

    def __hash__(self) -> int:
        return hash((self.scheme_id, frozenset(self.args.items())))


class KernelWorkspace:
    """Arrays the kernel below writes into, for chunks of one shape, so
    that a caller that evaluates chunk after chunk allocates once.

    normalized_gains fills u_a, u_b, total (U) and low, which the later
    calls of a chunk read; each writes its result over gain or pool.
    """

    def __init__(self, shape) -> None:
        (self.u_a, self.u_b, self.total, self.low, self.gain, self.pool,
         self.scratch) = (np.empty(shape) for _ in range(7))
        self.on, self.flag = (np.empty(shape, dtype=bool) for _ in range(2))


# The improved gain divides by U; where both gains vanish, U is 0 and this
# floor makes the gain 0 (an outage) instead of 0/0.  No positive U is
# below it, so it changes no other quotient.
_SMALLEST_U = float(np.nextafter(0.0, 1.0))


def normalized_gains(consts: LinkConstants, g_a, g_b, ws: KernelWorkspace) -> None:
    """Fill ws with u_x = g_x/Z_x for squared channel gains g_a and g_b,
    their sum U (ws.total) and the smaller one (ws.low)."""
    np.divide(g_a, consts.z_a, out=ws.u_a)
    np.divide(g_b, consts.z_b, out=ws.u_b)
    np.add(ws.u_a, ws.u_b, out=ws.total)
    np.minimum(ws.u_a, ws.u_b, out=ws.low)


def downlink_gain(consts: LinkConstants, theta, ws: KernelWorkspace):
    """The downlink gain a = kappa*min(w_A*u_A, w_B*u_B) at broadcast
    weight theta, or at the per-trial equalizing weight where theta is
    None, in ws.gain: both downlinks decode iff a*pool >= eps.  theta may
    be an array that broadcasts against ws's shape, one weight per row."""
    gain = ws.gain
    if theta is None:
        np.multiply(ws.u_a, ws.u_b, out=gain)
        gain *= consts.kappa
        gain /= np.maximum(ws.total, _SMALLEST_U, out=ws.scratch)
        return gain
    mix = theta ** 2 + (1.0 - theta) ** 2
    np.multiply(ws.u_a, consts.kappa * (1.0 - theta) ** 2 / mix, out=gain)
    weak_b = np.multiply(ws.u_b, consts.kappa * theta ** 2 / mix, out=ws.scratch)
    return np.minimum(gain, weak_b, out=gain)


def critical_ratio(rho, gain, ws: KernelWorkspace):
    """r*, the largest eps at which a trial succeeds with the ideal
    rectenna, at power split rho (None: the knee split), from gain =
    downlink_gain's a; written over gain."""
    if rho is None:
        spread = np.multiply(gain, 2.0, out=ws.scratch)
        spread += 1.0
        gain *= ws.total
        gain /= spread
        return np.minimum(gain, ws.low, out=gain)
    gain *= ws.total
    gain *= rho
    return np.minimum(gain, np.multiply(ws.low, 1.0 - rho, out=ws.scratch), out=gain)


def harvest_pool(rho, eps: float, floor: float, ws: KernelWorkspace):
    """The pooled harvest at power split rho (None: the knee split),
    threshold eps and rectenna floor pi, in ws.pool, and 0 where an uplink
    fails: a trial succeeds iff downlink_gain's a times it is >= eps.
    Gated (floor > 0), leaves in ws.on where some rectenna converts; with
    floor 0 every harvest converts, and ws.on is not written.  Masks are
    applied by multiplying, whose cost does not depend on the data."""
    pool = ws.pool
    if floor == 0.0:
        if rho is None:
            np.subtract(ws.total, 2.0 * eps, out=pool)
        else:
            np.multiply(ws.total, rho, out=pool)
    else:
        for u, on, harvest in ((ws.u_a, ws.on, pool), (ws.u_b, ws.flag, ws.scratch)):
            if rho is None:
                np.subtract(u, eps, out=harvest)
            else:
                np.multiply(u, rho, out=harvest)
            harvest *= np.greater_equal(harvest, floor, out=on)
        pool += ws.scratch
        ws.on |= ws.flag
    decoded = ws.low if rho is None else np.multiply(ws.low, 1.0 - rho, out=ws.scratch)
    pool *= np.greater_equal(decoded, eps, out=ws.flag)
    return pool


def count_below(values, eps: float, ws: KernelWorkspace) -> int:
    """How many of values (r*, or a times the pool) fall below eps: the
    outage count, equality counting as success."""
    return int(np.count_nonzero(np.less(values, eps, out=ws.flag)))
