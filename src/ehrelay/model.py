"""System model for a three-step two-way relay network with RF energy harvesting.

Terminals A and B exchange messages through a decode-and-forward relay R that
has no power supply of its own.  Each block of length T is split into three
slots: A transmits for beta*T, B transmits for beta*T, and R broadcasts a
re-encoded combination of both messages for the remaining (1-2*beta)*T.  The
relay power-splits each received signal, harvesting a fraction rho_i of the
power and decoding from the rest; the broadcast weights the two re-encoded
messages by a power allocation ratio theta.

All arithmetic below is carried out in linear units (watts, dimensionless
gains).  dBm / dBi inputs are converted exactly once, when derived constants
are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0


def dbm_to_watts(value_dbm: float) -> float:
    """Convert a power from dBm to watts."""
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def dbi_to_linear(gain_dbi: float) -> float:
    """Convert an antenna gain from dBi to a linear ratio."""
    return 10.0 ** (gain_dbi / 10.0)


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
        if not 0.0 < self.time_split < 0.5:
            raise ValueError("time_split must lie strictly between 0 and 0.5")
        if not 0.0 < self.eh_efficiency <= 1.0:
            raise ValueError("eh_efficiency must lie in (0, 1]")
        for name in ("block_duration", "path_loss_exp", "dist_a", "dist_b",
                     "ref_dist", "carrier_freq_hz", "fading_mean_a",
                     "fading_mean_b", "rate_bps_hz"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not (isinstance(self.quad_order, (int, np.integer)) and self.quad_order >= 1):
            raise ValueError("quad_order must be an integer >= 1")

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
class DerivedConstants:
    """Precomputed linear-unit symbols for one (params, theta) configuration.

    Everything downstream (closed forms, region geometry, Monte Carlo
    kernels) reads these instead of redoing unit conversions.
    """

    z_a: float            # d_i^alpha / Lambda_i, Lambda_i the antenna/path factor
    z_b: float
    varpi: float          # gamma_th * sigma^2 / P
    y_big: float          # eta*beta*P / ((1-2*beta)*sigma^2*Z_A*Z_B)
    c_a: float            # gamma_th * Z_A / X_B
    c_b: float            # gamma_th * Z_B / X_A
    d_ratio_a: float      # Z_A / Z_B
    d_ratio_b: float      # Z_B / Z_A
    e_a: float            # 2 * varpi * Z_A
    e_b: float            # 2 * varpi * Z_B
    delta_a: float        # decode-feasibility knee of the A link
    delta_b: float
    a_rate_a: float       # Z_A / fading_mean_a
    a_rate_b: float
    a_o: float            # varpi^2 * Z_A * Z_B * gamma_th / Y
    b_o: float            # varpi^2 * Z_A * Z_B + gamma_th / Y


def _harvest_gain(params: SystemParams) -> float:
    """eta*beta*P / ((1-2*beta)*sigma^2): broadcast SNR per unit harvested gain."""
    beta = params.time_split
    return params.eh_efficiency * beta * params.tx_power_w \
        / ((1.0 - 2.0 * beta) * params.noise_w)


def broadcast_factors(params: SystemParams, z_a: float, z_b: float, theta) -> tuple:
    """Downlink SNR coefficients (X_A, X_B) at weight theta (scalar or array).

    X_A carries (1-theta)^2 and X_B carries theta^2, both normalized by the
    total broadcast weight theta^2 + (1-theta)^2.
    """
    harvest_gain = _harvest_gain(params)
    mix = theta ** 2 + (1.0 - theta) ** 2
    x_a = harvest_gain * (1.0 - theta) ** 2 / (z_a * mix)
    x_b = harvest_gain * theta ** 2 / (z_b * mix)
    return x_a, x_b


def derive_constants(params: SystemParams, theta: float) -> DerivedConstants:
    """Evaluate every derived symbol for the given power allocation ratio.

    Raises ValueError for theta outside the open interval (0, 1).
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie strictly inside (0, 1)")

    alpha = params.path_loss_exp
    wavelength = params.wavelength_m
    g_relay = dbi_to_linear(params.gain_relay_dbi)
    # Close-in path loss factor: free-space at d0, exponent alpha beyond it.
    common = wavelength ** 2 * params.ref_dist ** (alpha - 2.0) / (4.0 * math.pi) ** 2
    lambda_big_a = dbi_to_linear(params.gain_a_dbi) * g_relay * common
    lambda_big_b = dbi_to_linear(params.gain_b_dbi) * g_relay * common
    z_a = params.dist_a ** alpha / lambda_big_a
    z_b = params.dist_b ** alpha / lambda_big_b

    p_w = params.tx_power_w
    n_w = params.noise_w
    gamma_th = params.snr_threshold
    varpi = gamma_th * n_w / p_w

    x_factor_a, x_factor_b = broadcast_factors(params, z_a, z_b, theta)
    y_big = _harvest_gain(params) / (z_a * z_b)

    c_a = gamma_th * z_a / x_factor_b
    c_b = gamma_th * z_b / x_factor_a
    d_ratio_a = z_a / z_b
    d_ratio_b = z_b / z_a
    e_a = 2.0 * varpi * z_a
    e_b = 2.0 * varpi * z_b

    delta_a = 0.5 * (varpi + math.sqrt(varpi ** 2 + 4.0 * gamma_th / (z_a * x_factor_a))) * z_a
    delta_b = 0.5 * (varpi + math.sqrt(varpi ** 2 + 4.0 * gamma_th / (z_b * x_factor_b))) * z_b

    a_rate_a = z_a / params.fading_mean_a
    a_rate_b = z_b / params.fading_mean_b
    a_o = varpi ** 2 * z_a * z_b * gamma_th / y_big
    b_o = varpi ** 2 * z_a * z_b + gamma_th / y_big

    consts = DerivedConstants(
        z_a=z_a, z_b=z_b, varpi=varpi, y_big=y_big,
        c_a=c_a, c_b=c_b, d_ratio_a=d_ratio_a, d_ratio_b=d_ratio_b,
        e_a=e_a, e_b=e_b, delta_a=delta_a, delta_b=delta_b,
        a_rate_a=a_rate_a, a_rate_b=a_rate_b, a_o=a_o, b_o=b_o,
    )
    # The discriminant exceeds varpi^2, so each knee sits strictly above
    # the decode boundary; anything else means broken inputs.
    assert consts.delta_a > varpi * z_a and consts.delta_b > varpi * z_b
    return consts


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


def scheme_controls(consts: DerivedConstants, scheme_id: str, canon: dict, g_a, g_b):
    """Control variables a relay scheme chooses for arrays of realizations.

    g_a and g_b are the squared channel gains |h_A|^2 and |h_B|^2; canon
    holds the scheme's validated arguments ("rho" for static_equal, "theta"
    for dynamic_ps).  Returns (decode_a, decode_b, harvest_a, harvest_b,
    theta) where decode is the 1-rho fraction left for information and
    harvest is rho*g/Z, the harvested-power term of each link.

    static_equal splits both links at one fixed rho with theta 0.5.  The
    adaptive schemes harvest everything beyond decode feasibility; their
    fractions are computed as min(knee/g, 1) rather than via 1-rho so the
    saturated uplink product g*decode reproduces the knee exactly instead
    of through a cancellation.  improved also picks the theta that
    equalizes the two downlink SNRs; when both gains vanish every theta is
    an outage and the symmetric 0.5 is returned for determinism.
    """
    if scheme_id == "static_equal":
        rho = canon["rho"]
        decode_a = decode_b = 1.0 - rho
        harvest_a = rho * g_a / consts.z_a
        harvest_b = rho * g_b / consts.z_b
        return decode_a, decode_b, harvest_a, harvest_b, 0.5

    knee_a = consts.varpi * consts.z_a
    knee_b = consts.varpi * consts.z_b
    with np.errstate(divide="ignore"):
        decode_a = np.minimum(knee_a / g_a, 1.0)
        decode_b = np.minimum(knee_b / g_b, 1.0)
    harvest_a = np.maximum(g_a - knee_a, 0.0) / consts.z_a
    harvest_b = np.maximum(g_b - knee_b, 0.0) / consts.z_b

    if scheme_id == "dynamic_ps":
        theta = canon["theta"]
    else:
        side_a = np.sqrt(g_a * consts.z_b)
        side_b = np.sqrt(g_b * consts.z_a)
        denom = side_a + side_b
        safe = np.where(denom > 0.0, denom, 1.0)
        theta = np.where(denom > 0.0, side_a / safe, 0.5)
        theta = np.clip(theta, _THETA_LO, _THETA_HI)
    return decode_a, decode_b, harvest_a, harvest_b, theta


def link_snrs(params: SystemParams, consts: DerivedConstants, g_a, g_b,
              controls) -> tuple:
    """The four link SNRs (uplink_a, uplink_b, downlink_a, downlink_b).

    controls is the tuple scheme_controls returns.  The broadcast runs on
    the pooled harvest of both links; with a rectenna sensitivity set, a
    link whose harvested RF power stays below it contributes nothing.
    """
    decode_a, decode_b, harvest_a, harvest_b, theta = controls
    snr_scale = params.tx_power_w / params.noise_w
    up_a = g_a * decode_a * snr_scale / consts.z_a
    up_b = g_b * decode_b * snr_scale / consts.z_b

    if params.circuit_sensitivity_dbm is not None:
        floor = params.sensitivity_w
        tx = params.tx_power_w
        harvest_a = np.where(tx * harvest_a >= floor, harvest_a, 0.0)
        harvest_b = np.where(tx * harvest_b >= floor, harvest_b, 0.0)

    x_a, x_b = broadcast_factors(params, consts.z_a, consts.z_b, theta)
    pooled = harvest_a + harvest_b
    down_a = x_a * g_a * pooled
    down_b = x_b * g_b * pooled
    return up_a, up_b, down_a, down_b


def in_outage(params: SystemParams, snrs):
    """True where any of the four links misses the decoding threshold.

    Equality counts as success; the uplinks compare against a threshold
    lowered by _UPLINK_SLACK so the knee splits of the adaptive schemes
    resolve to success regardless of rounding direction.
    """
    up_a, up_b, down_a, down_b = snrs
    gamma_th = params.snr_threshold
    uplink_bar = gamma_th * (1.0 - _UPLINK_SLACK)
    return np.logical_not((up_a >= uplink_bar) & (up_b >= uplink_bar)
                          & (down_a >= gamma_th) & (down_b >= gamma_th))
