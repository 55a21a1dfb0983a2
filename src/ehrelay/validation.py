"""Self-contained acceptance checks tying the closed forms to simulation.

Every criterion function is deterministic: fixed seeds, fixed grids, fixed
trial budgets.  Timings go to stderr only, so the rendered report is
byte-stable across runs and shard counts.
"""

from __future__ import annotations

import csv
import io
import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .model import (SystemParams, broadcast_factors, derive_constants,
                    link_constants, link_snrs, scheme_controls)
from .montecarlo import McConfig, mc_energy_outage, mc_outage, relative_error
from .outage import (CaseFourGeometry, Scenario, _boundary_gain_a,
                     _boundary_gain_b, case4_geometry, cdf_t2_array,
                     cdf_t3_array, diversity_slope, energy_outage,
                     outage_capacity, outage_dynamic_ps, outage_improved,
                     p_case4)
from .sweeps import SchemeSpec, SweepSpec, fig, run_sweep


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _unimodal(seq, mode: str) -> bool:
    """Strictly rises to one interior extremum, then strictly falls."""
    values = [float(v) for v in seq]
    if mode == "min":
        values = [-v for v in values]
    k = max(range(len(values)), key=values.__getitem__)
    if not 0 < k < len(values) - 1:
        return False
    rising = all(b > a for a, b in zip(values[:k], values[1:k + 1]))
    falling = all(b < a for a, b in zip(values[k:], values[k + 1:]))
    return rising and falling


def _ks_statistic(sorted_samples, cdf) -> float:
    n = len(sorted_samples)
    values = cdf(sorted_samples)
    ranks = np.arange(1, n + 1, dtype=float) / n
    gaps = np.maximum(np.abs(values - ranks), np.abs(values - ranks + 1.0 / n))
    return float(gaps.max())


def criterion_quadrature() -> CriterionResult:
    """Analytic-vs-MC relative error shrinks with the quadrature order."""
    params = SystemParams()
    mc = mc_outage(params, "dynamic_ps", {"theta": 0.5},
                   McConfig(trials=10_000_000, seed=11, shards=4))
    orders = (2, 3, 5, 10, 20)
    deltas = [relative_error(outage_dynamic_ps(replace(params, quad_order=m), 0.5), mc)
              for m in orders]
    by_order = dict(zip(orders, deltas))
    inversions = sum(1 for a, b in zip(deltas, deltas[1:]) if b > a)
    passed = (by_order[5] <= 0.02 and by_order[10] <= 0.01 and inversions <= 1)
    detail = "; ".join(f"delta(M={m})={_fmt(d)}" for m, d in zip(orders, deltas))
    detail += f"; inversions={inversions}"
    return CriterionResult(1, "quadrature-fidelity", passed, detail)


def criterion_dynamic_agreement() -> CriterionResult:
    """Closed-form dynamic-split outage tracks simulation over a theta x rate grid."""
    worst = 0.0
    passed = True
    cfg = McConfig(trials=1_000_000, seed=23, shards=4)
    for theta in (0.3, 0.5, 0.8):
        for rate in (1.0, 2.0, 3.0):
            params = replace(SystemParams(), rate_bps_hz=rate)
            est = mc_outage(params, "dynamic_ps", {"theta": theta}, cfg)
            gap = abs(outage_dynamic_ps(params, theta) - est.probability)
            tol = max(3.0 * est.std_error, 5e-3)
            worst = max(worst, gap / tol)
            passed &= gap <= tol
    return CriterionResult(2, "dynamic-ps-agreement", passed,
                           f"max |analytic-mc|/tol={_fmt(worst)} over 9 cells")


def criterion_improved_agreement() -> CriterionResult:
    """Closed-form improved-scheme outage tracks simulation over transmit power."""
    worst = 0.0
    passed = True
    cfg = McConfig(trials=1_000_000, seed=29, shards=4)
    for power in (10.0, 15.0, 20.0, 25.0, 30.0):
        params = replace(SystemParams(), tx_power_dbm=power)
        est = mc_outage(params, "improved", {}, cfg)
        gap = abs(outage_improved(params) - est.probability)
        tol = max(3.0 * est.std_error, 5e-3)
        worst = max(worst, gap / tol)
        passed &= gap <= tol
    return CriterionResult(3, "improved-agreement", passed,
                           f"max |analytic-mc|/tol={_fmt(worst)} over 5 powers")


def criterion_scheme_ordering() -> CriterionResult:
    """Improved beats dynamic beats static, or the pair is statistically tied."""
    params = SystemParams()
    cfg = McConfig(trials=10_000_000, seed=31, shards=4)
    improved = mc_outage(params, "improved", {}, cfg)
    dynamic = mc_outage(params, "dynamic_ps", {"theta": 0.5}, cfg)
    static = mc_outage(params, "static_equal", {"rho": 0.5}, cfg)
    passed = True
    notes = [f"improved={_fmt(improved.probability)}",
             f"dynamic={_fmt(dynamic.probability)}",
             f"static={_fmt(static.probability)}"]
    for label, lo, hi in (("improved<=dynamic", improved, dynamic),
                          ("dynamic<=static", dynamic, static)):
        gap = hi.probability - lo.probability
        sigma = math.hypot(lo.std_error, hi.std_error)
        if gap >= 3.0 * sigma:
            notes.append(f"{label}: resolved ({_fmt(gap / sigma)} sigma)")
        elif gap <= -3.0 * sigma:
            notes.append(f"{label}: violated ({_fmt(gap / sigma)} sigma)")
            passed = False
        else:
            notes.append(f"{label}: tied")
    return CriterionResult(4, "scheme-ordering", passed, "; ".join(notes))


def criterion_theta_optimality() -> CriterionResult:
    """The closed-form broadcast weight maximizes the weaker downlink SNR."""
    params = SystemParams()
    consts = link_constants(params)
    rng = np.random.default_rng(41)
    g_a, g_b = rng.exponential((params.fading_mean_a, params.fading_mean_b),
                               size=(200, 2)).T
    controls = scheme_controls(consts, "improved", {}, g_a, g_b)
    _, _, down_a, down_b = link_snrs(params, consts, g_a, g_b, controls)
    best = np.minimum(down_a, down_b)
    grid = np.linspace(0.001, 0.999, 999)[:, None]
    x_a, x_b = broadcast_factors(consts, grid)
    pooled = controls[2] + controls[3]
    grid_best = (np.minimum(x_a * g_a, x_b * g_b) * pooled).max(axis=0)
    resolved = grid_best > 0.0
    worst = float(((best[resolved] - grid_best[resolved]) / grid_best[resolved])
                  .min(initial=math.inf))
    grid_ok = worst >= -1e-9
    curve = [row.analytic_outage for row in fig(4, mc=McConfig(trials=4096, seed=43)).rows]
    shape_ok = _unimodal(curve, "min")
    detail = (f"min margin={_fmt(worst)} over 200 draws x 999 thetas; "
              f"theta sweep interior argmin={shape_ok}")
    return CriterionResult(5, "broadcast-weight-optimality",
                           grid_ok and shape_ok, detail)


def criterion_rho_optimality() -> CriterionResult:
    """No feasible split pair beats the knee splits; pushing past them kills the uplink."""
    params = SystemParams()
    consts = link_constants(params)
    gamma_th = params.snr_threshold
    rng = np.random.default_rng(53)
    gains = []
    scalings = []
    for _ in range(200):
        g_a = float(rng.exponential(params.fading_mean_a))
        while g_a <= consts.knee_a:
            g_a = float(rng.exponential(params.fading_mean_a))
        g_b = float(rng.exponential(params.fading_mean_b))
        while g_b <= consts.knee_b:
            g_b = float(rng.exponential(params.fading_mean_b))
        gains.append((g_a, g_b))
        scalings.append(rng.random((1000, 2)))
    g_a, g_b = np.array(gains).T
    controls = scheme_controls(consts, "dynamic_ps", {"theta": 0.5}, g_a, g_b)
    decode_a, decode_b, harvest_a, harvest_b, theta = controls
    _, _, down_a, down_b = link_snrs(params, consts, g_a, g_b, controls)
    best = np.minimum(down_a, down_b)
    # A smaller split harvests a fraction of each knee-split harvest term.
    draws = np.array(scalings)
    harvest = draws[:, :, 0] * harvest_a[:, None] + draws[:, :, 1] * harvest_b[:, None]
    x_a, x_b = broadcast_factors(consts, theta)
    sampled_best = (np.minimum(x_a * g_a, x_b * g_b)[:, None] * harvest).max(axis=1)
    beaten = int(np.count_nonzero(sampled_best > best * (1.0 + 1e-12)))
    uplink_ok = True
    for excess in (1e-6, 0.5, 1.0):
        # Splitting past the knee leaves (1 - excess) of the decode fraction.
        over = (decode_a * (1.0 - excess), decode_b * (1.0 - excess),
                harvest_a, harvest_b, theta)
        up_a, up_b, _, _ = link_snrs(params, consts, g_a, g_b, over)
        uplink_ok &= bool(np.all(up_a < gamma_th) and np.all(up_b < gamma_th))
    detail = (f"realizations beaten by sampled splits={beaten}/200; "
              f"over-split uplink always below threshold={uplink_ok}")
    return CriterionResult(6, "split-ratio-optimality",
                           beaten == 0 and uplink_ok, detail)


# Short symmetric geometry: the asymptotic decay is reached inside the
# criterion's 40-70 dB window there, which the default 5 m / 15 m layout
# only enters beyond 80 dB.
_DIVERSITY_GEOMETRY = dict(dist_a=1.0, dist_b=1.0, gain_a_dbi=14.0,
                           gain_b_dbi=14.0, gain_relay_dbi=14.0,
                           rate_bps_hz=1.0)


def criterion_diversity() -> CriterionResult:
    """Both adaptive schemes show unit diversity order over 40-70 dB."""
    params = replace(SystemParams(), **_DIVERSITY_GEOMETRY)
    grid = (40.0, 50.0, 60.0, 70.0)
    slope_dyn = diversity_slope(params, lambda p: outage_dynamic_ps(p, 0.5), grid)
    slope_imp = diversity_slope(params, outage_improved, grid)
    passed = 0.8 <= slope_dyn <= 1.2 and 0.8 <= slope_imp <= 1.2
    return CriterionResult(7, "diversity-gain", passed,
                           f"slope dynamic={_fmt(slope_dyn)}; improved={_fmt(slope_imp)}")


def criterion_variable_change_cdfs() -> CriterionResult:
    """Both change-of-variable CDFs match sampling and behave like CDFs."""
    settings = (
        ("defaults", SystemParams()),
        ("equal-rates", replace(SystemParams(), dist_b=5.0)),
        ("near-equal-rates",
         replace(SystemParams(), dist_b=5.0 * (13.0 / 7.0) ** (1.0 / 2.7),
                 fading_mean_a=0.7, fading_mean_b=1.3)),
    )
    n = 1_000_000
    rng = np.random.default_rng(47)
    worst_ks = 0.0
    mono_ok = True
    limits_ok = True
    for _, params in settings:
        consts = link_constants(params)
        g_a = rng.exponential(params.fading_mean_a, n)
        g_b = rng.exponential(params.fading_mean_b, n)
        pair_sum = np.sort(g_a / consts.z_a + g_b / consts.z_b)
        worst_ks = max(worst_ks,
                       _ks_statistic(pair_sum, lambda t: cdf_t2_array(consts, t)))
        with np.errstate(divide="ignore"):
            inv_prod = np.sort(1.0 / (rng.exponential(params.fading_mean_a, n)
                                      * rng.exponential(params.fading_mean_b, n)))
        worst_ks = max(worst_ks,
                       _ks_statistic(inv_prod, lambda t: cdf_t3_array(consts, t)))
        grid_2 = cdf_t2_array(consts, np.geomspace(1e-12, 10.0, 10_000))
        grid_3 = cdf_t3_array(consts, np.geomspace(1e-8, 1e12, 10_000))
        for series in (grid_2, grid_3):
            mono_ok &= bool(np.all(series[1:] >= series[:-1] - 1e-12))
            limits_ok &= bool(series[0] <= 1e-6 and 1.0 - series[-1] <= 1e-6)
    passed = worst_ks <= 0.002 and mono_ok and limits_ok
    detail = (f"max KS={_fmt(worst_ks)} over 3 settings x 2 CDFs; "
              f"monotone={mono_ok}; limits={limits_ok}")
    return CriterionResult(8, "variable-change-cdfs", passed, detail)


def _root_toward_zero(f, hi: float) -> float:
    """Root in (0, hi] of a function that is positive near zero, negative at hi."""
    lo = 0.5 * hi
    while f(lo) <= 0.0:
        lo *= 0.5
        if lo < hi * 1e-300:
            raise ArithmeticError("no sign change found while bracketing")
    return brentq(f, lo, hi, xtol=1e-280, rtol=4.0 * np.finfo(float).eps,
                  maxiter=200)


def _crossing_root(consts, geom: CaseFourGeometry) -> float:
    """Locate the curve crossing by root-finding, independent of its closed form."""
    def gap(x: float) -> float:
        return _boundary_gain_a(consts, _boundary_gain_b(consts, x)) - x

    # The B-curve is positive only left of its own zero; the crossing lies
    # inside that span.
    zero_b = _root_toward_zero(lambda x: _boundary_gain_b(consts, x),
                               max(4.0 * geom.x1, 4.0 * geom.x_plus))
    hi = zero_b * (1.0 - 1e-12)
    while gap(hi) <= 0.0:
        hi = zero_b - (zero_b - hi) * 0.5
        if zero_b - hi < zero_b * 1e-15:
            raise ArithmeticError("crossing bracket collapsed at the curve zero")
    lo = 0.5 * hi
    while gap(lo) >= 0.0:
        lo *= 0.5
        if lo < zero_b * 1e-300:
            raise ArithmeticError("no sign change found for the crossing")
    return brentq(gap, lo, hi, xtol=1e-280, rtol=4.0 * np.finfo(float).eps,
                  maxiter=200)


def _oracle_case4(params: SystemParams, consts, geom: CaseFourGeometry) -> float:
    """Adaptive 2-D integration of the corner success region."""
    lam_a = params.fading_mean_a
    lam_b = params.fading_mean_b

    def x_lower(y: float) -> float:
        shift = consts.e_b - y
        inverse_b = (shift + math.sqrt(shift * shift
                                       + 4.0 * consts.d_ratio_b * consts.c_b)) \
            / (2.0 * consts.d_ratio_b)
        return max(_boundary_gain_a(consts, y), inverse_b)

    def integrand(y: float) -> float:
        xlo = x_lower(y)
        if xlo >= geom.x1:
            return 0.0
        return (math.exp(-xlo / lam_a) - math.exp(-geom.x1 / lam_a)) \
            * math.exp(-y / lam_b) / lam_b

    lo, hi = geom.q1, geom.y1
    if not hi > lo:
        return 0.0
    edges = [lo] + sorted(p for p in {geom.y_delta, geom.y_plus} if lo < p < hi) + [hi]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        piece, _ = quad(integrand, a, b, limit=200, epsabs=1e-13, epsrel=1e-12)
        total += piece
    return total


def criterion_case4_oracle() -> CriterionResult:
    """Corner geometry and its quadrature agree with independent numerics."""
    rng = np.random.default_rng(61)
    worst_root = 0.0
    worst_mass = 0.0
    counts: dict = {}
    for _ in range(50):
        params = SystemParams(
            tx_power_dbm=float(rng.uniform(5.0, 35.0)),
            rate_bps_hz=float(rng.uniform(0.5, 4.0)),
            dist_a=float(rng.uniform(1.0, 12.0)),
            dist_b=float(rng.uniform(1.0, 20.0)),
            time_split=float(rng.uniform(0.08, 0.45)),
            eh_efficiency=float(rng.uniform(0.3, 0.9)),
            fading_mean_a=float(rng.uniform(0.5, 2.0)),
            fading_mean_b=float(rng.uniform(0.5, 2.0)),
            quad_order=40,
        )
        theta = float(rng.uniform(0.15, 0.85))
        consts = derive_constants(params, theta)
        geom = case4_geometry(params, consts)
        counts[geom.scenario.name] = counts.get(geom.scenario.name, 0) + 1
        if geom.scenario is Scenario.One:
            continue

        root_xd = _root_toward_zero(
            lambda x: _boundary_gain_b(consts, x) - geom.y1, geom.x1)
        worst_root = max(worst_root, abs(root_xd - geom.x_delta) / geom.x_delta)
        root_yd = _root_toward_zero(
            lambda y: _boundary_gain_a(consts, y) - geom.x1, geom.y1)
        worst_root = max(worst_root, abs(root_yd - geom.y_delta) / geom.y_delta)
        root_xp = _crossing_root(consts, geom)
        worst_root = max(worst_root, abs(root_xp - geom.x_plus) / geom.x_plus)
        root_yp = _boundary_gain_b(consts, root_xp)
        worst_root = max(worst_root, abs(root_yp - geom.y_plus) / abs(geom.y_plus))

        mass_gap = abs(p_case4(params, consts, geom)
                       - _oracle_case4(params, consts, geom))
        worst_mass = max(worst_mass, mass_gap)
    passed = worst_root <= 1e-8 and worst_mass <= 1e-4
    layout = ",".join(f"{k}={v}" for k, v in sorted(counts.items()))
    detail = (f"max root rel diff={_fmt(worst_root)}; "
              f"max corner-mass abs diff={_fmt(worst_mass)}; layouts {layout}")
    return CriterionResult(9, "corner-geometry-oracle", passed, detail)


def criterion_energy_outage() -> CriterionResult:
    """Closed-form energy outage matches simulation; gating only hurts."""
    base = SystemParams()
    cfg = McConfig(trials=1_000_000, seed=71, shards=4)
    plain = mc_outage(base, "dynamic_ps", {"theta": 0.5}, cfg)
    passed = True
    gaps = []
    for sensitivity in (-30.0, -20.0, -10.0):
        params = replace(base, circuit_sensitivity_dbm=sensitivity)
        closed = energy_outage(params, link_constants(params))
        est = mc_energy_outage(params, cfg)
        gap = abs(closed - est.probability)
        passed &= gap <= 3.0 * est.std_error
        gaps.append(f"P_th={sensitivity:g}: |gap|={_fmt(gap)} (3se={_fmt(3 * est.std_error)})")
        gated = mc_outage(params, "dynamic_ps", {"theta": 0.5}, cfg)
        passed &= gated.probability >= plain.probability
    return CriterionResult(10, "energy-outage", passed, "; ".join(gaps))


def criterion_capacity_shapes() -> CriterionResult:
    """Rate, time-split, and distance sweeps show the documented shapes."""
    cfg = McConfig(trials=2048, seed=83)
    analytic_schemes = ("improved", "dynamic_ps:theta=0.5")

    rate_sweep = fig(7, mc=cfg)
    rate_ok = True
    for scheme in analytic_schemes:
        caps = [r.capacity for r in rate_sweep.rows if r.scheme_id == scheme]
        rate_ok &= _unimodal(caps, "max")

    beta_sweep = fig(8, mc=cfg)
    base8 = replace(SystemParams(), tx_power_dbm=20.0, rate_bps_hz=5.0)
    third = replace(base8, time_split=1.0 / 3.0)
    peak_ok = True
    for scheme in analytic_schemes:
        rows = [r for r in beta_sweep.rows if r.scheme_id == scheme]
        below = [r.capacity for r in rows if r.param_value < 1.0 / 3.0]
        if scheme == "improved":
            cap_third = outage_capacity(third, outage_improved(third))
        else:
            cap_third = outage_capacity(third, outage_dynamic_ps(third, 0.5))
        peak_ok &= cap_third >= max(below) * (1.0 - 1e-12)

    dist_sweep = fig(6, mc=cfg)
    dist_ok = True
    for scheme in analytic_schemes:
        outs = [r.analytic_outage for r in dist_sweep.rows if r.scheme_id == scheme]
        dist_ok &= _unimodal(outs, "max")

    passed = rate_ok and peak_ok and dist_ok
    detail = (f"rate capacity interior peak={rate_ok}; "
              f"time-split peak at or beyond 1/3={peak_ok}; "
              f"distance outage interior max={dist_ok}")
    return CriterionResult(11, "capacity-shapes", passed, detail)


def criterion_determinism() -> CriterionResult:
    """Identical seeds give identical bytes regardless of shard count."""
    schemes = (SchemeSpec("dynamic_ps", {"theta": 0.5}), SchemeSpec("improved"))
    outputs = []
    for shards in (1, 4, 8):
        spec = SweepSpec(swept_param="tx_power", values=(20.0, 30.0),
                         schemes=schemes, base=SystemParams(),
                         mc=McConfig(trials=600_000, seed=91, shards=shards))
        outputs.append(run_sweep(spec).to_csv())
    repeat = run_sweep(SweepSpec(swept_param="tx_power", values=(20.0, 30.0),
                                 schemes=schemes, base=SystemParams(),
                                 mc=McConfig(trials=600_000, seed=91, shards=1))).to_csv()
    passed = outputs[0] == outputs[1] == outputs[2] == repeat
    return CriterionResult(12, "determinism", passed,
                           f"identical CSV across shards 1/4/8 and rerun={passed}")


CRITERIA = (
    criterion_quadrature,
    criterion_dynamic_agreement,
    criterion_improved_agreement,
    criterion_scheme_ordering,
    criterion_theta_optimality,
    criterion_rho_optimality,
    criterion_diversity,
    criterion_variable_change_cdfs,
    criterion_case4_oracle,
    criterion_energy_outage,
    criterion_capacity_shapes,
    criterion_determinism,
)


def run_all(progress: bool = False) -> list:
    results = []
    for fn in CRITERIA:
        start = time.perf_counter()
        result = fn()
        if progress:
            status = "PASS" if result.passed else "FAIL"
            print(f"[{result.index:2d}] {status} {result.name} "
                  f"({time.perf_counter() - start:.1f}s)", file=sys.stderr)
        results.append(result)
    return results


def report_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("criterion", "name", "status", "measured"))
    for r in results:
        writer.writerow((r.index, r.name, "PASS" if r.passed else "FAIL", r.detail))
    return buf.getvalue()


def all_passed(results) -> bool:
    return all(r.passed for r in results)
