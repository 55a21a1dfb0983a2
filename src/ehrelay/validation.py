"""Self-contained acceptance checks tying the closed forms to simulation.

Every criterion function is deterministic: fixed seeds, fixed grids, fixed
trial budgets.  Timings go to stderr only, so the rendered report is
byte-stable across runs and shard counts.  Criteria 5 and 6 run the
simulator's kernel (model's docstring states the algebra); criterion 6
checks its pool and r* against broadcast_factors.

run_all runs the criteria that simulate on 1 shard only on a helper thread,
beside the ones that wait on the worker pool, only so that their interpreted
work overlaps the pool's.  Progress lines on stderr come in the order the
criteria end, and each one's seconds include the time it waited for the
other thread.
"""

from __future__ import annotations

import csv
import io
import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .model import (KernelWorkspace, SystemParams, broadcast_factors,
                    critical_ratio, derive_constants, downlink_gain, harvest_pool,
                    link_constants, normalized_gains)
from .montecarlo import McConfig, mc_outage, mc_outages, relative_error
from .outage import (CaseFourGeometry, Scenario, _boundary_gain_a,
                     _boundary_gain_b, _knee_crossing, case4_geometry,
                     cdf_t2_array, cdf_t3_array, diversity_slope,
                     outage_dynamic_ps, outage_improved, p_case4)
from .sweeps import FIGURES, SchemeSpec, SweepSpec, fig, run_sweep


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


# Criterion 8 draws its 1M samples in chunks of this many, so that only one
# sample-sized array is alive at a time.
_KS_CHUNK = 1 << 16

# _ks_statistic evaluates the CDF at every _KS_BLOCK-th sorted sample first.
_KS_BLOCK = 64


def _ks_gaps(values, index, n: int):
    """Two-sided KS gaps of the CDF values at the sorted-sample positions
    index."""
    ranks = (index + 1) / n
    return np.maximum(np.abs(values - ranks), np.abs(values - ranks + 1.0 / n))


def _ks_statistic(sorted_samples, cdf) -> tuple:
    """Kolmogorov-Smirnov distance of sorted samples from cdf, and whether
    the cdf values it evaluated, in sample order, never fall by more than
    1e-12.

    The cdf is evaluated at every _KS_BLOCK-th sample and the last one, the
    edges.  A non-decreasing cdf bounds the gaps of the samples between two
    edges by the cdf values at those edges, so only the blocks whose bound
    exceeds the largest edge gap are evaluated, in one second call.  The
    distance then equals the one over every sample, bit for bit, for any cdf
    that does not decrease along the samples.
    """
    n = len(sorted_samples)
    edges = np.append(np.arange(0, n - 1, _KS_BLOCK), n - 1)
    at_edges = cdf(sorted_samples[edges])
    worst = float(_ks_gaps(at_edges, edges, n).max())
    starts, ends = edges[:-1], edges[1:]
    bounds = np.maximum(at_edges[1:] - starts / n, ends / n - at_edges[:-1])
    # The margin absorbs the rounding of the bounds and of the gaps.
    open_blocks = bounds + 1e-9 > worst
    inner = starts[open_blocks, None] + np.arange(1, _KS_BLOCK)
    inner = inner[inner < ends[open_blocks, None]]
    at_inner = cdf(sorted_samples[inner])
    worst = max(worst, float(_ks_gaps(at_inner, inner, n).max(initial=0.0)))
    order = np.argsort(np.concatenate((edges, inner)))
    values = np.concatenate((at_edges, at_inner))[order]
    return worst, bool(np.all(values[1:] >= values[:-1] - 1e-12))


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


def _agreement(spec: SweepSpec) -> tuple:
    """Worst |closed form - MC| / max(3 se, 5e-3) over the cells of a sweep,
    and whether every cell stays within that tolerance."""
    worst = 0.0
    passed = True
    for row in run_sweep(spec).rows:
        gap = abs(row.analytic_outage - row.mc_outage)
        tol = max(3.0 * row.mc_std_error, 5e-3)
        worst = max(worst, gap / tol)
        passed &= gap <= tol
    return worst, passed


def criterion_dynamic_agreement() -> CriterionResult:
    """Closed-form dynamic-split outage tracks simulation over a theta x rate grid."""
    schemes = tuple(SchemeSpec("dynamic_ps", {"theta": t}) for t in (0.3, 0.5, 0.8))
    worst, passed = _agreement(SweepSpec("rate", (1.0, 2.0, 3.0), schemes, SystemParams(),
                                         McConfig(trials=1_000_000, seed=23, shards=4)))
    return CriterionResult(2, "dynamic-ps-agreement", passed,
                           f"max |analytic-mc|/tol={_fmt(worst)} over 9 cells")


def criterion_improved_agreement() -> CriterionResult:
    """Closed-form improved-scheme outage tracks simulation over transmit power."""
    worst, passed = _agreement(SweepSpec("tx_power", (10.0, 15.0, 20.0, 25.0, 30.0),
                                         (SchemeSpec("improved"),), SystemParams(),
                                         McConfig(trials=1_000_000, seed=29, shards=4)))
    return CriterionResult(3, "improved-agreement", passed,
                           f"max |analytic-mc|/tol={_fmt(worst)} over 5 powers")


def criterion_scheme_ordering() -> CriterionResult:
    """Improved beats dynamic beats static, or the pair is statistically tied."""
    params = SystemParams()
    cfg = McConfig(trials=10_000_000, seed=31, shards=4)
    improved, dynamic, static = mc_outages(
        [(params, SchemeSpec("improved")), (params, SchemeSpec("dynamic_ps", {"theta": 0.5})),
         (params, SchemeSpec("static_equal", {"rho": 0.5}))], cfg)
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
    # The 999 grid weights run in 27 blocks of 37 rows.  No weight changes
    # the pooled harvest, so the gains a compare as the downlink SNRs do.
    ws = KernelWorkspace((37, len(g_a)))
    normalized_gains(consts, g_a, g_b, ws)
    best = downlink_gain(consts, None, ws)[0].copy()
    grid_best = np.zeros_like(best)
    for block in np.linspace(0.001, 0.999, 999).reshape(27, 37, 1):
        np.maximum(grid_best, downlink_gain(consts, block, ws).max(axis=0), out=grid_best)
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
    rng = np.random.default_rng(53)
    gains = []
    # Each realization's 1000 sampled pairs of split fractions, drawn in
    # place in the one array the check reads.
    draws = np.empty((200, 1000, 2))
    for sampled in draws:
        g_a = float(rng.exponential(params.fading_mean_a))
        while g_a <= consts.knee_a:
            g_a = float(rng.exponential(params.fading_mean_a))
        g_b = float(rng.exponential(params.fading_mean_b))
        while g_b <= consts.knee_b:
            g_b = float(rng.exponential(params.fading_mean_b))
        gains.append((g_a, g_b))
        rng.random(out=sampled)
    g_a, g_b = np.array(gains).T
    ws = KernelWorkspace(g_a.shape)
    normalized_gains(consts, g_a, g_b, ws)
    eps = consts.varpi
    # The kernel's weaker downlink SNR at the knee splits: a times its
    # pooled harvest, in units of eps, times P/sigma^2.
    best = (downlink_gain(consts, 0.5, ws) * harvest_pool(None, eps, 0.0, ws)
            * (consts.harvest_gain / consts.kappa))
    # The knee split rho_x = 1 - eps/u_x harvests rho_x*u_x; a smaller split
    # harvests a fraction of that, into the SNR broadcast_factors give.
    harvest_a, harvest_b = ((1.0 - eps / u) * u for u in (ws.u_a, ws.u_b))
    harvest = draws[:, :, 0] * harvest_a[:, None] + draws[:, :, 1] * harvest_b[:, None]
    x_a, x_b = broadcast_factors(consts, 0.5)
    sampled_best = (np.minimum(x_a * g_a, x_b * g_b)[:, None] * harvest).max(axis=1)
    beaten = int(np.count_nonzero(sampled_best > best * (1.0 + 1e-12)))
    uplink_ok = True
    for excess in (1e-6, 0.5, 1.0):
        # Splitting link x past its knee leaves (1 - excess) of its decode
        # fraction eps/u_x; the kernel's r* must then fall below eps.
        for u in (ws.u_a, ws.u_b):
            rho = 1.0 - (1.0 - excess) * (eps / u)
            ratio = critical_ratio(rho, downlink_gain(consts, 0.5, ws), ws)
            uplink_ok &= bool(np.all(ratio < eps))
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


def _sampled_ks(rng, params: SystemParams, n: int, combine, cdf) -> tuple:
    """_ks_statistic of n samples of combine(g_A, g_B) against cdf; g_B is
    drawn chunk by chunk after all of g_A, which gives the values of one
    whole draw, and combine writes each chunk's samples over its g_A."""
    samples = rng.exponential(params.fading_mean_a, n)
    with np.errstate(divide="ignore"):    # 1/(g_A*g_B) is inf where a gain is 0
        for lo in range(0, n, _KS_CHUNK):
            chunk = samples[lo:lo + _KS_CHUNK]
            combine(chunk, rng.exponential(params.fading_mean_b, len(chunk)))
    samples.sort()
    return _ks_statistic(samples, cdf)


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
        for combine, cdf_array in (
                (lambda g_a, g_b: np.add(g_a / consts.z_a, g_b / consts.z_b, out=g_a),
                 cdf_t2_array),
                (lambda g_a, g_b: np.divide(1.0, g_a * g_b, out=g_a), cdf_t3_array)):
            ks, along_samples = _sampled_ks(rng, params, n, combine,
                                            lambda t: cdf_array(consts, t))
            worst_ks = max(worst_ks, ks)
            mono_ok &= along_samples
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
    # The oracle's scipy solvers are imported where used, which keeps
    # scipy.optimize and scipy.integrate out of every other process.
    from scipy.optimize import brentq

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
    # inside that span, where gap rises from negative near zero to positive.
    zero_b = _root_toward_zero(lambda x: _boundary_gain_b(consts, x),
                               max(4.0 * geom.x1, 4.0 * geom.x_plus))
    hi = zero_b * (1.0 - 1e-12)
    while gap(hi) <= 0.0:
        hi = zero_b - (zero_b - hi) * 0.5
        if zero_b - hi < zero_b * 1e-15:
            raise ArithmeticError("crossing bracket collapsed at the curve zero")
    return _root_toward_zero(lambda x: -gap(x), hi)


def _oracle_case4(params: SystemParams, consts, geom: CaseFourGeometry) -> float:
    """Adaptive 2-D integration of the corner success region."""
    from scipy.integrate import quad

    lam_a = params.fading_mean_a
    lam_b = params.fading_mean_b

    def integrand(y: float) -> float:
        # g_A clears the B-bound broadcast curve, and the A-bound one inverted.
        xlo = max(_boundary_gain_a(consts, y),
                  _knee_crossing(consts.c_b, consts.e_b, consts.d_ratio_b, y))
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
        geom = case4_geometry(consts)
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
    cfg = McConfig(trials=1_000_000, seed=71, shards=4)
    plain = mc_outage(SystemParams(), "dynamic_ps", {"theta": 0.5}, cfg)
    rows = run_sweep(SweepSpec("sensitivity", (-30.0, -20.0, -10.0),
                               (SchemeSpec("dynamic_ps", {"theta": 0.5}),),
                               SystemParams(), cfg)).rows
    passed = True
    gaps = []
    # Rows sort by label: per value, the gated scheme, then the energy outage.
    for gated, energy in zip(rows[::2], rows[1::2]):
        gap = abs(energy.analytic_outage - energy.mc_outage)
        passed &= gap <= 3.0 * energy.mc_std_error
        gaps.append(f"P_th={energy.param_value:g}: |gap|={_fmt(gap)} "
                    f"(3se={_fmt(3 * energy.mc_std_error)})")
        passed &= gated.mc_outage >= plain.probability
    return CriterionResult(10, "energy-outage", passed, "; ".join(gaps))


def criterion_capacity_shapes() -> CriterionResult:
    """Rate, time-split, and distance sweeps show the documented shapes."""
    cfg = McConfig(trials=2048, seed=83)
    analytic_schemes = (SchemeSpec("improved"), SchemeSpec("dynamic_ps", {"theta": 0.5}))

    rate_sweep = fig(7, mc=cfg)
    rate_ok = True
    for scheme in analytic_schemes:
        caps = [r.capacity for r in rate_sweep.rows if r.scheme_id == scheme.label()]
        rate_ok &= _unimodal(caps, "max")

    beta_sweep = fig(8, mc=cfg)
    third = run_sweep(replace(FIGURES[8], values=(1.0 / 3.0,),
                              schemes=analytic_schemes, mc=cfg))
    peak_ok = True
    for scheme in analytic_schemes:
        below = [r.capacity for r in beta_sweep.rows
                 if r.scheme_id == scheme.label() and r.param_value < 1.0 / 3.0]
        cap_third, = (r.capacity for r in third.rows if r.scheme_id == scheme.label())
        peak_ok &= cap_third >= max(below) * (1.0 - 1e-12)

    dist_sweep = fig(6, mc=cfg)
    dist_ok = True
    for scheme in analytic_schemes:
        outs = [r.analytic_outage for r in dist_sweep.rows
                if r.scheme_id == scheme.label()]
        dist_ok &= _unimodal(outs, "max")

    passed = rate_ok and peak_ok and dist_ok
    detail = (f"rate capacity interior peak={rate_ok}; "
              f"time-split peak at or beyond 1/3={peak_ok}; "
              f"distance outage interior max={dist_ok}")
    return CriterionResult(11, "capacity-shapes", passed, detail)


def criterion_determinism() -> CriterionResult:
    """Identical seeds give identical bytes regardless of shard count."""
    schemes = (SchemeSpec("dynamic_ps", {"theta": 0.5}), SchemeSpec("improved"))
    outputs = set()
    # One run per shard count, then a rerun of the first.
    for shards in (1, 4, 8, 1):
        spec = SweepSpec(swept_param="tx_power", values=(20.0, 30.0),
                         schemes=schemes, base=SystemParams(),
                         mc=McConfig(trials=600_000, seed=91, shards=shards))
        outputs.add(run_sweep(spec).to_csv())
    passed = len(outputs) == 1
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


# The criteria whose simulations all run on 1 shard, in the calling process,
# so that none submits work to the pool; run_all starts them on its helper
# thread in this order, longest first.
_HELPER_CRITERIA = (8, 9, 11, 5, 6, 7)


def _run_criterion(fn, progress: bool) -> CriterionResult:
    start = time.perf_counter()
    result = fn()
    if progress:
        status = "PASS" if result.passed else "FAIL"
        # One write per line, so that the two threads' lines never interleave.
        sys.stderr.write(f"[{result.index:2d}] {status} {result.name} "
                         f"({time.perf_counter() - start:.1f}s)\n")
    return result


def run_all(progress: bool = False) -> list:
    """The result of each criterion in CRITERIA, read at each call, in
    index order.

    A criterion whose simulations all run on 1 shard runs on one helper
    thread, in the order of _HELPER_CRITERIA.  The others, which wait on
    the worker pool, run in index order on the calling thread, so that the
    two threads' work overlaps.  With progress, each criterion writes a
    line to stderr as it ends.  An exception from either thread
    propagates once the calling thread meets it and the helper's running
    criterion has ended; the helper's criteria that have not started by
    then never run.
    """
    # Imported here, as only the gate runs a helper thread.
    from concurrent.futures.thread import ThreadPoolExecutor

    criteria = CRITERIA
    helper = ThreadPoolExecutor(1)
    try:
        beside = {index: helper.submit(_run_criterion, criteria[index - 1], progress)
                  for index in _HELPER_CRITERIA}
        here = {index: _run_criterion(fn, progress)
                for index, fn in enumerate(criteria, 1) if index not in beside}
        return [here[index] if index in here else beside[index].result()
                for index in range(1, len(criteria) + 1)]
    finally:
        # Wait for the running helper criterion: one still running at
        # interpreter exit can turn a Ctrl-C's exit status 130 into 1.
        helper.shutdown(cancel_futures=True)


def report_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("criterion", "name", "status", "measured"))
    for r in results:
        writer.writerow((r.index, r.name, "PASS" if r.passed else "FAIL", r.detail))
    return buf.getvalue()


def all_passed(results) -> bool:
    return all(r.passed for r in results)
