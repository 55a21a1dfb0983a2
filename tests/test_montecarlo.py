"""Simulator determinism, estimator statistics, and agreement smoke checks."""

import dataclasses
import itertools
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ehrelay import (
    McConfig,
    McEstimate,
    SystemParams,
    energy_outage,
    derive_constants,
    mc_energy_outage,
    mc_outage,
    outage_capacity,
    outage_dynamic_ps,
)
from ehrelay import montecarlo, sweeps
from ehrelay.model import (NOISE_DBM, KernelWorkspace, SchemeSpec, count_below,
                           critical_ratio, downlink_gain, harvest_pool, link_constants,
                           normalized_gains)
from ehrelay.montecarlo import (BLOCK_TRIALS, CHUNK_TRIALS, _block_layout, _block_rng, _chunks, _outage_block,
                                _plan, _relative_error, _splitmix64, _usable_cores, mc_outages)
from ehrelay.numerics import sample_exponential
from ehrelay.outage import Scenario, case4_geometry
from ehrelay.validation import _DIVERSITY_GEOMETRY

REF_OUTAGE_DYNAMIC = 0.00906277031472058
REF_OUTAGE_IMPROVED = 0.005515817919810595
REF_ENERGY_OUTAGE = 0.011942196384193512

DEFAULTS = SystemParams()
GATED = dataclasses.replace(DEFAULTS, circuit_sensitivity_dbm=-20.0)

SCHEMES = ("static_equal", "dynamic_ps", "improved")

# Exact simulator output at one (seed, trials) whose last block is partial
# and spans several chunks.  These pin the random streams and the kernel
# bit for bit, which the statistical checks cannot: a deterministic shift
# in the counts keeps every run reproducible and shard-invariant.  They are
# simulator output, not independent values; regenerate each as
#   round(mc_outage(params, scheme, None, cfg).probability * REF_TRIALS)
# with cfg = McConfig(trials=REF_TRIALS, seed=REF_SEED),
# and check any change against the closed forms before accepting it.
REF_SEED = 11
REF_TRIALS = BLOCK_TRIALS + 3 * CHUNK_TRIALS + 123
REF_HITS_DEFAULT = {"static_equal": 4958, "dynamic_ps": 2782, "improved": 1687}
REF_HITS_GATED = {"static_equal": 13897, "dynamic_ps": 5320, "improved": 4485}
REF_HITS_ENERGY = 3626


class TestDeterminism:
    def test_splitmix_reference_value(self):
        # First output of the reference splitmix64 stream seeded with zero.
        assert _splitmix64(0) == 0xE220A8397B1DCDAF

    def test_splitmix_blocks_are_distinct(self):
        streams = [_splitmix64(k) for k in range(4)]
        assert len(set(streams)) == 4

    def test_block_rng_reproducible(self):
        first = _block_rng(42, 3).random(4)
        again = _block_rng(42, 3).random(4)
        other = _block_rng(42, 4).random(4)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_block_layout(self):
        assert _block_layout(7) == [(0, 7)]
        assert _block_layout(BLOCK_TRIALS) == [(0, BLOCK_TRIALS)]
        assert _block_layout(2 * BLOCK_TRIALS + 5) == [
            (0, BLOCK_TRIALS), (1, BLOCK_TRIALS), (2, 5)]

    def test_estimate_is_shard_invariant(self):
        runs = [mc_outage(DEFAULTS, "dynamic_ps", {"theta": 0.5},
                          McConfig(trials=100_000, seed=3, shards=s))
                for s in (1, 4, 8)]
        assert runs[0].probability == runs[1].probability == runs[2].probability
        assert runs[0].std_error == runs[1].std_error

    def test_estimate_depends_on_seed(self):
        a = mc_outage(DEFAULTS, "dynamic_ps", {"theta": 0.5},
                      McConfig(trials=100_000, seed=3))
        b = mc_outage(DEFAULTS, "dynamic_ps", {"theta": 0.5},
                      McConfig(trials=100_000, seed=4))
        assert a.probability != b.probability


def _oracle_outage(params, scheme_id, args, g_a, g_b):
    """Per-trial outage of a scheme at gain arrays g_a and g_b, from the
    model equations in plain NumPy: each of the four links' SNR, over
    P/sigma^2, against eps = gamma_th*sigma^2/P."""
    c = link_constants(params)
    resolved = SchemeSpec(scheme_id, args or {}).args
    eps = c.varpi
    u_a, u_b = g_a / c.z_a, g_b / c.z_b
    if scheme_id == "static_equal":
        rho = resolved["rho"]
        uplinks = ((1.0 - rho) * u_a >= eps) & ((1.0 - rho) * u_b >= eps)
        harvest_a, harvest_b = rho * u_a, rho * u_b
    else:
        # The knee split decodes from eps and harvests all beyond it.
        uplinks = (u_a >= eps) & (u_b >= eps)
        harvest_a, harvest_b = np.maximum(u_a - eps, 0.0), np.maximum(u_b - eps, 0.0)
    # A link whose harvest misses the rectenna floor adds nothing; the
    # ideal floor 0 passes every harvest.
    floor = c.harvest_floor
    pooled = harvest_a * (harvest_a >= floor) + harvest_b * (harvest_b >= floor)
    if scheme_id == "improved":
        # The theta that equalizes the downlinks, 0.5 where both gains vanish.
        side_a, side_b = np.sqrt(u_a), np.sqrt(u_b)
        with np.errstate(invalid="ignore"):
            theta = np.where(side_a + side_b > 0.0, side_a / (side_b + side_a), 0.5)
        theta = np.clip(theta, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    else:
        theta = resolved.get("theta", 0.5)
    mix = theta ** 2 + (1.0 - theta) ** 2
    down_a = c.kappa * (1.0 - theta) ** 2 / mix * u_a * pooled
    down_b = c.kappa * theta ** 2 / mix * u_b * pooled
    return ~(uplinks & (down_a >= eps) & (down_b >= eps))


def _kernel_outage(params, scheme_id, args, g_a, g_b, by_ratio):
    """Per-trial outage of a scheme by the kernel: by its r* where by_ratio
    (the ideal rectenna only), else by its pool, as montecarlo runs them."""
    resolved = SchemeSpec(scheme_id, args or {}).args
    rho = resolved.get("rho")
    theta = 0.5 if scheme_id == "static_equal" else resolved.get("theta")
    consts, ws = link_constants(params), KernelWorkspace(len(g_a))
    normalized_gains(consts, g_a, g_b, ws)
    gain = downlink_gain(consts, theta, ws)
    if by_ratio:
        values = critical_ratio(rho, gain, ws)
    else:
        values = gain * harvest_pool(rho, consts.varpi, consts.harvest_floor, ws)
    outage = values < consts.varpi
    assert count_below(values, consts.varpi, ws) == np.count_nonzero(outage)
    return outage


def _whole_block_hits(params, scheme_id, seed, block_index, count):
    """A block's outage count by the oracle, in one pass over its
    whole-drawn gains, without chunking."""
    g_a, g_b = _whole_block_gains(params, seed, block_index, count)
    return int(np.count_nonzero(_oracle_outage(params, scheme_id, None, g_a, g_b)))


def _whole_block_gains(params, seed, block_index, count):
    """A block's gains drawn whole from one generator: g_A, then g_B."""
    rng = _block_rng(seed, block_index)
    g_a = sample_exponential(rng, params.fading_mean_a, out=np.empty(count))
    g_b = sample_exponential(rng, params.fading_mean_b, out=np.empty(count))
    return g_a, g_b


def _whole_block_energy_hits(params, seed, block_index, count):
    """Both links below the rectenna floor under the knee split, in one
    pass over the block's whole-drawn gains."""
    c = link_constants(params)
    g_a, g_b = _whole_block_gains(params, seed, block_index, count)
    harvest_a, harvest_b = g_a / c.z_a - c.varpi, g_b / c.z_b - c.varpi
    floor = c.harvest_floor
    return int(np.count_nonzero((harvest_a < floor) & (harvest_b < floor)))


# Points at which dynamic_ps, at the theta given, falls in the single-curve
# case-4 layouts, as in tests/test_outage.py; each ideal and gated.
_SINGLE_CURVE = dict(tx_power_dbm=-70.0, rate_bps_hz=2.0, fading_mean_a=400.0)
_TWO_LOW = SystemParams(dist_a=5.0, dist_b=2.0, fading_mean_b=150.0, **_SINGLE_CURVE)
_TWO_HIGH = SystemParams(dist_a=2.0, dist_b=2.0, fading_mean_b=50.0, **_SINGLE_CURVE)
ORACLE_POINTS = {
    "ideal": (DEFAULTS, 0.5, None),
    "gated-20dBm": (GATED, 0.5, None),
    **{f"{layout.name}{tag}": (dataclasses.replace(point, circuit_sensitivity_dbm=dbm),
                               theta, layout)
       for point, theta, layout in ((_TWO_LOW, 0.1, Scenario.TwoLow),
                                    (_TWO_HIGH, 0.9, Scenario.TwoHigh))
       for tag, dbm in (("", None), ("-gated-70dBm", -70.0))},
}
# Gains as multiples of their fading mean: exactly 0, or normal floats
# (a subnormal one would overflow knee/g).
_GAIN = st.one_of(st.just(0.0), st.floats(1e-9, 8.0))


@pytest.mark.parametrize("point", ORACLE_POINTS)
@given(gains=st.lists(st.tuples(_GAIN, _GAIN), min_size=1, max_size=64),
       rho=st.floats(0.0, 1.0))
def test_the_kernel_gives_the_oracle_outage_per_trial(point, gains, rho):
    params, theta, layout = ORACLE_POINTS[point]
    if layout is not None:
        assert case4_geometry(derive_constants(params, theta)).scenario is layout
    g_a = np.array([a for a, _ in gains]) * params.fading_mean_a
    g_b = np.array([b for _, b in gains]) * params.fading_mean_b
    ideal = params.circuit_sensitivity_dbm is None
    for scheme_id, args in (("static_equal", {"rho": rho}),
                            ("dynamic_ps", {"theta": theta}), ("improved", {})):
        want = _oracle_outage(params, scheme_id, args, g_a, g_b)
        for by_ratio in (False, True)[:1 + ideal]:
            got = _kernel_outage(params, scheme_id, args, g_a, g_b, by_ratio)
            assert np.array_equal(got, want), (scheme_id, by_ratio)


def _knee_cases(params):
    """Gain pairs on and next to the A knee, B far above its own, and the
    zero-gain pairs; the A knee normalizes onto eps exactly at params."""
    c = link_constants(params)
    assert c.knee_a / c.z_a == c.varpi
    rich_b = 1e7 * params.fading_mean_b
    below = float(np.nextafter(c.knee_a, 0.0))
    assert below / c.z_a < c.varpi
    return {"on-knee": (c.knee_a, rich_b), "below-knee": (below, rich_b),
            "zero-a": (0.0, rich_b), "zero-b": (rich_b, 0.0), "both-zero": (0.0, 0.0)}


@pytest.mark.parametrize("point", ["ideal", "gated-20dBm"])
def test_exact_boundaries_decode_by_the_one_convention(point):
    """A gain on its knee normalizes onto eps, u == eps, and equality
    decodes: the trial succeeds there, and fails one ulp below.  A zero
    gain is an outage, computed without a floating-point warning."""
    params = ORACLE_POINTS[point][0]
    cases = _knee_cases(params)
    g_a = np.array([a for a, _ in cases.values()])
    g_b = np.array([b for _, b in cases.values()])
    want = [name != "on-knee" for name in cases]
    ideal = params.circuit_sensitivity_dbm is None
    for scheme_id, args in (("dynamic_ps", {"theta": 0.5}), ("improved", {})):
        assert _oracle_outage(params, scheme_id, args, g_a, g_b).tolist() == want
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for by_ratio in (False, True)[:1 + ideal]:
                got = _kernel_outage(params, scheme_id, args, g_a, g_b, by_ratio)
                assert got.tolist() == want, (scheme_id, by_ratio)
    # The static split decodes only (1 - rho) of the knee gain: an outage.
    static = _kernel_outage(params, "static_equal", {"rho": 0.5}, g_a, g_b, False)
    assert static.all()


NESTED_THETAS = (0.1, 0.3, 0.5, 0.8, 0.9)
NESTED_RHOS = (0.3, 0.5, 0.7)
_DIVERSITY = SystemParams(**_DIVERSITY_GEOMETRY)
NESTING_POINTS = {
    "default": DEFAULTS,
    "diversity-40dB": dataclasses.replace(_DIVERSITY, tx_power_dbm=NOISE_DBM + 40.0),
    "diversity-70dB": dataclasses.replace(_DIVERSITY, tx_power_dbm=NOISE_DBM + 70.0),
    **{f"rate{rate:g}-{dbm:g}dBm": dataclasses.replace(DEFAULTS, rate_bps_hz=rate,
                                                      tx_power_dbm=dbm)
       for rate in (1.0, 3.0) for dbm in (10.0, 20.0)},
    "gated-20dBm": GATED,
}


def _nesting_violations(params, g_a, g_b, ws) -> dict:
    """How many trials break each nesting (better, worse), where
    r*(improved) >= r*(dynamic_ps, theta) and r*(dynamic_ps, 1/2) >=
    r*(static_equal, rho) should hold: with the ideal rectenna, an r* of
    the worse above the better's; gated, a success of the worse where the
    better fails.  ws is a workspace of the gains' shape."""
    consts = link_constants(params)
    eps, floor = consts.varpi, consts.harvest_floor
    normalized_gains(consts, g_a, g_b, ws)

    def level(rho, theta):
        """Where a trial succeeds iff eps <= level: r*, or gated a*pool."""
        gain = downlink_gain(consts, theta, ws)
        if floor == 0.0:
            return critical_ratio(rho, gain, ws).copy()
        return gain * harvest_pool(rho, eps, floor, ws)

    def broken(better, worse):
        if floor == 0.0:
            return int(np.count_nonzero(worse > better))
        return int(np.count_nonzero((worse >= eps) & (better < eps)))

    improved, half = level(None, None), level(None, 0.5)
    found = {("improved", ("dynamic_ps", theta)): broken(improved, level(None, theta))
             for theta in NESTED_THETAS}
    found.update({(("dynamic_ps", 0.5), ("static_equal", rho)): broken(half, level(rho, 0.5))
                  for rho in NESTED_RHOS})
    return found


@pytest.mark.parametrize("point", NESTING_POINTS)
def test_schemes_nest_per_trial(point):
    """On 2**20 simulator draws, no trial breaks the scheme nesting.

    improved runs the knee split of dynamic_ps and picks, per trial, the
    theta that maximizes the weaker downlink, so its downlink gain is the
    largest over theta.  The knee split harvests, on each link, at least as
    much as any fixed rho whose uplinks decode: (1 - rho)*u >= eps gives
    rho*u <= u - eps.  A larger harvest also passes the rectenna test
    whenever a smaller one does.  So a trial that improved fails, dynamic_ps
    fails at every theta, and one that dynamic_ps at theta = 1/2 fails,
    static_equal (which broadcasts at 1/2) fails at every rho: per trial,
    r*(improved) >= r*(dynamic_ps, theta) >= r*(static_equal, rho) with the
    ideal rectenna, and the verdicts nest when gated.
    """
    params = NESTING_POINTS[point]
    means = (params.fading_mean_a, params.fading_mean_b)
    total = {}
    for block in range(4):
        for g_a, g_b, ws in _chunks(means, 2024, block, BLOCK_TRIALS):
            for pair, count in _nesting_violations(params, g_a, g_b, ws).items():
                total[pair] = total.get(pair, 0) + count
    assert len(total) == 8 and all(count == 0 for count in total.values()), total


@pytest.mark.parametrize("point", [name for name, (_, _, layout) in ORACLE_POINTS.items()
                                   if layout is not None])
@given(gains=st.lists(st.tuples(_GAIN, _GAIN), min_size=1, max_size=64))
def test_schemes_nest_per_trial_at_single_curve_layouts(point, gains):
    params = ORACLE_POINTS[point][0]
    g_a = np.array([a for a, _ in gains]) * params.fading_mean_a
    g_b = np.array([b for _, b in gains]) * params.fading_mean_b
    found = _nesting_violations(params, g_a, g_b, KernelWorkspace(len(gains)))
    assert all(count == 0 for count in found.values()), found


BLOCK_COUNTS = (1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1, 213_568, BLOCK_TRIALS)

# One block-sized float64 array is 2 MiB; streaming in chunks stays below
# it (the whole-block draws alone took two).
ONE_BLOCK_ARRAY = BLOCK_TRIALS * 8


def _traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees run allocate."""
    run()   # warm up lazy imports and caches outside the trace
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockEvaluation:
    @pytest.mark.parametrize("params", [DEFAULTS, GATED],
                             ids=["ideal", "gated-20dBm"])
    @pytest.mark.parametrize("scheme_id", SCHEMES)
    def test_chunks_count_like_the_whole_block(self, params, scheme_id):
        for count in (1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1, 213_568,
                      BLOCK_TRIALS):
            chunked, = _outage_block(_plan([(params, SchemeSpec(scheme_id))]), 5, 3, count)
            assert chunked == _whole_block_hits(params, scheme_id, 5, 3, count)

    def test_chunk_stream_is_the_whole_block_draws(self):
        # Distinct means, so a g_A/g_B swap cannot pass.
        params = dataclasses.replace(DEFAULTS, fading_mean_a=0.7, fading_mean_b=2.5)
        for count in BLOCK_COUNTS:
            chunks = [(g_a.copy(), g_b.copy())
                      for g_a, g_b, _ in _chunks((0.7, 2.5), 5, 3, count)]
            assert [len(a) for a, _ in chunks[:-1]] == [CHUNK_TRIALS] * (len(chunks) - 1)
            whole_a, whole_b = _whole_block_gains(params, 5, 3, count)
            assert np.array_equal(np.concatenate([a for a, _ in chunks]), whole_a)
            assert np.array_equal(np.concatenate([b for _, b in chunks]), whole_b)

    def test_energy_chunks_count_like_the_whole_block(self):
        # A single-block run is block 0.
        for count in BLOCK_COUNTS:
            est = mc_energy_outage(GATED, McConfig(trials=count, seed=5))
            assert est.probability == _whole_block_energy_hits(GATED, 5, 0, count) / count

    def test_block_never_holds_a_block_sized_array(self):
        for params in (DEFAULTS, GATED):
            for scheme_id in SCHEMES:
                cells = _plan([(params, SchemeSpec(scheme_id))])
                assert _traced_peak(lambda: _outage_block(cells, 5, 3, BLOCK_TRIALS)) \
                    < ONE_BLOCK_ARRAY, (params, scheme_id)
        energy = McConfig(trials=BLOCK_TRIALS, seed=5)
        assert _traced_peak(lambda: mc_energy_outage(GATED, energy)) < ONE_BLOCK_ARRAY

    @pytest.mark.parametrize("scheme_id", SCHEMES)
    def test_outage_hits_are_frozen(self, scheme_id):
        cfg = McConfig(trials=REF_TRIALS, seed=REF_SEED)
        for params, hits in ((DEFAULTS, REF_HITS_DEFAULT), (GATED, REF_HITS_GATED)):
            est = mc_outage(params, scheme_id, None, cfg)
            assert est.probability == hits[scheme_id] / REF_TRIALS

    def test_energy_hits_are_frozen(self):
        est = mc_energy_outage(GATED, McConfig(trials=REF_TRIALS, seed=REF_SEED))
        assert est.probability == REF_HITS_ENERGY / REF_TRIALS


# Every scheme on both operating points, and an energy cell.
MIXED_BATCH = (*((params, SchemeSpec(scheme_id)) for params in (DEFAULTS, GATED)
                 for scheme_id in SCHEMES),
               (GATED, None))

# Two operating points interleaved; cells alike but for quad_order, or
# alike outright; one theta at both points; static_equal at two rhos; and
# an energy cell between the cells of its knee-split group.
_M2 = dataclasses.replace(DEFAULTS, quad_order=2)
GROUPED_BATCH = (
    (DEFAULTS, SchemeSpec("dynamic_ps", {"theta": 0.3})),
    (GATED, SchemeSpec("improved")),
    (_M2, SchemeSpec("dynamic_ps", {"theta": 0.3})),
    (DEFAULTS, SchemeSpec("static_equal", {"rho": 0.3})),
    (GATED, None),
    (GATED, SchemeSpec("dynamic_ps", {"theta": 0.3})),
    (_M2, SchemeSpec("improved")),
    (DEFAULTS, SchemeSpec("static_equal", {"rho": 0.7})),
    (DEFAULTS, SchemeSpec("improved")),
    (GATED, SchemeSpec("static_equal")),
    (DEFAULTS, SchemeSpec("dynamic_ps", {"theta": 0.3})),
    (GATED, SchemeSpec("dynamic_ps")),
    (_M2, SchemeSpec("static_equal", {"rho": 0.3})),
)

# Fig 8's beta sweep, ideal and with a -20 dBm rectenna, and an energy cell
# at each gated beta: one u pass, and each pool read by all nine kappas.
_FIG8 = sweeps.FIGURES[8]
FIG8_BATCH = tuple(
    (dataclasses.replace(_FIG8.base, time_split=beta, circuit_sensitivity_dbm=dbm), scheme)
    for dbm in (None, -20.0) for beta in _FIG8.values
    for scheme in (*_FIG8.schemes, *((None,) if dbm else ())))


def _alone(cell, cfg):
    params, scheme = cell
    if scheme is None:
        return mc_energy_outage(params, cfg)
    return mc_outage(params, scheme.scheme_id, scheme.args, cfg)


class TestBatch:
    @pytest.mark.parametrize("batch,shards", [
        *(pytest.param(MIXED_BATCH, s, id=str(s)) for s in (1, 2, 8)),
        *(pytest.param(GROUPED_BATCH, s, id=f"grouped-{s}") for s in (1, 2, 8)),
        *(pytest.param(FIG8_BATCH, s, id=f"fig8-{s}") for s in (1, 2, 8))])
    def test_a_mixed_batch_equals_its_cells_alone(self, batch, shards):
        cfg = McConfig(trials=2 * BLOCK_TRIALS + 12345, seed=7, shards=shards)
        assert mc_outages(batch, cfg) == [_alone(c, cfg) for c in batch]

    def test_a_permuted_batch_gives_each_cell_its_estimate(self):
        cfg = McConfig(trials=REF_TRIALS, seed=REF_SEED)
        want = mc_outages(GROUPED_BATCH, cfg)
        order = np.random.default_rng(3).permutation(len(GROUPED_BATCH))
        assert mc_outages([GROUPED_BATCH[i] for i in order], cfg) == \
            [want[i] for i in order]

    def test_cells_share_their_kernel_passes(self, monkeypatch):
        calls = {}

        def counted(name):
            kernel = getattr(montecarlo, name)

            def run(*args):
                calls[name] = calls.get(name, 0) + 1
                return kernel(*args)
            return run

        names = ("normalized_gains", "downlink_gain", "critical_ratio", "harvest_pool",
                 "count_below")
        for name in names:
            monkeypatch.setattr(montecarlo, name, counted(name))
        one_chunk = McConfig(trials=CHUNK_TRIALS, seed=1)
        # Per chunk, each kernel pass runs once for each distinct set of the
        # inputs it reads: a u pass per (Z_A, Z_B) (fig 6's 9 distances); a
        # downlink gain per (kappa, rho, theta), an r* where it meets several
        # eps with the ideal rectenna (fig 5's powers, fig 7's rates), read
        # against the pool of its eps otherwise (fig 3 moves only M, fig 4
        # theta, fig 8 kappa; fig 9 gates); a pool per (rho, eps, pi),
        # shared by every kappa (fig 8's 9 betas read 2); a count per cell
        # that the kernel tells apart, which against r* reads both edges of
        # eps's rounding band.
        for n, want in ((3, (1, 1, 0, 1, 1)), (4, (1, 17, 0, 1, 17)),
                        (5, (1, 7, 7, 0, 70)), (6, (9, 27, 0, 18, 27)),
                        (7, (1, 3, 3, 0, 60)), (8, (1, 27, 0, 2, 27)),
                        (9, (1, 15, 0, 10, 15))):
            calls.clear()
            sweeps.fig(n, mc=one_chunk)
            assert tuple(calls.get(name, 0) for name in names) == want, n

    def test_params_a_rounding_apart_keep_their_own_counts(self):
        # A transmit power one ulp from the defaults' gives a varpi that
        # rounds apart and the same kappa: the two share a group and an r*,
        # but not a count.  np.float32(30.0) is stored as 30.0, the defaults'
        # cell.
        float32 = dataclasses.replace(DEFAULTS, tx_power_dbm=np.float32(30.0))
        assert _plan([(DEFAULTS, SchemeSpec("improved")),
                      (float32, SchemeSpec("improved"))])[1] == (0, 0)
        narrow = dataclasses.replace(DEFAULTS, tx_power_dbm=float(np.nextafter(30.0, 0.0)))
        assert link_constants(narrow).varpi != link_constants(DEFAULTS).varpi
        cells = [(DEFAULTS, SchemeSpec("improved")), (narrow, SchemeSpec("improved"))]
        groups, slots, _ = _plan(cells)
        assert (len(groups), slots) == (1, (0, 1))
        (_, ratios, pools), = groups
        (_, _, _, counts), = ratios
        assert (len(counts), pools) == (2, ())
        cfg = McConfig(trials=CHUNK_TRIALS, seed=1)
        assert mc_outages(cells, cfg) == [_alone(c, cfg) for c in cells]

    @pytest.mark.parametrize("scheme", [SchemeSpec("dynamic_ps"), SchemeSpec("improved"),
                                        SchemeSpec("static_equal", {"rho": 0.3})],
                             ids=lambda spec: spec.scheme_id)
    def test_trials_on_which_the_two_forms_round_apart_count_alike(self, scheme,
                                                                 monkeypatch):
        """r* < eps and the direct test a*pool < eps disagree on some trials
        within an ulp or two of the downlink boundary.  A cell counted
        against r* in a batch takes the direct test there, which it runs
        alone, so the batch and the cell alone count alike."""
        cells = [(DEFAULTS, scheme), (dataclasses.replace(DEFAULTS, tx_power_dbm=27.0), scheme)]
        plan = _plan(cells)
        (_, ratios, _), = plan[0]
        assert [len(counts) for _, _, _, counts in ratios] == [2]
        _, rho, theta, _ = ratios[0]
        consts, eps = link_constants(DEFAULTS), link_constants(DEFAULTS).varpi
        g_b = np.random.default_rng(0).exponential(1.0, 512) + 1e-3
        ws = KernelWorkspace(g_b.shape)

        def by_ratio(g_a):
            normalized_gains(consts, g_a, g_b, ws)
            return np.less(critical_ratio(rho, downlink_gain(consts, theta, ws), ws), eps)

        # Bisect each g_A onto the downlink boundary of its g_B, then take
        # its neighbours 3 ulps either way.
        lo, hi = np.full_like(g_b, 1e-9), np.full_like(g_b, 1.0)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = by_ratio(mid)
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        g_a = (hi + np.arange(-3, 4)[:, None] * np.spacing(hi)).ravel()
        g_b = np.tile(g_b, 7)
        ws = KernelWorkspace(g_a.shape)
        ratio_says = int(np.count_nonzero(by_ratio(g_a)))
        direct = count_below(downlink_gain(consts, theta, ws)
                             * harvest_pool(rho, eps, 0.0, ws), eps, ws)
        if rho is None:  # the knee split's two forms do round apart here
            assert ratio_says != direct

        def these_trials(means, seed, block_index, count):
            yield g_a, g_b, KernelWorkspace(g_a.shape)

        monkeypatch.setattr(montecarlo, "_chunks", these_trials)
        assert _outage_block(plan, 1, 0, g_a.size)[0] == direct
        assert _outage_block(_plan(cells[:1]), 1, 0, g_a.size) == [direct]

    def test_a_batch_reproduces_the_frozen_hits(self):
        cfg = McConfig(trials=REF_TRIALS, seed=REF_SEED)
        want = [*(REF_HITS_DEFAULT[s] for s in SCHEMES),
                *(REF_HITS_GATED[s] for s in SCHEMES), REF_HITS_ENERGY]
        assert [est.probability for est in mc_outages(MIXED_BATCH, cfg)] == \
            [hits / REF_TRIALS for hits in want]

    def test_an_empty_batch_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_chunks", _no_draws)
        assert mc_outages([], McConfig(trials=10)) == []

    @pytest.mark.parametrize("cells,match", [
        ([(DEFAULTS, SchemeSpec("improved")),
          (dataclasses.replace(DEFAULTS, fading_mean_b=2.0), SchemeSpec("improved"))],
         "fading_mean"),
        ([(GATED, SchemeSpec("improved")), (DEFAULTS, None)], "circuit_sensitivity_dbm"),
    ], ids=["fading-means", "ungated-energy"])
    def test_a_bad_cell_fails_before_any_draw(self, cells, match, monkeypatch):
        monkeypatch.setattr(montecarlo, "_chunks", _no_draws)
        with pytest.raises(ValueError, match=match):
            mc_outages(cells, McConfig(trials=10))

    @pytest.mark.parametrize("params", [DEFAULTS, GATED], ids=["ideal", "gated-20dBm"])
    def test_an_improved_chunk_allocates_no_chunk_array(self, params):
        # The gains and the workspace exist before the trace, as in a block.
        means = (params.fading_mean_a, params.fading_mean_b)
        g_a, g_b, ws = next(_chunks(means, 5, 3, CHUNK_TRIALS))
        consts = link_constants(params)
        eps, floor = consts.varpi, consts.harvest_floor

        def by_pool():
            normalized_gains(consts, g_a, g_b, ws)
            gain = downlink_gain(consts, None, ws)
            pool = harvest_pool(None, eps, floor, ws)
            count_below(np.multiply(gain, pool, out=gain), eps, ws)

        def by_ratio():
            normalized_gains(consts, g_a, g_b, ws)
            count_below(critical_ratio(None, downlink_gain(consts, None, ws), ws), eps, ws)

        for run in (by_pool, by_ratio) if floor == 0.0 else (by_pool,):
            assert _traced_peak(run) < CHUNK_TRIALS * 8, run.__name__

    def test_a_fig5_block_never_holds_a_block_sized_array(self):
        spec = sweeps.FIGURES[5]
        cells = [(dataclasses.replace(spec.base, tx_power_dbm=v), scheme)
                 for v in spec.values for scheme in spec.schemes]
        assert len(cells) == 35
        plan = _plan(cells)
        assert _traced_peak(lambda: _outage_block(plan, 5, 3, BLOCK_TRIALS)) \
            < ONE_BLOCK_ARRAY

    def test_a_sweep_draws_each_chunk_once(self, monkeypatch):
        calls = []

        def counted(rng, mean, out):
            calls.append(len(out))
            return sample_exponential(rng, mean, out=out)

        monkeypatch.setattr(montecarlo, "sample_exponential", counted)
        trials = 3 * CHUNK_TRIALS + 5     # one block of four chunks
        result = sweeps.fig(5, mc=McConfig(trials=trials, seed=1))
        assert len(result.rows) == 35
        assert calls == [CHUNK_TRIALS] * 6 + [5, 5]


def _no_draws(*args, **kwargs):
    raise AssertionError("trials were drawn")


@pytest.mark.parametrize("params", [DEFAULTS, GATED], ids=["ideal", "gated-20dBm"])
@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_hopeless_transmit_power_is_a_sure_outage(params, scheme_id):
    # No scheme here has a theta whose knees could round away, so nothing
    # may refuse the point: every uplink misses, and the outage is 1.0.
    point = dataclasses.replace(params, tx_power_dbm=-260.0)
    assert mc_outage(point, scheme_id, None, McConfig(trials=4096, seed=1)).probability == 1.0


class TestEstimator:
    def test_std_error_is_binomial(self):
        est = mc_outage(DEFAULTS, "dynamic_ps", {"theta": 0.5},
                        McConfig(trials=50_000, seed=9))
        p = est.probability
        assert est.trials == 50_000
        assert est.std_error == pytest.approx(
            math.sqrt(p * (1.0 - p) / 50_000), rel=1e-12)

    def test_error_shrinks_with_budget(self):
        """Mean absolute error over repeats drops when trials quadruple."""
        def mean_abs_err(trials, seeds):
            errs = [abs(mc_outage(DEFAULTS, "dynamic_ps", {"theta": 0.5},
                                  McConfig(trials=trials, seed=s)).probability
                        - REF_OUTAGE_DYNAMIC)
                    for s in seeds]
            return sum(errs) / len(errs)

        coarse = mean_abs_err(20_000, range(20))
        fine = mean_abs_err(80_000, range(100, 120))
        assert fine < coarse

    def test_relative_error(self):
        est = McEstimate(probability=0.01, std_error=0.001, trials=10_000)
        assert _relative_error(0.01, est) == 0.0
        assert _relative_error(0.0101, est) == pytest.approx(0.01, rel=1e-9)
        zero = McEstimate(probability=0.0, std_error=0.0, trials=10_000)
        with pytest.raises(ValueError):
            _relative_error(0.01, zero)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            McEstimate(probability=1.5, std_error=0.0, trials=10)
        with pytest.raises(ValueError):
            McEstimate(probability=0.5, std_error=-1.0, trials=10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)
        with pytest.raises(ValueError):
            McConfig(trials=2.5)
        with pytest.raises(ValueError, match="shards must be an integer >= 1"):
            McConfig(trials=100, shards=0)
        with pytest.raises(ValueError):
            McConfig(trials=100, seed="x")

    def test_shards_beyond_the_trials_give_the_bits_of_one(self):
        # shards only caps the workers, which the blocks cap too.
        many = McConfig(trials=100, seed=3, shards=200)
        assert many.shards == 200
        assert (mc_outage(DEFAULTS, "improved", None, many)
                == mc_outage(DEFAULTS, "improved", None, dataclasses.replace(many, shards=1)))

    @pytest.mark.parametrize("kwargs,field", [
        ({"trials": True}, "trials"),
        ({"trials": 100, "seed": False}, "seed"),
        ({"trials": 100, "shards": True}, "shards"),
        ({"trials": True, "seed": False, "shards": True}, "trials"),
    ])
    def test_config_rejects_bools_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            McConfig(**kwargs)

    def test_config_takes_numpy_integers(self):
        cfg = McConfig(trials=np.int64(100), seed=np.int64(3), shards=np.int64(2))
        assert cfg == McConfig(trials=100, seed=3, shards=2)

    @pytest.mark.parametrize("field,value", [
        ("seed", np.int64(3)),
        ("trials", np.int64(4096)),
        ("trials", np.uint8(200)),
        ("trials", np.int32(3 * BLOCK_TRIALS)),
        ("shards", np.int64(2)),
    ])
    def test_numpy_integers_estimate_as_their_ints(self, field, value):
        # Numpy integers would overflow in the seed mixing and the counts.
        cfg = McConfig(**{"trials": 4096, "seed": 1, field: value})
        assert all(type(getattr(cfg, name)) is int for name in ("trials", "seed", "shards"))
        est = mc_outage(DEFAULTS, "improved", None, cfg)
        assert est == mc_outage(DEFAULTS, "improved", None,
                                dataclasses.replace(cfg, **{field: int(value)}))
        assert type(est.probability) is float and type(est.trials) is int


class TestSchemeArguments:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            mc_outage(DEFAULTS, "oracle", {}, McConfig(trials=10))

    def test_static_rho_domain(self):
        with pytest.raises(ValueError):
            mc_outage(DEFAULTS, "static_equal", {"rho": 1.5}, McConfig(trials=10))

    def test_dynamic_theta_domain(self):
        with pytest.raises(ValueError):
            mc_outage(DEFAULTS, "dynamic_ps", {"theta": 1.0}, McConfig(trials=10))

    def test_leftover_arguments_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            mc_outage(DEFAULTS, "improved", {"theta": 0.5}, McConfig(trials=10))

    def test_energy_requires_sensitivity(self):
        with pytest.raises(ValueError):
            mc_energy_outage(DEFAULTS, McConfig(trials=10))


class TestAgreement:
    def test_dynamic_smoke(self):
        est = mc_outage(DEFAULTS, "dynamic_ps", {"theta": 0.5},
                        McConfig(trials=200_000, seed=5))
        assert abs(est.probability - REF_OUTAGE_DYNAMIC) < 4.0 * est.std_error

    def test_improved_smoke(self):
        est = mc_outage(DEFAULTS, "improved", {},
                        McConfig(trials=200_000, seed=5))
        assert abs(est.probability - REF_OUTAGE_IMPROVED) < 4.0 * est.std_error

    def test_energy_smoke(self):
        gated = dataclasses.replace(DEFAULTS, circuit_sensitivity_dbm=-20.0)
        est = mc_energy_outage(gated, McConfig(trials=200_000, seed=6))
        analytic = energy_outage(gated)
        assert analytic == pytest.approx(REF_ENERGY_OUTAGE, rel=1e-9)
        assert abs(est.probability - analytic) < 4.0 * est.std_error

    def test_outage_grows_with_rate(self):
        cfg = McConfig(trials=1_000_000, seed=17)
        estimates = [
            mc_outage(dataclasses.replace(DEFAULTS, rate_bps_hz=float(u)),
                      "dynamic_ps", {"theta": 0.5}, cfg)
            for u in range(1, 6)
        ]
        for lo, hi in zip(estimates, estimates[1:]):
            slack = 3.0 * (lo.std_error + hi.std_error)
            assert hi.probability > lo.probability - slack

    def test_capacity_composes_outage(self):
        cfg = McConfig(trials=200_000, seed=5)
        cap = outage_capacity(
            DEFAULTS, mc_outage(DEFAULTS, "dynamic_ps", {"theta": 0.5}, cfg).probability)
        est = mc_outage(DEFAULTS, "dynamic_ps", {"theta": 0.5}, cfg)
        assert cap == outage_capacity(DEFAULTS, est.probability)
        analytic_cap = outage_capacity(
            DEFAULTS, outage_dynamic_ps(DEFAULTS, 0.5))
        assert cap == pytest.approx(analytic_cap, abs=1e-3)


class TestDegenerateRegimes:
    def test_vanishing_threshold_never_fails(self):
        easy = dataclasses.replace(DEFAULTS, rate_bps_hz=1e-9)
        est = mc_outage(easy, "dynamic_ps", {"theta": 0.5},
                        McConfig(trials=50_000, seed=1))
        assert est.probability == 0.0

    def test_dead_channel_always_fails(self):
        dead = dataclasses.replace(DEFAULTS, fading_mean_a=1e-30)
        est = mc_outage(dead, "dynamic_ps", {"theta": 0.5},
                        McConfig(trials=50_000, seed=1))
        assert est.probability == 1.0

    def test_energy_extremes(self):
        starved = dataclasses.replace(DEFAULTS, rate_bps_hz=40.0,
                                      circuit_sensitivity_dbm=-20.0)
        est = mc_energy_outage(starved, McConfig(trials=50_000, seed=1))
        assert est.probability == 1.0
        ungated = dataclasses.replace(DEFAULTS, circuit_sensitivity_dbm=-300.0)
        est = mc_energy_outage(ungated, McConfig(trials=50_000, seed=1))
        assert est.probability == 0.0


# tests/test_outage.py's EXTREME_FADING_POINTS A, where Z_B/fading_mean_b
# underflows to 0, and fading means past the bound of
# montecarlo._check_reach, which at the defaults lies at 3.16e156.
EXTREME_FADING = {
    "A": SystemParams(path_loss_exp=6.0, dist_b=0.002, gain_b_dbi=97.0,
                      gain_relay_dbi=94.0, fading_mean_b=1e296),
    "1e160": dataclasses.replace(DEFAULTS, fading_mean_a=1e160, fading_mean_b=1e160),
    "3.2e156": dataclasses.replace(DEFAULTS, fading_mean_a=3.2e156, fading_mean_b=3.2e156),
}


@pytest.mark.parametrize("point", sorted(EXTREME_FADING))
@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_extreme_fading_means_fail_before_any_draw(point, scheme_id, monkeypatch):
    monkeypatch.setattr(montecarlo, "_chunks", _no_draws)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="fading_mean_a=.*fading_mean_b=.*dist_b="):
            mc_outage(EXTREME_FADING[point], scheme_id, None, McConfig(trials=2000, seed=1))


def _largest_or_no_draws():
    """A sample_exponential whose calls give, in turn, the g_A and g_B of
    a chunk: over each 4 trials (max, max), (max, 0), (0, max) and (0, 0),
    max the largest draw sample_exponential can give at the mean."""
    patterns = itertools.cycle([np.array([1.0, 1.0, 0.0, 0.0]),
                                np.array([1.0, 0.0, 1.0, 0.0])])

    def draw(rng, mean, out):
        largest = np.log1p(-(1.0 - 2.0 ** -53)) * -mean
        return np.multiply(np.resize(next(patterns), out.size), largest, out=out)
    return draw


@pytest.mark.parametrize("params", [DEFAULTS, GATED], ids=["ideal", "gated-20dBm"])
@pytest.mark.parametrize("scheme_id", SCHEMES)
def test_the_largest_draws_inside_the_bound_count_each_failed_uplink(params, scheme_id,
                                                                     monkeypatch):
    """Just inside the fading-mean bound the kernel forms no inf or NaN at
    the largest draws, so the 3 trials in 4 with a 0 gain, whose uplink
    fails, all count as outages."""
    inside = dataclasses.replace(params, fading_mean_a=3.1e156, fading_mean_b=3.1e156)
    monkeypatch.setattr(montecarlo, "sample_exponential", _largest_or_no_draws())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate = mc_outage(inside, scheme_id, None, McConfig(trials=4096, seed=1))
    assert estimate.probability == 0.75


def _run_script(script: str, stderr=subprocess.PIPE, **popen) -> subprocess.Popen:
    """Start a fresh interpreter on script, with this ehrelay importable."""
    import ehrelay
    src = str(Path(ehrelay.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=stderr, **popen)


def _is_gone(pid: int) -> bool:
    """No such process, or only its zombie, which nothing may reap here."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state in ("Z", "X")


# A pool never holds more processes than there are usable cores, and one
# of a single process is never made, so the pool tests need two cores.
needs_two_cores = pytest.mark.skipif(_usable_cores() < 2,
                                     reason="a pool needs 2 usable cores")


def _pid_after(delay: float, tag: int) -> tuple:
    """A call for the pool: tag and the pid that ran it, delay s late."""
    time.sleep(delay)
    return tag, os.getpid()


def _fail(message: str) -> None:
    raise ValueError(message)


class TestRunCalls:
    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_two_cores)])
    def test_values_come_back_in_call_order(self, workers):
        # The first call ends last, so the pool answers out of order.
        calls = [(_pid_after, (0.3 if tag == 0 else 0.0, tag)) for tag in range(5)]
        values = montecarlo._run_calls(calls, workers)
        assert [tag for tag, _ in values] == list(range(5))
        pids = {pid for _, pid in values}
        assert pids == {os.getpid()} if workers == 1 else os.getpid() not in pids

    def test_calls_run_in_the_caller_where_it_may_not_fork(self, monkeypatch):
        montecarlo._drop_pool()
        monkeypatch.setattr(montecarlo, "_may_fork", lambda: False)
        assert montecarlo._run_calls([(os.getpid, ())] * 3, 2) == [os.getpid()] * 3
        assert not montecarlo._POOL

    @needs_two_cores
    def test_a_pool_call_raises_its_own_error_and_drops_the_pool(self, capfd):
        calls = [(_pid_after, (0.0, 0)), (_fail, ("fake block",)), (_pid_after, (0.0, 2))]
        with pytest.raises(ValueError, match="fake block"):
            montecarlo._run_calls(calls, 2)
        assert not montecarlo._POOL
        # The pool process printed the call's traceback.
        err = capfd.readouterr().err
        assert "in _fail" in err and "ValueError: fake block" in err
        values = montecarlo._run_calls([(_pid_after, (0.0, tag)) for tag in range(3)], 2)
        assert [tag for tag, _ in values] == [0, 1, 2]

    @needs_two_cores
    def test_a_call_that_does_not_pickle_fails_in_the_caller(self):
        # A closure has no module-global name for a pool process to find.
        with pytest.raises((pickle.PicklingError, AttributeError)):
            montecarlo._run_calls([(lambda: 1, ())] * 2, 2)
        assert not montecarlo._POOL


@pytest.fixture
def pool_requests(monkeypatch):
    """The worker count of each montecarlo._pool call, which goes through.
    The pool is dropped after the test: one made under patched usable
    cores may hold more processes than later tests expect."""
    asked, pool = [], montecarlo._pool

    def spy(workers):
        asked.append(workers)
        return pool(workers)

    monkeypatch.setattr(montecarlo, "_pool", spy)
    yield asked
    montecarlo._drop_pool()


class TestWorkerPool:
    @pytest.mark.parametrize("most,cores,calls,workers", [
        (1, 8, 40, 1),      # a cap of one runs in-process
        (8, 8, 1, 1),       # so does one call
        (4, 2, 40, 2),      # no more workers than cores
        (8, 16, 3, 3),      # nor than calls
        (2, 2, 2, 2),
    ])
    def test_worker_count_rule(self, most, cores, calls, workers, monkeypatch,
                               pool_requests):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
        pids = montecarlo._run_calls([(os.getpid, ())] * calls, most)
        assert len(pids) == calls
        if workers == 1:
            assert pool_requests == [] and set(pids) == {os.getpid()}
        else:
            assert pool_requests == [workers] and os.getpid() not in pids

    def test_worker_count_never_passes_the_usable_cores(self, pool_requests):
        cores = _usable_cores()
        assert 1 <= cores <= os.cpu_count()
        montecarlo._run_calls([(os.getpid, ())] * (cores + 1), 10**6)
        assert pool_requests == ([cores] if cores > 1 else [])

    def test_one_worker_estimates_start_no_process(self):
        script = (
            "import multiprocessing\n"
            "from ehrelay import McConfig, SystemParams, mc_energy_outage, mc_outage, montecarlo\n"
            "from ehrelay.montecarlo import BLOCK_TRIALS\n"
            "gated = SystemParams(circuit_sensitivity_dbm=-20.0)\n"
            "for cfg in (McConfig(trials=BLOCK_TRIALS, seed=1, shards=8),\n"
            "            McConfig(trials=3 * BLOCK_TRIALS, seed=1, shards=1)):\n"
            "    mc_outage(gated, 'improved', None, cfg)\n"
            "    mc_energy_outage(gated, cfg)\n"
            "print(len(multiprocessing.active_children()), len(montecarlo._POOL))\n"
        )
        out, err = _run_script(script).communicate(timeout=300)
        assert out.split() == ["0", "0"], err

    @needs_two_cores
    def test_a_pool_estimate_leaves_one_thread_per_process(self):
        # The calling process starts no thread to run its pool, and a pool
        # process runs on its main thread alone.
        script = (
            "import multiprocessing, os, sys, threading\n"
            "from ehrelay import McConfig, SystemParams, mc_outage\n"
            "from ehrelay.montecarlo import BLOCK_TRIALS\n"
            "cfg = McConfig(trials=2 * BLOCK_TRIALS, seed=1, shards=2)\n"
            "mc_outage(SystemParams(), 'improved', None, cfg)\n"
            "workers = multiprocessing.active_children()\n"
            "tasks = ([len(os.listdir(f'/proc/{p.pid}/task')) for p in workers]\n"
            "         if os.path.isdir('/proc/self') else [1] * len(workers))\n"
            "print(threading.active_count(), 'concurrent.futures.process' in sys.modules,\n"
            "      len(workers), *tasks)\n"
        )
        out, err = _run_script(script).communicate(timeout=300)
        assert out.split() == ["1", "False", "2", "1", "1"], err

    def test_a_daemonic_worker_estimates_in_process(self):
        # A multiprocessing.Pool worker may start no process of its own.
        script = (
            "import multiprocessing\n"
            "from ehrelay import McConfig, SystemParams, mc_outage\n"
            "from ehrelay.montecarlo import BLOCK_TRIALS\n"
            "def estimate(shards):\n"
            "    cfg = McConfig(trials=3 * BLOCK_TRIALS, seed=2, shards=shards)\n"
            "    return mc_outage(SystemParams(), 'improved', None, cfg)\n"
            "if __name__ == '__main__':\n"
            "    with multiprocessing.get_context('fork').Pool(1) as callers:\n"
            "        nested = callers.map(estimate, [2, 8])\n"
            "    print(nested == [estimate(1)] * 2)\n"
        )
        out, err = _run_script(script).communicate(timeout=300)
        assert out.split() == ["True"], err

    @needs_two_cores
    @pytest.mark.parametrize("shards", [2, 8])
    def test_frozen_hits_on_pool_workers(self, shards):
        # REF_TRIALS spans two blocks, so these run on two pool processes.
        cfg = McConfig(trials=REF_TRIALS, seed=REF_SEED, shards=shards)
        for scheme_id in SCHEMES:
            for params, hits in ((DEFAULTS, REF_HITS_DEFAULT), (GATED, REF_HITS_GATED)):
                est = mc_outage(params, scheme_id, None, cfg)
                assert est.probability == hits[scheme_id] / REF_TRIALS
        est = mc_energy_outage(GATED, cfg)
        assert est.probability == REF_HITS_ENERGY / REF_TRIALS

    @needs_two_cores
    def test_multi_block_estimate_is_shard_invariant(self):
        trials = 4 * BLOCK_TRIALS + 5     # five blocks, striped unevenly
        runs = {s: (mc_outage(GATED, "improved", None, McConfig(trials, 3, s)),
                    mc_energy_outage(GATED, McConfig(trials, 3, s)))
                for s in (1, 2, 3, 8)}
        assert len(set(runs.values())) == 1

    @needs_two_cores
    def test_calling_threads_share_the_pool(self):
        def estimate(shards):
            cfg = McConfig(trials=2 * BLOCK_TRIALS + 7, seed=8, shards=shards)
            return mc_outage(GATED, "static_equal", None, cfg)

        want = estimate(2)    # the pool exists before any caller thread
        with ThreadPoolExecutor(4) as callers:
            runs = list(callers.map(estimate, [1, 2, 3, 8] * 3, timeout=300))
        assert runs == [want] * 12

    @needs_two_cores
    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs os.fork")
    def test_a_child_forked_while_the_pool_is_in_use_gets_its_own(self):
        # The child's copy of a held lock would stay locked for good; the
        # child waits at most 60 s for its estimate, then is killed.
        script = (
            "import os, time\n"
            "from ehrelay import McConfig, SystemParams, mc_outage, montecarlo\n"
            "from ehrelay.montecarlo import BLOCK_TRIALS\n"
            "cfg = McConfig(trials=2 * BLOCK_TRIALS, seed=5, shards=2)\n"
            "want = mc_outage(SystemParams(), 'improved', None, cfg)\n"
            "montecarlo._POOL_LOCK.acquire()\n"    # as another thread's estimate would
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    same = mc_outage(SystemParams(), 'improved', None, cfg) == want\n"
            "    montecarlo._drop_pool()\n"
            "    os._exit(0 if same else 3)\n"
            "montecarlo._POOL_LOCK.release()\n"
            "deadline = time.monotonic() + 60.0\n"
            "while not (ended := os.waitpid(pid, os.WNOHANG))[0]:\n"
            "    if time.monotonic() > deadline:\n"
            "        os.kill(pid, 9)\n"
            "        ended = os.waitpid(pid, 0)\n"
            "        print('hung')\n"
            "        break\n"
            "    time.sleep(0.05)\n"
            "print('exit', os.waitstatus_to_exitcode(ended[1]))\n"
        )
        out, err = _run_script(script).communicate(timeout=300)
        assert out.split() == ["exit", "0"], err

    @needs_two_cores
    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs os.fork")
    def test_a_forked_child_that_exits_leaves_the_pool_alone(self):
        # A child's exit ends the daemonic processes multiprocessing lists as
        # its children, and a forked child inherits the parent's list.
        script = (
            "import os, sys\n"
            "from ehrelay import McConfig, SystemParams, mc_outage\n"
            "from ehrelay.montecarlo import BLOCK_TRIALS\n"
            "cfg = McConfig(trials=2 * BLOCK_TRIALS, seed=5, shards=2)\n"
            "want = mc_outage(SystemParams(), 'improved', None, cfg)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    sys.exit(0)\n"
            "os.waitpid(pid, 0)\n"
            "print(mc_outage(SystemParams(), 'improved', None, cfg) == want)\n"
        )
        out, err = _run_script(script).communicate(timeout=300)
        assert (out.split(), err) == (["True"], "")

    @needs_two_cores
    @pytest.mark.parametrize("noticed_by", [BrokenPipeError, EOFError])
    def test_a_broken_pool_raises_and_the_next_call_gets_a_fresh_pool(self, monkeypatch,
                                                                      noticed_by):
        # A worker dead before the estimate fails the send of its first
        # block; one that dies on its block fails the receive of the counts.
        cfg = McConfig(trials=2 * BLOCK_TRIALS, seed=4, shards=2)
        want = mc_outage(DEFAULTS, "improved", None, cfg)
        if noticed_by is BrokenPipeError:
            # The estimate's two blocks go to _POOL[:2], however many
            # processes an earlier test left; the first is sent to _POOL[1].
            # Joined, not just its sentinel seen: a process's pipe ends may
            # close after its sentinel, and a send just before reads ECONNRESET.
            victim = montecarlo._POOL[1][0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
            assert not victim.is_alive()
        else:
            # The fresh pool forks with the patched module, so every
            # worker exits on the first block it is sent.
            montecarlo._drop_pool()
            monkeypatch.setattr(montecarlo, "_outage_block", lambda *block: os._exit(1))
            montecarlo._pool(2)
            monkeypatch.undo()
        pool = [process.pid for process, _ in montecarlo._POOL]
        with pytest.raises(RuntimeError, match="pool process died") as raised:
            mc_outage(DEFAULTS, "improved", None, cfg)
        assert type(raised.value.__cause__) is noticed_by
        assert all(map(_is_gone, pool))
        assert mc_outage(DEFAULTS, "improved", None, cfg) == want
        assert not set(pool) & {p.pid for p in multiprocessing.active_children()}

    @needs_two_cores
    def test_pool_processes_leave_ctrl_c_to_the_parent(self):
        cfg = McConfig(trials=2 * BLOCK_TRIALS, seed=6, shards=2)
        want = mc_outage(DEFAULTS, "dynamic_ps", None, cfg)
        workers = {p.pid for p in multiprocessing.active_children()}
        for pid in workers:
            os.kill(pid, signal.SIGINT)
        time.sleep(0.2)
        assert mc_outage(DEFAULTS, "dynamic_ps", None, cfg) == want
        assert {p.pid for p in multiprocessing.active_children()} == workers

    @needs_two_cores
    def test_ctrl_c_during_an_estimate_drops_the_pool(self, monkeypatch):
        # A Ctrl-C as the first block is sent: the estimate raises it, no
        # pool process outlives it, and the next call gets a fresh pool.
        cfg = McConfig(trials=12 * BLOCK_TRIALS, seed=6, shards=2)
        want = mc_outage(DEFAULTS, "dynamic_ps", None, cfg)
        pool = [process.pid for process, _ in montecarlo._POOL]
        send, sent = multiprocessing.connection.Connection.send_bytes, []

        def interrupted(conn, obj):
            sent.append(obj)
            if len(sent) == 1:
                signal.raise_signal(signal.SIGINT)
            send(conn, obj)

        monkeypatch.setattr(multiprocessing.connection.Connection, "send_bytes", interrupted)
        with pytest.raises(KeyboardInterrupt):
            mc_outage(DEFAULTS, "dynamic_ps", None, cfg)
        monkeypatch.undo()
        assert len(sent) == 1
        assert all(map(_is_gone, pool))
        assert not montecarlo._POOL
        assert mc_outage(DEFAULTS, "dynamic_ps", None, cfg) == want

    @needs_two_cores
    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    @pytest.mark.parametrize("stop", ["sigkill", "sigkill_beside_a_child", "ctrl_c"])
    def test_pool_processes_end_with_their_parent(self, tmp_path, stop):
        # SIGKILL reaches the parent alone; Ctrl-C reaches its whole
        # process group, the pool included, which leaves it to the parent.
        # A child forked beside the pool, which outlives the parent, must
        # not hold the parent's pipe ends open.
        child = ("import os, time\n"
                 "if os.fork() == 0:\n"
                 "    time.sleep(60)\n"
                 "    os._exit(0)\n") if stop == "sigkill_beside_a_child" else ""
        script = (
            "import multiprocessing\n"
            "from ehrelay import McConfig, SystemParams, mc_outage\n"
            "from ehrelay.montecarlo import BLOCK_TRIALS\n"
            "def run(blocks):\n"
            "    cfg = McConfig(trials=blocks * BLOCK_TRIALS, seed=1, shards=2)\n"
            "    mc_outage(SystemParams(), 'improved', None, cfg)\n"
            "run(2)\n"
            + child +
            "print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
            "run(4000)\n"    # far longer than this test waits
        )
        # Surviving workers would hold the parent's pipes open, so stderr
        # goes to a file and stdout is never read to its end.
        errors = tmp_path / "stderr.txt"
        with open(errors, "w", encoding="utf-8") as stderr:
            parent = _run_script(script, stderr=stderr, start_new_session=True)
        watchdog = threading.Timer(120.0, parent.kill)   # bounds the readline
        watchdog.start()
        workers = []
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2, errors.read_text(encoding="utf-8")
            time.sleep(0.5)    # the long estimate is now running on them
            assert not any(map(_is_gone, workers))
            if stop.startswith("sigkill"):
                parent.kill()
            else:
                os.killpg(parent.pid, signal.SIGINT)
            # An interrupted estimate waits only for the blocks running.
            parent.wait(timeout=10)
        finally:
            watchdog.cancel()
            parent.kill()
            parent.wait(timeout=30)
            parent.stdout.close()
            deadline = time.monotonic() + 5.0
            while not all(map(_is_gone, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = [pid for pid in workers if not _is_gone(pid)]
            for pid in survivors:
                os.kill(pid, signal.SIGKILL)
            try:    # the forked child, if any
                os.killpg(parent.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert not survivors, "pool processes outlived their parent"
        if stop == "ctrl_c":
            assert "KeyboardInterrupt" in errors.read_text(encoding="utf-8")
