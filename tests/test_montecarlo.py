"""Simulator determinism, estimator statistics, and agreement smoke checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

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
    outage_improved,
    relative_error,
)
from ehrelay.model import in_outage, link_snrs, scheme_controls
from ehrelay.montecarlo import (BLOCK_TRIALS, CHUNK_TRIALS, _block_layout,
                                _block_rng, _chunks, _outage_block,
                                _parse_scheme_args, _splitmix64)
from ehrelay.numerics import sample_exponential

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


def _whole_block_hits(params, scheme_id, seed, block_index, count):
    """Evaluate a block's draws in one kernel pass, without chunking."""
    consts = derive_constants(params, 0.5)
    canon = _parse_scheme_args(scheme_id, None)
    rng = _block_rng(seed, block_index)
    g_a = sample_exponential(rng, params.fading_mean_a, count)
    g_b = sample_exponential(rng, params.fading_mean_b, count)
    controls = scheme_controls(consts, scheme_id, canon, g_a, g_b)
    snrs = link_snrs(params, consts, g_a, g_b, controls)
    return int(np.count_nonzero(in_outage(params, snrs)))


def _whole_block_gains(params, seed, block_index, count):
    """A block's gains drawn whole from one generator: g_A, then g_B."""
    rng = _block_rng(seed, block_index)
    g_a = sample_exponential(rng, params.fading_mean_a, count)
    g_b = sample_exponential(rng, params.fading_mean_b, count)
    return g_a, g_b


def _whole_block_energy_hits(params, seed, block_index, count):
    """Both links below the rectenna sensitivity under the knee split, in
    one pass over the block's whole-drawn gains."""
    consts = derive_constants(params, 0.5)
    g_a, g_b = _whole_block_gains(params, seed, block_index, count)
    harvest_a = np.maximum(g_a - consts.knee_a, 0.0) / consts.z_a
    harvest_b = np.maximum(g_b - consts.knee_b, 0.0) / consts.z_b
    tx, floor = params.tx_power_w, params.sensitivity_w
    return int(np.count_nonzero((tx * harvest_a < floor) & (tx * harvest_b < floor)))


BLOCK_COUNTS = (1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1, 213_568, BLOCK_TRIALS)


class TestBlockEvaluation:
    @pytest.mark.parametrize("params", [DEFAULTS, GATED],
                             ids=["ideal", "gated-20dBm"])
    @pytest.mark.parametrize("scheme_id", SCHEMES)
    def test_chunks_count_like_the_whole_block(self, params, scheme_id):
        consts = derive_constants(params, 0.5)
        canon = _parse_scheme_args(scheme_id, None)
        for count in (1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1, 213_568,
                      BLOCK_TRIALS):
            chunked = _outage_block(params, consts, scheme_id, canon,
                                    5, 3, count)
            assert chunked == _whole_block_hits(params, scheme_id, 5, 3, count)

    def test_chunk_stream_is_the_whole_block_draws(self):
        # Distinct means, so a g_A/g_B swap cannot pass.
        params = dataclasses.replace(DEFAULTS, fading_mean_a=0.7, fading_mean_b=2.5)
        for count in BLOCK_COUNTS:
            chunks = [(g_a.copy(), g_b.copy())
                      for g_a, g_b, _ in _chunks(params, 5, 3, count)]
            assert [len(a) for a, _ in chunks[:-1]] == [CHUNK_TRIALS] * (len(chunks) - 1)
            whole_a, whole_b = _whole_block_gains(params, 5, 3, count)
            assert np.array_equal(np.concatenate([a for a, _ in chunks]), whole_a)
            assert np.array_equal(np.concatenate([b for _, b in chunks]), whole_b)

    def test_energy_chunks_count_like_the_whole_block(self):
        # A single-block run is block 0, evaluated by the energy worker.
        for count in BLOCK_COUNTS:
            est = mc_energy_outage(GATED, McConfig(trials=count, seed=5))
            assert est.probability == _whole_block_energy_hits(GATED, 5, 0, count) / count

    def test_block_never_holds_a_block_sized_array(self):
        # One block-sized float64 array is 2 MiB; streaming in chunks stays
        # below it (the whole-block draws alone took two).
        limit = BLOCK_TRIALS * 8

        def peak(run) -> int:
            run()   # warm up lazy imports and caches outside the trace
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for params in (DEFAULTS, GATED):
            consts = derive_constants(params, 0.5)
            for scheme_id in SCHEMES:
                canon = _parse_scheme_args(scheme_id, None)
                assert peak(lambda: _outage_block(params, consts, scheme_id, canon, 5, 3,
                                                  BLOCK_TRIALS)) < limit, (params, scheme_id)
        energy = McConfig(trials=BLOCK_TRIALS, seed=5)
        assert peak(lambda: mc_energy_outage(GATED, energy)) < limit

    @pytest.mark.parametrize("scheme_id", SCHEMES)
    def test_outage_hits_are_frozen(self, scheme_id):
        cfg = McConfig(trials=REF_TRIALS, seed=REF_SEED)
        for params, hits in ((DEFAULTS, REF_HITS_DEFAULT), (GATED, REF_HITS_GATED)):
            est = mc_outage(params, scheme_id, None, cfg)
            assert est.probability == hits[scheme_id] / REF_TRIALS

    def test_energy_hits_are_frozen(self):
        est = mc_energy_outage(GATED, McConfig(trials=REF_TRIALS, seed=REF_SEED))
        assert est.probability == REF_HITS_ENERGY / REF_TRIALS


@pytest.mark.filterwarnings("error")
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
        assert relative_error(0.01, est) == 0.0
        assert relative_error(0.0101, est) == pytest.approx(0.01, rel=1e-9)
        zero = McEstimate(probability=0.0, std_error=0.0, trials=10_000)
        with pytest.raises(ValueError):
            relative_error(0.01, zero)

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
        with pytest.raises(ValueError):
            McConfig(trials=100, shards=0)
        with pytest.raises(ValueError):
            McConfig(trials=100, shards=101)
        with pytest.raises(ValueError):
            McConfig(trials=100, seed="x")


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
        analytic = energy_outage(gated, derive_constants(gated, 0.5))
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
