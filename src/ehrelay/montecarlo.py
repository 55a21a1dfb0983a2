"""Monte Carlo estimation of outage probabilities by direct simulation.

Trials are processed in fixed-size blocks; block k draws from a generator
seeded with seed XOR splitmix64(k), so the stream belonging to a trial
depends only on (seed, trials), never on how blocks are distributed over
worker threads.  That is what makes estimates bit-identical across shard
counts and across runs.

A block of count trials takes g_A from the first count uniforms of its
stream and g_B from the next count.  It streams them CHUNK_TRIALS at a
time: g_A from the block generator, and g_B from a second generator seeded
the same way and advanced past the first count draws (PCG64 jumps ahead in
O(log count) steps), so chunking never changes which uniform a trial gets.
Each chunk is drawn into reused arrays, the physics kernel runs in place
in one reused model.KernelWorkspace, and the integer hit counts are
summed.  The kernel is elementwise, so the counts equal those of one
whole-block pass, while a block never holds a block-sized array and its
working set fits in a core's cache.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (KernelWorkspace, SystemParams, check_theta, in_energy_outage,
                    in_outage, link_constants, link_snrs, scheme_controls)
from .numerics import sample_exponential

BLOCK_TRIALS = 1 << 18
CHUNK_TRIALS = 1 << 14

_MASK64 = (1 << 64) - 1

_SCHEME_IDS = ("static_equal", "dynamic_ps", "improved")


def _splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    mixed = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    mixed = (mixed ^ (mixed >> 27)) * 0x94D049BB133111EB & _MASK64
    return mixed ^ (mixed >> 31)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.default_rng((seed & _MASK64) ^ _splitmix64(block_index))


@dataclass(frozen=True)
class McConfig:
    """Simulation budget and reproducibility knobs."""

    trials: int = 1_000_000
    seed: int = 0
    shards: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise ValueError("trials must be an integer >= 1")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer")
        if not (isinstance(self.shards, (int, np.integer))
                and 1 <= self.shards <= self.trials):
            raise ValueError("shards must be an integer in [1, trials]")


@dataclass(frozen=True)
class McEstimate:
    """Frequency estimate with its binomial standard error."""

    probability: float
    std_error: float
    trials: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be nonnegative")


def _parse_scheme_args(scheme_id: str, scheme_args) -> dict:
    """Validate and canonicalize the per-scheme arguments, failing fast."""
    if scheme_id not in _SCHEME_IDS:
        raise ValueError(f"unknown scheme_id {scheme_id!r}; expected one of {_SCHEME_IDS}")
    args = dict(scheme_args or {})
    canon: dict = {}
    if scheme_id == "static_equal":
        rho = float(args.pop("rho", 0.5))
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        canon["rho"] = rho
    elif scheme_id == "dynamic_ps":
        theta = float(args.pop("theta", 0.5))
        check_theta(theta)
        canon["theta"] = theta
    if args:
        raise ValueError(f"unsupported arguments for {scheme_id!r}: {sorted(args)}")
    return canon


def _chunks(params: SystemParams, seed: int, block_index: int, count: int):
    """Yield a block's trials as (g_a, g_b, ws), CHUNK_TRIALS at a time.

    g_a, g_b and the kernel workspace ws are reused from chunk to chunk.
    """
    rng_a = _block_rng(seed, block_index)
    rng_b = _block_rng(seed, block_index)
    rng_b.bit_generator.advance(count)
    size = 0
    for start in range(0, count, CHUNK_TRIALS):
        m = min(CHUNK_TRIALS, count - start)
        if m != size:
            size = m
            g_a, g_b, ws = np.empty(m), np.empty(m), KernelWorkspace(m)
        yield (sample_exponential(rng_a, params.fading_mean_a, m, out=g_a),
               sample_exponential(rng_b, params.fading_mean_b, m, out=g_b), ws)


def _outage_block(params: SystemParams, consts, scheme_id: str, canon: dict,
                  seed: int, block_index: int, count: int) -> int:
    hits = 0
    for g_a, g_b, ws in _chunks(params, seed, block_index, count):
        controls = scheme_controls(consts, scheme_id, canon, g_a, g_b, ws)
        snrs = link_snrs(params, consts, g_a, g_b, controls, ws)
        hits += int(np.count_nonzero(in_outage(params, snrs, ws)))
    return hits


def _block_layout(trials: int) -> list[tuple[int, int]]:
    full, rest = divmod(trials, BLOCK_TRIALS)
    layout = [(k, BLOCK_TRIALS) for k in range(full)]
    if rest:
        layout.append((full, rest))
    return layout


def _run_blocks(worker, cfg: McConfig) -> int:
    layout = _block_layout(cfg.trials)
    if cfg.shards == 1 or len(layout) == 1:
        return sum(worker(idx, n) for idx, n in layout)
    with ThreadPoolExecutor(max_workers=cfg.shards) as pool:
        return sum(pool.map(lambda item: worker(*item), layout))


def _estimate(hits: int, trials: int) -> McEstimate:
    p = hits / trials
    return McEstimate(probability=p,
                      std_error=math.sqrt(p * (1.0 - p) / trials),
                      trials=trials)


def mc_outage(params: SystemParams, scheme_id: str, scheme_args,
              cfg: McConfig) -> McEstimate:
    """Estimate the system outage probability of a scheme by simulation."""
    canon = _parse_scheme_args(scheme_id, scheme_args)
    consts = link_constants(params)

    def worker(block_index: int, count: int) -> int:
        return _outage_block(params, consts, scheme_id, canon,
                             cfg.seed, block_index, count)

    return _estimate(_run_blocks(worker, cfg), cfg.trials)


def mc_energy_outage(params: SystemParams, cfg: McConfig) -> McEstimate:
    """Estimate the probability that both links miss the rectenna threshold.

    Links harvest under the knee split; link_snrs's rectenna test decides
    (model.in_energy_outage).
    """
    if params.circuit_sensitivity_dbm is None:
        raise ValueError("mc_energy_outage requires circuit_sensitivity_dbm")
    consts = link_constants(params)

    def worker(block_index: int, count: int) -> int:
        return sum(int(np.count_nonzero(in_energy_outage(params, consts, g_a, g_b, ws)))
                   for g_a, g_b, ws in _chunks(params, cfg.seed, block_index, count))

    return _estimate(_run_blocks(worker, cfg), cfg.trials)


def relative_error(analytic: float, mc: McEstimate) -> float:
    """Relative deviation of a closed form from its simulated value."""
    if mc.probability == 0.0:
        raise ValueError("relative error is undefined for a zero simulated probability")
    return abs((analytic - mc.probability) / mc.probability)
