"""Monte Carlo estimation of outage probabilities by direct simulation.

Trials are processed in fixed-size blocks; block k draws from a generator
seeded with seed XOR splitmix64(k), so the stream belonging to a trial
depends only on (seed, trials), never on how blocks are distributed over
worker threads.  That is what makes estimates bit-identical across shard
counts and across runs.

Each block draws its gains whole (g_A, then g_B), so its random stream is
fixed by the block alone.  The physics kernel then runs over consecutive
CHUNK_TRIALS-sized slices of those gains and sums their integer hit counts.
The kernel is elementwise, so the counts equal those of one whole-block
pass; chunking only keeps each kernel temporary small enough to stay in
cache instead of streaming a block-sized array through memory per step.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (SystemParams, derive_constants, in_outage, link_snrs,
                    scheme_controls)
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
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must lie strictly inside (0, 1)")
        canon["theta"] = theta
    if args:
        raise ValueError(f"unsupported arguments for {scheme_id!r}: {sorted(args)}")
    return canon


def _outage_block(params: SystemParams, consts, scheme_id: str, canon: dict,
                  seed: int, block_index: int, count: int) -> int:
    rng = _block_rng(seed, block_index)
    g_a = sample_exponential(rng, params.fading_mean_a, count)
    g_b = sample_exponential(rng, params.fading_mean_b, count)
    hits = 0
    for start in range(0, count, CHUNK_TRIALS):
        a = g_a[start:start + CHUNK_TRIALS]
        b = g_b[start:start + CHUNK_TRIALS]
        controls = scheme_controls(consts, scheme_id, canon, a, b)
        snrs = link_snrs(params, consts, a, b, controls)
        hits += int(np.count_nonzero(in_outage(params, snrs)))
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
    consts = derive_constants(params, 0.5)

    def worker(block_index: int, count: int) -> int:
        return _outage_block(params, consts, scheme_id, canon,
                             cfg.seed, block_index, count)

    return _estimate(_run_blocks(worker, cfg), cfg.trials)


def mc_energy_outage(params: SystemParams, cfg: McConfig) -> McEstimate:
    """Estimate the probability that both links miss the rectenna threshold."""
    if params.circuit_sensitivity_dbm is None:
        raise ValueError("mc_energy_outage requires circuit_sensitivity_dbm")
    consts = derive_constants(params, 0.5)
    knee_a = consts.varpi * consts.z_a
    knee_b = consts.varpi * consts.z_b
    floor = params.sensitivity_w
    tx = params.tx_power_w

    def worker(block_index: int, count: int) -> int:
        rng = _block_rng(cfg.seed, block_index)
        g_a = sample_exponential(rng, params.fading_mean_a, count)
        g_b = sample_exponential(rng, params.fading_mean_b, count)
        power_a = tx * np.maximum(g_a - knee_a, 0.0) / consts.z_a
        power_b = tx * np.maximum(g_b - knee_b, 0.0) / consts.z_b
        return int(np.count_nonzero((power_a < floor) & (power_b < floor)))

    return _estimate(_run_blocks(worker, cfg), cfg.trials)


def relative_error(analytic: float, mc: McEstimate) -> float:
    """Relative deviation of a closed form from its simulated value."""
    if mc.probability == 0.0:
        raise ValueError("relative error is undefined for a zero simulated probability")
    return abs((analytic - mc.probability) / mc.probability)
