"""Monte Carlo estimation of outage probabilities by direct simulation.

Trials are processed in fixed-size blocks; block k draws from a generator
seeded with seed XOR splitmix64(k), so the stream belonging to a trial
depends only on (seed, trials), never on how blocks are distributed over
worker processes.  That is what makes estimates bit-identical across shard
counts and across runs.

An estimate runs on min(shards, usable cores, blocks) workers.  One worker
runs the blocks in the calling process.  More share them, one block per
task, on a persistent pool of that many forked processes, made on first
use; each block returns an integer hit count, and the counts are summed.
A pool process ignores Ctrl-C, which its parent handles, and exits as soon
as its parent is gone.

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

mc_outages runs a batch of cells, such as all cells of a sweep, on each
chunk drawn once.  Its cells are grouped once per batch by their
model.LinkConstants, all that the kernel reads of an operating point, and
power split; per chunk, a group runs model.split_stage once, then one
model.broadcast_stage, reduced to a count, per distinct theta.  Each cell
gets the bits it gets alone; the cells read common random numbers, so the
errors of one batch's estimates are correlated.
"""

from __future__ import annotations

import atexit
import math
import os
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from .model import (KernelWorkspace, SchemeSpec, SystemParams, broadcast_stage,
                    link_constants, rectennas_off, split_stage, stage_keys)
from .numerics import sample_exponential

BLOCK_TRIALS = 1 << 18
CHUNK_TRIALS = 1 << 14
# The scheme_id of an mc_outages cell that estimates the energy outage.
ENERGY_OUTAGE = "energy_outage"

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    mixed = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    mixed = (mixed ^ (mixed >> 27)) * 0x94D049BB133111EB & _MASK64
    return mixed ^ (mixed >> 31)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.default_rng((seed & _MASK64) ^ _splitmix64(block_index))


@dataclass(frozen=True)
class McConfig:
    """Simulation budget and reproducibility knobs.

    shards caps the worker processes an estimate runs on; the usable cores
    and the block count cap them too, and no count changes the estimate.
    """

    trials: int = 1_000_000
    seed: int = 0
    shards: int = 1

    def __post_init__(self) -> None:
        if not (_is_integer(self.trials) and self.trials >= 1):
            raise ValueError("trials must be an integer >= 1")
        if not _is_integer(self.seed):
            raise ValueError("seed must be an integer")
        if not (_is_integer(self.shards) and 1 <= self.shards <= self.trials):
            raise ValueError("shards must be an integer in [1, trials]")


def _is_integer(value) -> bool:
    """An int or numpy integer; bool, an int subclass, is no count or seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def _chunks(means: tuple, seed: int, block_index: int, count: int):
    """Yield a block's trials as (g_a, g_b, ws), CHUNK_TRIALS at a time,
    drawn at the fading means (mean_a, mean_b).

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
        yield (sample_exponential(rng_a, means[0], m, out=g_a),
               sample_exponential(rng_b, means[1], m, out=g_b), ws)


def _outage_block(cells: tuple, seed: int, block_index: int, count: int) -> list:
    """Each cell's outage count over one block, the energy outage's for an
    ENERGY_OUTAGE cell; cells is a batch as _plan lays it out."""
    groups, slots, means = cells
    hits = [0] * (max(slots) + 1)
    for g_a, g_b, ws in _chunks(means, seed, block_index, count):
        for consts, rho, thetas in groups:
            split_stage(consts, rho, g_a, g_b, ws)
            for slot, theta in thetas:
                hits[slot] += (int(np.count_nonzero(rectennas_off(ws)))
                               if theta == ENERGY_OUTAGE else
                               broadcast_stage(consts, theta, g_a, g_b, ws))
    return [hits[slot] for slot in slots]


def _block_layout(trials: int) -> list[tuple[int, int]]:
    full, rest = divmod(trials, BLOCK_TRIALS)
    layout = [(k, BLOCK_TRIALS) for k in range(full)]
    if rest:
        layout.append((full, rest))
    return layout


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(shards: int, cores: int, blocks: int) -> int:
    """Workers an estimate runs on: no more than its shards, the usable
    cores or its blocks, since more would only share a core or idle."""
    return min(shards, cores, blocks)


@dataclass
class _Pool:
    """The persistent worker processes: their executor, its size, and the
    pid of the process that made them (a forked child must make its own)."""

    executor: object = None
    size: int = 0
    owner: int = 0


_POOL = _Pool()
# Held while an estimate uses the pool, so that a call from another thread
# cannot replace or drop the pool under it.
_POOL_LOCK = threading.Lock()


def _may_fork() -> bool:
    """False in a daemonic multiprocessing worker, which may start no process."""
    import multiprocessing
    return not multiprocessing.current_process().daemon


def _watch_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.2)
    os._exit(1)


def _init_worker(parent: int) -> None:
    """Run in each pool process as it starts: Ctrl-C is the parent's to
    handle, and an orphan exits rather than wait on its task queue forever."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_watch_parent, args=(parent,), daemon=True).start()


def _pool(workers: int):
    """The pool, made on first use and remade when a call needs more workers.

    The multiprocessing imports wait until here: most processes never fork.
    Forked workers start at once, with the package already imported, and a
    caller's script needs no __main__ guard, as it would under spawn.
    """
    if _POOL.owner == os.getpid() and _POOL.size >= workers:
        return _POOL.executor
    _drop_pool()
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor
    _POOL.executor = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(os.getpid(),))
    _POOL.size, _POOL.owner = workers, os.getpid()
    return _POOL.executor


def _drop_pool() -> None:
    """Shut down this process's pool, if it made one, and forget it."""
    if _POOL.owner == os.getpid():
        _POOL.executor.shutdown(cancel_futures=True)
    _POOL.executor, _POOL.size, _POOL.owner = None, 0, 0


# Shut the pool down while the interpreter is whole, not in module teardown.
atexit.register(_drop_pool)


def _run_blocks(cells: tuple, cfg: McConfig) -> list:
    """Each cell's outage count, summed over the trial blocks; cells is a
    batch as _plan lays it out."""
    layout = _block_layout(cfg.trials)
    workers = _worker_count(cfg.shards, _usable_cores(), len(layout))
    if workers == 1 or not _may_fork():
        counts = [_outage_block(cells, cfg.seed, idx, n) for idx, n in layout]
        return [sum(column) for column in zip(*counts)]
    from concurrent.futures.process import BrokenProcessPool
    with _POOL_LOCK:
        pool, tasks = _pool(workers), []
        try:
            tasks.extend(pool.submit(_outage_block, cells, cfg.seed, idx, n)
                         for idx, n in layout)
            return [sum(column) for column in zip(*(task.result() for task in tasks))]
        except BrokenProcessPool:
            # A pool process died; the next call starts a fresh pool.
            _drop_pool()
            raise
        finally:
            # After an error or Ctrl-C, the blocks not yet started never run.
            for task in tasks:
                task.cancel()


def _estimate(hits: int, trials: int) -> McEstimate:
    p = hits / trials
    return McEstimate(probability=p,
                      std_error=math.sqrt(p * (1.0 - p) / trials),
                      trials=trials)


def _plan(cells) -> tuple:
    """Check a nonempty batch of cells (params, scheme_id, scheme_args); lay
    it out as (groups, slots, means).  A group (consts, rho, thetas) is one
    split stage: the link_constants of a point and a stage_keys rho, with
    each distinct theta and the index of its count; an energy cell's theta
    is ENERGY_OUTAGE, in its point's knee group.  slots holds each cell's
    count index, one for all cells alike in what the kernel reads, and
    means the fading means (mean_a, mean_b) that all cells share.
    """
    groups, slot_of, slots, means = {}, {}, [], set()
    for params, scheme_id, scheme_args in cells:
        if scheme_id != ENERGY_OUTAGE:
            rho, theta = stage_keys(scheme_id,
                                    SchemeSpec(scheme_id, scheme_args or {}).canonical())
        elif params.circuit_sensitivity_dbm is None:
            raise ValueError("energy outage requires circuit_sensitivity_dbm")
        elif scheme_args:
            raise ValueError(f"unsupported arguments for {ENERGY_OUTAGE!r}: "
                             f"{sorted(scheme_args)}")
        else:
            rho, theta = None, ENERGY_OUTAGE
        consts = link_constants(params)
        if (consts, rho, theta) not in slot_of:
            slot = slot_of[consts, rho, theta] = len(slot_of)
            thetas = groups.setdefault((consts, rho), (consts, rho, []))[2]
            # The rectenna tests are read before a broadcast overwrites them.
            thetas.insert(0 if theta == ENERGY_OUTAGE else len(thetas), (slot, theta))
        slots.append(slot_of[consts, rho, theta])
        means.add((params.fading_mean_a, params.fading_mean_b))
    if len(means) > 1:
        raise ValueError("the cells of one batch must share fading_mean_a and fading_mean_b")
    return tuple(groups.values()), tuple(slots), means.pop()


def mc_outages(cells, cfg: McConfig) -> list:
    """One estimate per cell (params, scheme_id, scheme_args), as mc_outage
    gives it, or as mc_energy_outage where scheme_id is ENERGY_OUTAGE.  All
    cells are checked before any trial runs, and must share the fading means.
    """
    cells = tuple(cells)
    if not cells:
        return []
    return [_estimate(hits, cfg.trials) for hits in _run_blocks(_plan(cells), cfg)]


def mc_outage(params: SystemParams, scheme_id: str, scheme_args,
              cfg: McConfig) -> McEstimate:
    """Estimate the system outage probability of a scheme by simulation.

    scheme_args (a dict, or None for the defaults) is checked as a
    SchemeSpec before any trial runs.
    """
    return mc_outages([(params, scheme_id, scheme_args)], cfg)[0]


def mc_energy_outage(params: SystemParams, cfg: McConfig) -> McEstimate:
    """Estimate the probability that both links miss the rectenna threshold.

    Links harvest under the knee split; the rectenna tests of its
    model.split_stage decide (model.rectennas_off).  params must set
    circuit_sensitivity_dbm.
    """
    return mc_outages([(params, ENERGY_OUTAGE, None)], cfg)[0]


def relative_error(analytic: float, mc: McEstimate) -> float:
    """Relative deviation of a closed form from its simulated value."""
    if mc.probability == 0.0:
        raise ValueError("relative error is undefined for a zero simulated probability")
    return abs((analytic - mc.probability) / mc.probability)
