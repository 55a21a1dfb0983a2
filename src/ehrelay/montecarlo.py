"""Monte Carlo estimation of outage probabilities by direct simulation.

Trials are processed in fixed-size blocks; block k draws from a generator
seeded with seed XOR splitmix64(k), so the stream belonging to a trial
depends only on (seed, trials), never on how blocks are distributed over
worker processes.  That is what makes estimates bit-identical across shard
counts and across runs.

An estimate runs on min(shards, usable cores, blocks) workers.  One worker
runs the blocks in the calling process.  More are a persistent pool of
forked processes, sent a block at a time down a pipe each; the integer hit
counts they send back are summed.  A pool process leaves Ctrl-C to its
parent and exits at EOF, once its parent is gone.  Any error in a pooled
estimate, a Ctrl-C or a dead pool process (RuntimeError) among them, drops
the pool.  A process forked from one with a pool starts with none.

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
chunk drawn once.  A cell counts the trials that fail the direct test
a*pool < eps, pool the model.harvest_pool of its (rho, eps, pi) (model's
docstring states the algebra).  Each kernel pass runs once per chunk and
set of the inputs it reads: model.normalized_gains per (Z_A, Z_B), a pool
per (rho, eps, pi), whatever the kappa, and an r* (model.critical_ratio)
per downlink (kappa, rho, theta) at several ideal-rectenna eps.  r*
and the direct test round apart by a few ulps, so where an r* lies within
1e-14*eps of a cell's eps, the direct test counts the cell: a cell counts
alike in any batch and alone.  The cells read common random numbers, so
the errors of one batch's estimates are correlated.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .model import (KernelWorkspace, SchemeSpec, SystemParams, count_below,
                    critical_ratio, downlink_gain, harvest_pool, link_constants,
                    normalized_gains)
from .numerics import sample_exponential

BLOCK_TRIALS = 1 << 18
CHUNK_TRIALS = 1 << 14
# The theta of a _plan pool test that counts the energy outage.
_ENERGY = "energy"

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
        for name in ("trials", "seed", "shards"):    # numpy ints overflow in _splitmix64
            object.__setattr__(self, name, int(getattr(self, name)))


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


# r* and the direct test a*pool < eps round apart by a few ulps; they agree on
# every r* more than eps*_TIE + _TIE_FLOOR (for a subnormal eps) from eps.
_TIE, _TIE_FLOOR = 1e-14, 1e-300


def _direct_count(consts, theta, eps: float, pool, ws: KernelWorkspace) -> int:
    """How many trials fail a*pool < eps, a the downlink gain at theta."""
    gain = downlink_gain(consts, theta, ws)
    return count_below(np.multiply(gain, pool, out=gain), eps, ws)


def _outage_block(cells: tuple, seed: int, block_index: int, count: int) -> list:
    """Each cell's outage count over one block, the energy outage's for an
    energy cell; cells is a batch as _plan lays it out."""
    groups, slots, means = cells
    hits = [0] * (max(slots) + 1)
    for g_a, g_b, ws in _chunks(means, seed, block_index, count):
        for consts, ratios, pools in groups:
            normalized_gains(consts, g_a, g_b, ws)
            for link, rho, theta, counts in ratios:
                ratio = critical_ratio(rho, downlink_gain(link, theta, ws), ws)
                for slot, eps in counts:
                    band = eps * _TIE + _TIE_FLOOR
                    below = count_below(ratio, eps - band, ws)
                    if below != count_below(ratio, eps + band, ws):
                        # An r* within rounding of eps: count directly.
                        below = _direct_count(link, theta, eps,
                                              harvest_pool(rho, eps, 0.0, ws), ws)
                        ratio = critical_ratio(rho, downlink_gain(link, theta, ws), ws)
                    hits[slot] += below
            for rho, eps, floor, tests in pools:
                pool = harvest_pool(rho, eps, floor, ws)
                for slot, link, theta in tests:
                    hits[slot] += (ws.on.size - int(np.count_nonzero(ws.on)) if theta == _ENERGY
                                   else _direct_count(link, theta, eps, pool, ws))
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


# The persistent pool: (process, the parent's end of its pipe) pairs.
_POOL: list = []
# Held while an estimate uses the pool, so that a call from another thread
# cannot replace or drop the pool under it.
_POOL_LOCK = threading.Lock()


def _forget_pool_after_fork() -> None:
    """In a forked child: the parent's pool is not its own, and a lock held
    at the fork by a parent thread would stay locked in the child.  A pool
    process reads EOF once no one else holds its parent's pipe end, and the
    exit of a child that still listed the pool as its children would end it."""
    global _POOL, _POOL_LOCK
    if _POOL:
        from multiprocessing.process import _children
        _children.difference_update(process for process, _ in _POOL)
    for _, conn in _POOL:
        conn.close()
    _POOL, _POOL_LOCK = [], threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


def _may_fork() -> bool:
    """False in a daemonic multiprocessing worker, which may start no process."""
    import multiprocessing
    return not multiprocessing.current_process().daemon


def _serve(conn, parent_end) -> None:
    """A pool process: run each block sent down conn and send back its
    counts until EOF, which comes once the parent, the only other holder of
    parent_end, is gone.  Ctrl-C is the parent's to handle."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    with contextlib.suppress(EOFError, ConnectionError):
        while True:
            conn.send(_outage_block(*conn.recv()))


def _pool(workers: int) -> list:
    """The pool, made on first use and remade when a call needs more workers.

    The multiprocessing imports wait until here: most processes never fork.
    Forked workers start at once, with the package already imported, and a
    caller's script needs no __main__ guard, as it would under spawn.
    """
    if len(_POOL) >= workers:
        return _POOL
    _drop_pool()
    import multiprocessing
    context = multiprocessing.get_context("fork")
    for _ in range(workers):
        mine, theirs = context.Pipe()
        process = context.Process(target=_serve, args=(theirs, mine), daemon=True)
        process.start()
        _POOL.append((process, mine))
        theirs.close()
    return _POOL


def _drop_pool() -> None:
    """End this process's pool, if it has one, and forget it."""
    while _POOL:
        process, conn = _POOL.pop()
        process.terminate()
        process.join()
        conn.close()


# End the pool while the interpreter is whole, not in module teardown.
atexit.register(_drop_pool)


def _share_blocks(pool: list, cells: tuple, seed: int, layout: list) -> list:
    """Each block's counts, run on the processes of pool, the next block
    going to whichever process answers first."""
    from multiprocessing.connection import wait
    todo, idle, busy, counts = layout[::-1], [conn for _, conn in pool], [], []
    while todo or busy:
        while todo and idle:
            # Not send(): a traceback that keeps its BytesIO view leaks a BufferError.
            idle[-1].send_bytes(pickle.dumps((cells, seed, *todo.pop())))
            busy.append(idle.pop())
        for conn in wait(busy):
            counts.append(conn.recv())
            busy.remove(conn)
            idle.append(conn)
    return counts


def _run_blocks(cells: tuple, cfg: McConfig) -> list:
    """Each cell's outage count, summed over the trial blocks; cells is a
    batch as _plan lays it out."""
    layout = _block_layout(cfg.trials)
    workers = _worker_count(cfg.shards, _usable_cores(), len(layout))
    if workers == 1 or not _may_fork():
        counts = [_outage_block(cells, cfg.seed, idx, n) for idx, n in layout]
    else:
        with _POOL_LOCK:
            try:
                counts = _share_blocks(_pool(workers)[:workers], cells, cfg.seed, layout)
            except BaseException as error:
                # A Ctrl-C too: a pool process may still hold a block of
                # this call, so the next call starts a fresh pool.
                _drop_pool()
                if isinstance(error, (EOFError, ConnectionError)):
                    raise RuntimeError("a Monte Carlo pool process died") from error
                raise
    return [sum(column) for column in zip(*counts)]


def _estimate(hits: int, trials: int) -> McEstimate:
    p = hits / trials
    return McEstimate(probability=p,
                      std_error=math.sqrt(p * (1.0 - p) / trials),
                      trials=trials)


def _plan(cells) -> tuple:
    """Check a nonempty batch of cells (params, scheme); lay it out as
    (groups, slots, means), each kernel pass keyed on the inputs it reads.

    A group (consts, ratios, pools) holds the cells of one (Z_A, Z_B),
    consts the link_constants of its first.  ratios lists (link, rho,
    theta, counts), a downlink (kappa, split, weight; None: the knee split,
    the equalizing weight) with the (index, eps) of its ideal-rectenna
    cells, where there are several, and link the link_constants whose
    kappa it reads; pools lists (rho, eps, pi, tests) with the (index,
    link, theta) of each other cell, whatever its kappa, an energy cell's
    theta _ENERGY.  slots holds each cell's count index, one per cell alike
    in what the kernel reads, and means the fading means (mean_a, mean_b)
    that all cells share.
    """
    slot_of, members, slots, means = {}, {}, [], set()
    for params, scheme in cells:
        consts = link_constants(params)
        if scheme is None:
            if consts.harvest_floor == 0.0:
                raise ValueError("energy outage requires circuit_sensitivity_dbm")
            rho, theta = None, _ENERGY
        elif scheme.scheme_id == "static_equal":
            rho, theta = scheme.canonical()["rho"], 0.5
        else:
            rho, theta = None, scheme.canonical().get("theta")
        key = ((consts.z_a, consts.z_b), (consts.kappa, rho, theta), consts.varpi,
               consts.harvest_floor)
        if key not in slot_of:
            slot_of[key] = len(slot_of)
            members.setdefault(key[0], (consts, []))[1].append((slot_of[key], consts, *key[1:]))
        slots.append(slot_of[key])
        means.add((params.fading_mean_a, params.fading_mean_b))
    if len(means) > 1:
        raise ValueError("the cells of one batch must share fading_mean_a and fading_mean_b")
    groups = []
    for consts, found in members.values():
        ideal, pools = {}, {}
        for slot, link, downlink, eps, floor in found:
            if floor == 0.0:
                ideal.setdefault(downlink, (link, []))[1].append((slot, eps))
        for slot, link, (kappa, rho, theta), eps, floor in found:
            if floor > 0.0 or len(ideal[kappa, rho, theta][1]) == 1:
                pools.setdefault((rho, eps, floor), []).append((slot, link, theta))
        ratios = tuple((link, rho, theta, tuple(counts))
                       for (_, rho, theta), (link, counts) in ideal.items() if len(counts) > 1)
        groups.append((consts, ratios,
                       tuple((*pool, tuple(tests)) for pool, tests in pools.items())))
    return tuple(groups), tuple(slots), means.pop()


def mc_outages(cells, cfg: McConfig) -> list:
    """One estimate per cell (params, scheme), scheme a SchemeSpec, as
    mc_outage gives it, or as mc_energy_outage where scheme is None.  All
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
    return mc_outages([(params, SchemeSpec(scheme_id, scheme_args or {}))], cfg)[0]


def mc_energy_outage(params: SystemParams, cfg: McConfig) -> McEstimate:
    """Estimate the probability that both links miss the rectenna threshold.

    Links harvest under the knee split; the rectenna tests of its
    model.harvest_pool decide.  params must set circuit_sensitivity_dbm.
    """
    return mc_outages([(params, None)], cfg)[0]


def relative_error(analytic: float, mc: McEstimate) -> float:
    """Relative deviation of a closed form from its simulated value."""
    if mc.probability == 0.0:
        raise ValueError("relative error is undefined for a zero simulated probability")
    return abs((analytic - mc.probability) / mc.probability)
