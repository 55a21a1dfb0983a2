"""Patch-and-restore instrumentation at ehrelay's layer boundaries.

Every instrument replaces a function at the module attribute its callers
look it up from (``ehrelay.montecarlo.sample_exponential``,
``ehrelay.validation.cdf_t2``, ...) and puts the original back on exit, so
an instrumented run and a plain run execute the same program code.

Two kinds of instrument exist:

* ``Probes``, installed in every timed repetition: a timestamp per sweep row
  and per acceptance criterion, and the trial count of every Monte Carlo
  estimate.  They fire a few hundred times per repetition.
* ``Tracer``, installed only in the traced run: per-call counters and busy
  time for every layer function, spans kept in memory for the coarse calls,
  and per-parent counters for the scalar functions called millions of times.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter_ns


def ehrelay_modules() -> list:
    """Every imported module of the ehrelay package, the package included."""
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "ehrelay" or name.startswith("ehrelay."))]


class Patcher:
    """Sets attributes and restores them, last set first."""

    def __init__(self) -> None:
        self._saved: list = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def lookup_sites(func) -> list:
    """(module, attribute) pairs through which callers reach ``func``."""
    return [(module, name) for module in ehrelay_modules()
            for name, value in vars(module).items() if value is func]


class Probes:
    """Cheap timestamps and trial counts taken in every timed repetition."""

    def __init__(self) -> None:
        self.row_times: list = []        # perf_counter_ns at each SweepRow
        self.criterion_times: list = []  # (index, seconds) per criterion
        self.mc_trials = 0
        self.mc_shards: dict = {}        # shard count -> estimates run with it

    @contextmanager
    def installed(self):
        from ehrelay import sweeps, validation

        patcher = Patcher()
        try:
            row_cls = sweeps.SweepRow

            def stamped_row(*args, **kwargs):
                row = row_cls(*args, **kwargs)
                self.row_times.append(_clock())
                return row

            patcher.set(sweeps, "SweepRow", stamped_row)
            patcher.set(validation, "CRITERIA", tuple(
                self._timed_criterion(i + 1, fn)
                for i, fn in enumerate(validation.CRITERIA)))
            for name in ("mc_outage", "mc_energy_outage"):
                for module in ehrelay_modules():
                    if name in vars(module):
                        patcher.set(module, name, self._counted(vars(module)[name]))
            yield self
        finally:
            patcher.restore()

    def _timed_criterion(self, index: int, fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                return fn()
            finally:
                self.criterion_times.append((index, time.perf_counter() - start))
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            est = fn(*args, **kwargs)
            self.mc_trials += est.trials
            shards = kwargs.get("cfg", args[-1]).shards
            self.mc_shards[shards] = self.mc_shards.get(shards, 0) + 1
            return est
        return wrapper


class _ThreadState:
    __slots__ = ("stack", "counters", "by_parent", "spans")

    def __init__(self) -> None:
        self.stack: list = []        # (key, span_id) of open spans
        self.counters = defaultdict(lambda: defaultdict(int))
        self.by_parent = defaultdict(lambda: [0, 0])
        self.spans: list = []


class Tracer:
    """Counters, busy time and spans for wrapped layer functions.

    State is kept per thread and merged when read, so Monte Carlo shard
    threads record without a lock; times are therefore summed over threads.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patcher = Patcher()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, key: str):
        """A span opened by the benchmark itself (workload, figure, ...)."""
        state = self._state()
        parent = state.stack[-1][1] if state.stack else None
        span_id = next(self._ids)
        state.stack.append((key, span_id))
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            state.stack.pop()
            state.spans.append((span_id, parent, key, start, end,
                                threading.get_ident()))
            counter = state.counters[key]
            counter["calls"] += 1
            counter["busy_ns"] += end - start

    def wrap(self, key: str, func, *, hot: bool = False, label=None,
             count=None):
        """Wrap ``func`` so each call is counted under ``key``.

        hot: record counters only, no span and no stack entry, for scalar
            functions called millions of times.
        label(args, kwargs): suffix appended to the key, e.g. the scheme.
        count(args, kwargs, result): extra counter increments for the call.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            name = key if label is None else f"{key}.{label(args, kwargs)}"
            stack = state.stack
            parent = stack[-1] if stack else (None, None)
            if not hot:
                span_id = next(tracer._ids)
                stack.append((name, span_id))
            result = None
            start = _clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = _clock()
                counter = state.counters[name]
                counter["calls"] += 1
                counter["busy_ns"] += end - start
                pair = state.by_parent[(name, parent[0])]
                pair[0] += 1
                pair[1] += end - start
                if count is not None and result is not None:
                    for field, amount in count(args, kwargs, result).items():
                        counter[field] += amount
                if not hot:
                    stack.pop()
                    state.spans.append((span_id, parent[1], name, start, end,
                                        threading.get_ident()))
        return wrapper

    # -- installation --------------------------------------------------

    def install(self, owner, attr: str, key: str, **options) -> None:
        """Wrap ``owner.attr`` at every site callers look it up from.

        A target the program no longer has raises KeyError, so the traced
        run fails until the benchmark is re-targeted; its metrics would
        otherwise read 0, which looks like an improvement.
        """
        func = vars(owner)[attr]
        wrapped = self.wrap(key, func, **options)
        if isinstance(owner, type):
            self._patcher.set(owner, attr, wrapped)
            return
        for module, name in lookup_sites(func):
            self._patcher.set(module, name, wrapped)

    def install_sequence(self, owner, attr: str, key_of) -> None:
        """Wrap each function of the tuple ``owner.attr``; key_of(i) names it."""
        funcs = vars(owner)[attr]
        self._patcher.set(owner, attr, tuple(
            self.wrap(key_of(i), fn) for i, fn in enumerate(funcs)))

    def restore(self) -> None:
        self._patcher.restore()

    # -- reading -------------------------------------------------------

    def counters(self) -> dict:
        merged: dict = defaultdict(lambda: defaultdict(int))
        for state in self._states:
            for key, fields in state.counters.items():
                for field, amount in fields.items():
                    merged[key][field] += amount
        return merged

    def by_parent(self) -> dict:
        merged: dict = defaultdict(lambda: [0, 0])
        for state in self._states:
            for key, (calls, busy) in state.by_parent.items():
                merged[key][0] += calls
                merged[key][1] += busy
        return merged

    def spans(self) -> list:
        return sorted((s for state in self._states for s in state.spans),
                      key=lambda s: s[3])

    def self_ns(self, key: str) -> int:
        """Summed self time of spans named ``key``: duration minus children."""
        spans = self.spans()
        child_ns: dict = defaultdict(int)
        for _, parent, _, start, end, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        return sum(end - start - child_ns[span_id]
                   for span_id, _, name, start, end, _ in spans if name == key)
