"""In-memory span recorder and self-time arithmetic.

A span is one call of a wrapped function: its name, start, end (both
``time.perf_counter_ns``, i.e. ``CLOCK_MONOTONIC``, so spans compare
with timestamps taken in other processes on the same host) and the span
that was open when it started.  Spans are kept in one flat integer
array while the process runs and written out once, at exit.

Only synchronous functions are wrapped: on an asyncio loop a plain call
runs to completion without yielding, so the open-span stack is exact.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

NO_PARENT = -1


class SpanRecorder:
    """Record spans of wrapped callables in this process only."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self._rows = array("q")
        self._stack = [NO_PARENT]
        self._next_id = 0
        self.enabled = True
        # Forked children (shard workers) inherit the wrapped classes;
        # their spans would never be written, so they record nothing.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def wrap(
        self,
        fn: Callable,
        name: str,
        name_of: Optional[Callable[..., str]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.  ``name_of(*args)``, when
        given, picks the span name from the call's arguments."""
        default = self.code(name)
        rows, stack, clock = self._rows, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            code = default if name_of is None else self.code(name_of(*args))
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows.extend((sid, code, start, end, parent))

        return traced

    def table(self) -> np.ndarray:
        """All finished spans, one ``(id, name code, start_ns, end_ns,
        parent id)`` row each, sorted by span id."""
        rows = np.frombuffer(self._rows, dtype=np.int64).reshape(-1, 5)
        return rows[np.argsort(rows[:, 0], kind="stable")].copy()

    def dump(self, path: str, span_cost_ns: float = 0.0) -> None:
        np.savez(path, rows=self.table(), names=np.array(self.names),
                 span_cost_ns=span_cost_ns)


def span_cost_ns(calls: int = 100_000, repeats: int = 5) -> float:
    """What recording one span adds to a call, in ns: a wrapped no-op
    against the bare no-op, best of ``repeats`` rounds of ``calls``."""
    rec = SpanRecorder()

    def noop():
        return None

    wrapped = rec.wrap(noop, "noop")
    clock = time.perf_counter_ns
    best = float("inf")
    for _ in range(repeats):
        del rec._rows[:]  # keep memory flat between rounds
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


class Spans:
    """A loaded span table with the arithmetic the metrics need."""

    def __init__(self, rows: np.ndarray, names: List[str],
                 span_cost_ns: float = 0.0) -> None:
        #: Measured cost of recording one span (:func:`span_cost_ns`).
        self.span_cost_ns = span_cost_ns
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 5)
        order = np.argsort(rows[:, 0], kind="stable")
        rows = rows[order]
        self.names = list(names)
        self.ids = rows[:, 0]
        self.code = rows[:, 1]
        self.start = rows[:, 2]
        self.end = rows[:, 3]
        self.dur = self.end - self.start
        # Parent ids → row indices (NO_PARENT stays NO_PARENT).
        pos = np.searchsorted(self.ids, rows[:, 4])
        has_parent = rows[:, 4] != NO_PARENT
        pos = np.where(has_parent, np.minimum(pos, len(rows) - 1), 0)
        known = has_parent & (self.ids[pos] == rows[:, 4])
        self.parent = np.where(known, pos, NO_PARENT)
        self.self_ns = self_times(self.dur, self.parent)

    @classmethod
    def load(cls, path: str) -> "Spans":
        with np.load(path) as doc:
            return cls(doc["rows"], [str(n) for n in doc["names"]],
                       float(doc["span_cost_ns"]))

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.ids), dtype=bool)
        return self.code == self.names.index(name)

    def under(self, name: str, parent: str) -> np.ndarray:
        """Spans called ``name`` whose direct parent is called ``parent``."""
        m = self.mask(name)
        idx = np.where(m & (self.parent != NO_PARENT), self.parent, 0)
        return m & (self.parent != NO_PARENT) & self.mask(parent)[idx]

    def in_window(self, t0_ns: int, t1_ns: int) -> np.ndarray:
        return (self.start >= t0_ns) & (self.start < t1_ns)

    def self_seconds(self, name: str, where: Optional[np.ndarray] = None):
        m = self.mask(name) if where is None else self.mask(name) & where
        return float(self.self_ns[m].sum()) / 1e9


def self_times(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Self time of each span: its duration minus its children's.

    ``parent[i]`` is the row index of span ``i``'s parent or
    :data:`NO_PARENT`.  Children of one parent never overlap (the
    recorder is single-threaded), so subtracting their durations
    subtracts exactly the part of the parent's interval they cover.
    """
    dur = np.asarray(dur, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent != NO_PARENT
    covered = np.bincount(
        parent[child], weights=dur[child], minlength=len(dur)
    ).astype(np.int64)
    return dur - covered
