"""The original simulator kernel, preserved verbatim as the reference.

This is the seed scheduler: one global ``heapq`` of ``_HeapEvent`` objects
ordered by a Python-level ``__lt__``, a fresh event allocation per
schedule, ``call_soon`` as ``schedule(0)``, and tombstone draining inline
in ``step``.

It exists so the kernel tests (``tests/test_sim_kernel.py``, golden pin
and seeded differential test) and the T18 simulator-core benchmark can run
the *same* program on this kernel and on :class:`Simulator` in one process
and assert two things forever:

* the production kernel reproduces this kernel's schedule exactly
  (identical fire order, virtual time, event counts, post-state);
* the throughput win does not quietly erode (events/sec ratio).

Select it with ``ClusterConfig(sim_kernel="reference")``.  Do not use it
for new work — it is a measuring stick, not a second kernel to maintain.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.simulator import Simulator

_INF = float("inf")


class _HeapEvent:
    """The original event: compared via Python ``__lt__`` on every heap
    sift — the dominant cost the tuple entries of :class:`Simulator`
    removed."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "_HeapEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class LegacySimulator(Simulator):
    """Drop-in :class:`Simulator` with the original global-heap scheduler."""

    def __init__(self, seed: int = 0):
        super().__init__(seed=seed)
        self._heap: List[_HeapEvent] = []

    # -- scheduling (original implementation) ---------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> _HeapEvent:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        ev = _HeapEvent(self.now + delay, self._seq, fn, args)
        heapq.heappush(self._heap, ev)
        return ev

    def call_soon(self, fn: Callable, *args: Any) -> _HeapEvent:
        return self.schedule(0.0, fn, *args)

    def _schedule_recycled(self, delay: float, fn: Callable,
                           args: tuple) -> None:
        self.schedule(delay, fn, *args)

    def _schedule_timer(self, delay: float, task) -> None:
        # Seed shape: a sleep is a scheduled _step_send, one event object.
        self.schedule(delay, task._step_send, None)

    def _ready_resume(self, task, fut) -> None:
        # Seed shape: future completion schedules the resume via the heap.
        exc = fut.exception()
        if exc is not None:
            self.call_soon(task._step_throw, exc)
        else:
            self.call_soon(task._step_send, fut.result())

    def _ready_start(self, task) -> None:
        self.call_soon(task._start)

    # -- running (original implementation) ------------------------------

    def step(self) -> bool:
        while True:
            while self._heap:
                ev = heapq.heappop(self._heap)
                if ev.cancelled:
                    continue
                assert ev.time >= self.now, "time went backwards"
                self.now = ev.time
                self.events_processed += 1
                ev.fn(*ev.args)
                return True
            if not self.fire_idle_hooks():
                return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        remaining = max_events
        while True:
            while self._heap:
                if until is not None and self._peek_time() > until:
                    self.now = until
                    return
                if remaining is not None:
                    if remaining <= 0:
                        return
                    before = self.events_processed
                    self.step()
                    remaining -= self.events_processed - before
                else:
                    self.step()
            if not self.fire_idle_hooks():
                break
        if until is not None and until > self.now:
            self.now = until

    def drain(self, horizon: float, stop: float = _INF) -> None:
        while self._peek_time() <= horizon and self.events_processed < stop:
            self.step()

    def _peek_time(self) -> float:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else _INF

    def pending(self) -> int:
        return sum(1 for ev in self._heap if not ev.cancelled)
