"""The discrete-event simulator: clock, event queue, task scheduler.

The schedule is one binary heap plus one FIFO deque:

* **Total order.**  Every entry carries ``(time, seq)`` with ``seq`` drawn
  from one global counter, and entries fire in exactly that order.  This
  is the determinism contract; the two containers below never reorder
  equal-time entries.

* **The heap.**  Everything with a delay lives in ``_queue``, a ``heapq``
  of tuples whose first two elements are ``(time, seq)``, so every heap
  comparison happens in C.  There is no per-timer object: a sleeping task
  is ``(time, seq, task)`` and is resumed inline by the loop, an internal
  callback (message delivery) is ``(time, seq, fn, args)``, and only
  :meth:`schedule`, which hands out a cancellable handle, allocates an
  event: ``(time, seq, event)``.

* **The ready deque.**  Zero-delay work — ``call_soon`` events, future
  resumptions, task starts — skips the heap and rides ``_ready``.  A ready
  entry sits at the current clock, so it fires unless the heap holds an
  entry at the same instant with a smaller ``seq``.

* **Recycled ``call_soon`` handles.**  ``call_soon`` returns a cancellable
  handle drawn from a freelist and recycled after it fires — hold it only
  to cancel *before* it runs, never afterwards.  Events returned by
  :meth:`schedule` are never recycled: callers may hold them and call
  ``cancel`` arbitrarily late.

Cancellation leaves a tombstone; tombstones are discarded when they reach
the top of the heap (or all at once by :meth:`_purge` when they pile up)
and are excluded from :meth:`pending`.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, List, Optional

from repro.errors import DeadlockError, SimTimeout
from repro.sim.future import Future, _PENDING
from repro.sim.task import Task

_FREE_MAX = 4096         # freelist cap (recycled call_soon events)
_PURGE_MIN = 4096        # discards before a compaction sweep is considered
_INF = float("inf")


class _Event:
    """A scheduled callback.  Cancellation leaves a tombstone in place.

    Heap entries are ``(time, seq, event)`` tuples — the event object
    itself is never compared, so heap operations stay entirely in C.
    """

    __slots__ = ("seq", "fn", "args", "cancelled")

    def __init__(self, seq: int, fn: Callable, args: tuple):
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Single-threaded deterministic event loop with a virtual clock.

    The RNG is owned by the simulator so that every source of randomness in a
    run flows from one seed; identical seeds give identical traces.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._seq = 0
        self.events_processed = 0
        self.tasks_spawned = 0
        # The task whose generator is being stepped right now (None between
        # steps).  Carries the flight recorder's span context: a task
        # spawned while another runs inherits its causal position, and the
        # tracer reads/writes ``current_task.span_ctx`` to nest spans.
        self.current_task: Optional[Task] = None
        # Called whenever the event queue drains completely — the moment the
        # whole system is quiescent.  The fault engine's InvariantChecker
        # hangs its post-heal fsck here so checks never race in-flight
        # protocols.  Hooks run synchronously and may schedule new events.
        self.idle_hooks: List[Callable[[], None]] = []
        # Tasks that died of a bug rather than a LocusError (Task.die).
        self.task_deaths: List[str] = []
        # Ready entries: _Event (call_soon) or (seq, task, future|None).
        self._ready: deque = deque()
        # Heap entries: (time, seq, _Event) from schedule(), (time, seq,
        # Task) sleep timers, (time, seq, fn, args) internal callbacks.
        self._queue: list = []
        # Recycled call_soon events.  Bounded deque: append past maxlen
        # silently evicts the oldest — no length check on the fire path.
        self._free: deque = deque(maxlen=_FREE_MAX)
        # Tombstones popped one by one since the last compaction (_purge).
        self._discards = 0

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> _Event:
        """Run ``fn(*args)`` after ``delay`` units of virtual time.

        The returned event may be held and cancelled at any time, so it is
        never recycled.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        ev = _Event(self._seq, fn, args)
        heappush(self._queue, (self.now + delay, self._seq, ev))
        return ev

    def call_soon(self, fn: Callable, *args: Any) -> _Event:
        """Zero-delay schedule on the ready deque.

        The event fires after every already-pending event with the same
        timestamp (FIFO at equal times).  The handle supports ``cancel``
        until it fires; it is recycled afterwards, so do not retain it
        past that point.
        """
        seq = self._seq + 1
        self._seq = seq
        free = self._free
        if free:
            ev = free.pop()
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = _Event(seq, fn, args)
        self._ready.append(ev)
        return ev

    def _schedule_recycled(self, delay: float, fn: Callable,
                           args: tuple) -> None:
        """Internal scheduling for callbacks that never expose a handle
        (message delivery): a bare ``(time, seq, fn, args)`` tuple, no
        event object at all."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        heappush(self._queue, (self.now + delay, self._seq, fn, args))

    def _schedule_timer(self, delay: float, task: Task) -> None:
        """A task sleeping ``delay`` (``yield seconds``): the entry is the
        task itself; the loop resumes its generator inline.  Negative
        delays never get here: :meth:`Task._handle_yield` throws
        ``ValueError`` into the task instead."""
        self._seq += 1
        heappush(self._queue, (self.now + delay, self._seq, task))

    def _ready_resume(self, task: Task, fut: Optional[Future]) -> None:
        """A task whose awaited future completed: resumed from the ready
        deque in completion order, inline, with no event allocation."""
        self._seq += 1
        self._ready.append((self._seq, task, fut))

    def _ready_start(self, task: Task) -> None:
        """First step of a freshly spawned task."""
        self._seq += 1
        self._ready.append((self._seq, task, None))

    def create_future(self, label: str = "") -> Future:
        return Future(label=label)

    # -- tasks -----------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Task:
        """Start a kernel task running the given generator."""
        self.tasks_spawned += 1
        task = Task(self, gen, name=name)
        self._ready_start(task)
        return task

    # -- heap internals --------------------------------------------------

    def _peek(self) -> Optional[tuple]:
        """Earliest live heap entry, or None.  Pops tombstones off the top.
        Each such pop sifts through the whole depth of the heap, so once
        enough have gone one by one — ``_PURGE_MIN``, and more than a
        sixty-fourth of what is queued — the rest go in one sweep."""
        heap = self._queue
        while heap:
            head = heap[0]
            o = head[2]
            if o.__class__ is not _Event or not o.cancelled:
                return head
            heappop(heap)
            self._discards += 1
            if self._discards > _PURGE_MIN and \
                    self._discards << 6 > len(heap):
                self._purge()
        return None

    def _purge(self) -> None:
        """Drop every tombstone in one linear sweep.  Lazy deletion pays
        one deep heappop per tombstone; when a watchdog-heavy workload has
        cancelled most of what it armed, filtering and re-heapifying once
        is far cheaper.  In place: :meth:`_spin` holds the list."""
        heap = self._queue
        heap[:] = [e for e in heap
                   if e[2].__class__ is not _Event or not e[2].cancelled]
        heapify(heap)
        self._discards = 0

    # -- running ---------------------------------------------------------

    def _resume(self, task: Task, fut: Optional[Future]) -> None:
        """Advance a task's generator one step, inline.

        The fast path for the two hot resume shapes (sleep timers and
        completed futures); semantics — finished and cancelled checks,
        current_task bookkeeping, StopIteration and failure handling —
        mirror ``Task._step_send`` exactly.
        """
        done = task.done
        if done._state is not _PENDING:
            return                     # late fire on a finished task: no-op
        if fut is None:
            value = None
        else:
            exc = fut._exc
            if exc is not None:
                task._step_throw(exc)  # rare path: seed code, same order
                return
            value = fut._value
        self.current_task = task
        try:
            y = task.gen.send(value)
        except StopIteration as stop:
            done.resolve(stop.value)
            self.current_task = None
            return
        except BaseException as e:  # noqa: BLE001 - failure is data
            task.die(e)
            self.current_task = None
            return
        self.current_task = None
        if task._cancelled:
            # A cancel raced with this step; the throw is already queued.
            return
        c = y.__class__
        if c is float and y >= 0.0:
            self._seq = seq = self._seq + 1
            heappush(self._queue, (self.now + y, seq, task))
        elif c is Future:
            task._waiting_on = y
            if y._state is _PENDING:
                y._callbacks.append(task._future_fired)
            else:
                task._future_fired(y)
        else:
            # ints, negative delays (thrown back into the task),
            # subclasses, Task joins, bare yield
            task._handle_yield(y)

    def _spin(self, horizon: float = _INF, stop: float = _INF) -> None:
        """The event loop — the only place entries are taken and fired.

        Fires entries in ``(time, seq)`` order while the next one is due
        at or before ``horizon`` and ``events_processed`` is below
        ``stop``.  Discarded tombstones are not events, so they never
        count against ``stop``.  Every fired callback may schedule, so
        only the container identities are held in locals.
        """
        ready = self._ready
        heap = self._queue
        free = self._free
        popleft = ready.popleft
        while self.events_processed < stop:
            h = ready[0] if ready else None
            if h is None:
                top = heap[0] if heap else None
                if top is not None:
                    o = top[2]
                    if o.__class__ is _Event and o.cancelled:
                        top = self._peek()
                if top is None or top[0] > horizon:
                    return
            else:
                resume = h.__class__ is tuple
                if not resume and h.cancelled:
                    popleft()                      # cancelled call_soon
                    continue
                # Ready entries sit at the current clock (≤ horizon); only
                # a heap entry at the same instant with a smaller seq
                # fires first.
                top = None
                if heap and heap[0][0] == self.now:
                    top = self._peek()
                    if top is not None and (top[0] != self.now or top[1] >
                                            (h[0] if resume else h.seq)):
                        top = None
                if top is None:
                    popleft()
                    self.events_processed += 1
                    if resume:
                        self._resume(h[1], h[2])
                    else:
                        fn = h.fn
                        args = h.args
                        free.append(h)             # call_soon handle: recycle
                        fn(*args)
                    continue
            # -- take + fire the heap head ------------------------------
            heappop(heap)
            self.now = top[0]
            self.events_processed += 1
            o = top[2]
            c = o.__class__
            if c is Task:
                self._resume(o, None)
            elif c is _Event:
                o.fn(*o.args)
            else:
                o(*top[3])

    def step(self) -> bool:
        """Process the next entry.  Returns False when the queue is empty
        and the idle hooks (if any) scheduled nothing new."""
        stop = self.events_processed + 1
        while True:
            self._spin(_INF, stop)
            if self.events_processed >= stop:
                return True
            if not self.fire_idle_hooks():
                return False

    def fire_idle_hooks(self) -> bool:
        """Run the idle hooks, in order, if the queue is truly empty.
        Returns True when a hook scheduled new work (so stepping should
        continue); the hooks after it wait for the next quiescence."""
        if not self.idle_hooks or self._peek_time() != _INF:
            return False
        for hook in list(self.idle_hooks):
            hook()
            if self._peek_time() != _INF:
                return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` passes, or the budget ends.

        ``max_events`` is charged on *processed* events (the
        ``events_processed`` delta), so draining tombstones from a
        cancelled-event storm or firing idle hooks never eats budget."""
        horizon = _INF if until is None else until
        stop = _INF if max_events is None else \
            self.events_processed + max_events
        while True:
            self._spin(horizon, stop)
            t = self._peek_time()
            if t == _INF:
                if not self.fire_idle_hooks():
                    break
            elif t > horizon:
                break
            else:
                return                 # budget spent with work still due
        if until is not None and until > self.now:
            self.now = until

    def drain(self, horizon: float, stop: float = _INF) -> None:
        """Process every entry with time ≤ ``horizon`` (the settle loop's
        hot inner loop), or until ``events_processed`` reaches ``stop``.
        Returns with the clock unchanged past the last fired entry; idle
        hooks are the caller's business (:meth:`LocusCluster.settle`)."""
        self._spin(horizon, stop)

    def run_task(self, gen: Generator, name: str = "") -> Any:
        """Spawn a task, drive the simulation until it completes, return its
        result (or raise its failure).

        Raises :class:`DeadlockError` if the event queue drains while the
        task is still blocked — i.e. it waits on something nothing will ever
        deliver.
        """
        task = self.spawn(gen, name=name)
        while not task.finished:
            if not self.step():
                raise DeadlockError(
                    f"event queue drained while {task!r} still blocked")
        return task.result()

    def _peek_time(self) -> float:
        """Timestamp of the earliest live entry (inf when drained)."""
        ready = self._ready
        while ready:
            h = ready[0]
            if h.__class__ is tuple or not h.cancelled:
                # Ready entries always sit at the current clock: the clock
                # only advances through heap takes, which require an empty
                # ready deque.
                return self.now
            ready.popleft()
        head = self._peek()
        return head[0] if head is not None else _INF

    def pending(self) -> int:
        """True count of scheduled-but-unfired entries, excluding cancelled
        tombstones."""
        return (sum(1 for h in self._ready
                    if h.__class__ is tuple or not h.cancelled) +
                sum(1 for e in self._queue
                    if e[2].__class__ is not _Event or not e[2].cancelled))

    # -- timeouts ---------------------------------------------------------

    def with_timeout(self, fut: Future, timeout: float,
                     label: str = "") -> Future:
        """Return a future that mirrors ``fut`` but fails with
        :class:`SimTimeout` if it does not complete within ``timeout``."""
        out = Future(label=f"timeout:{label or fut.label}")
        ev = self.schedule(
            timeout, lambda: out.fail(SimTimeout(label or fut.label)))

        def _mirror(f: Future) -> None:
            ev.cancel()
            exc = f.exception()
            if exc is not None:
                out.fail(exc)
            else:
                out.resolve(f.result())

        fut.add_callback(_mirror)
        return out

    def gather(self, futures: List[Future], label: str = "gather") -> Future:
        """A future resolving with the list of results once all complete.

        Fails fast with the first failure.
        """
        out = Future(label=label)
        remaining = len(futures)
        results: List[Any] = [None] * len(futures)
        if remaining == 0:
            out.resolve([])
            return out

        def _one(i: int, f: Future) -> None:
            nonlocal remaining
            exc = f.exception()
            if exc is not None:
                out.fail(exc)
                return
            results[i] = f.result()
            remaining -= 1
            if remaining == 0:
                out.resolve(results)

        for i, f in enumerate(futures):
            f.add_callback(lambda fu, i=i: _one(i, fu))
        return out

    def __repr__(self) -> str:
        return (f"<Simulator t={self.now:.3f} queued={self.pending()} "
                f"processed={self.events_processed}>")
