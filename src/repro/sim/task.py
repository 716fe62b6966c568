"""Kernel tasks: generator coroutines driven by the simulator."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import TaskCancelled
from repro.sim.future import Future, _PENDING


class Task:
    """A running kernel procedure.

    Wraps a generator and steps it each time the thing it yielded completes.
    The task itself exposes a ``done`` future so other tasks can wait for it
    (``yield task.done``).
    """

    __slots__ = ("sim", "gen", "name", "done", "span_ctx", "owner",
                 "_cancelled", "_waiting_on")

    def __init__(self, sim, gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "task")
        self.done = Future(label=self.name)
        # Flight-recorder span context, inherited from the spawning task so
        # background work parents under the syscall that caused it.
        parent = sim.current_task
        self.span_ctx = parent.span_ctx if parent is not None else None
        # The set of live tasks that tracks this one (a site's, so a crash
        # can cancel them), if any: see disown.
        self.owner: Optional[set] = None
        self._cancelled = False
        self._waiting_on: Optional[Future] = None

    # -- public --------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.done.done

    def result(self) -> Any:
        return self.done.result()

    def cancel(self, reason: str = "") -> None:
        """Throw :class:`TaskCancelled` into the generator at its next step."""
        if self.finished or self._cancelled:
            return
        self._cancelled = True
        # If blocked on a future, detach and resume with the cancellation now.
        self.sim.call_soon(self._step_throw, TaskCancelled(reason or self.name))

    def disown(self, _done: Future) -> None:
        """``done`` callback of an owned task: leave the owner's set.  A
        bound method, so tracking a task allocates no closure."""
        self.owner.discard(self)

    # -- stepping (driven by the simulator) -----------------------------

    def _start(self) -> None:
        self._step_send(None)

    def _step_send(self, value: Any) -> None:
        if self.finished:
            return
        sim = self.sim
        prev_task = sim.current_task
        sim.current_task = self
        try:
            try:
                yielded = self.gen.send(value)
            except StopIteration as stop:
                self.done.resolve(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - failure is data
                self.done.fail(exc)
                return
        finally:
            sim.current_task = prev_task
        self._handle_yield(yielded)

    def _step_throw(self, exc: BaseException) -> None:
        if self.finished:
            return
        sim = self.sim
        prev_task = sim.current_task
        sim.current_task = self
        try:
            try:
                yielded = self.gen.throw(exc)
            except StopIteration as stop:
                self.done.resolve(stop.value)
                return
            except BaseException as err:  # noqa: BLE001
                self.done.fail(err)
                return
        finally:
            sim.current_task = prev_task
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if self._cancelled:
            # A cancel raced with this step; the throw is already scheduled.
            return
        # Exact-type checks first (the hot kernel shapes: virtual-time
        # charges and futures), isinstance fallbacks after for subclasses.
        cls = yielded.__class__
        if cls is float or cls is int:
            self._sleep(yielded)
        elif cls is Future or isinstance(yielded, Future):
            self._wait_future(yielded)
        elif isinstance(yielded, Task):
            self._wait_future(yielded.done)
        elif isinstance(yielded, (int, float)):
            self._sleep(yielded)
        elif yielded is None:
            # Bare yield: reschedule immediately (cooperative yield point).
            self.sim.call_soon(self._step_send, None)
        else:
            self._step_throw(TypeError(
                f"task {self.name!r} yielded unsupported {yielded!r}"))

    def _sleep(self, delay: float) -> None:
        """Timer step: the simulator queues the task itself, no event.  A
        negative delay would run the clock backwards, so it is thrown back
        into the task like any other unsupported yield."""
        if delay < 0:
            self._step_throw(ValueError(
                f"task {self.name!r} yielded negative delay {delay!r}"))
        else:
            self.sim._schedule_timer(float(delay), self)

    def _wait_future(self, fut: Future) -> None:
        self._waiting_on = fut
        if fut._state is _PENDING:
            fut._callbacks.append(self._future_fired)
        else:
            self._future_fired(fut)

    def _future_fired(self, f: Future) -> None:
        """Completion callback: hand the task to the simulator's ready
        queue.  Runs at resolve time, so the staleness check (a wake-up
        racing a cancellation) happens exactly where the old closure-based
        callback performed it."""
        if self._waiting_on is not f:
            return
        self._waiting_on = None
        self.sim._ready_resume(self, f)

    def __repr__(self) -> str:
        state = "done" if self.finished else "running"
        return f"<Task {self.name!r} {state}>"
