"""Synchronization primitives built on futures.

Used by kernel processes: the propagation queue (paper section 2.3.6 keeps
"a queue of propagation requests ... serviced by a kernel process"), pipe
buffers, and transaction lock waits.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List

from repro.sim.future import Future
from repro.sim.simulator import Simulator


class SimQueue:
    """Unbounded FIFO queue with blocking ``get``."""

    def __init__(self, sim: Simulator, name: str = "queue"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Future] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().resolve(item)
        else:
            self._items.append(item)

    def get(self) -> Generator:
        """Kernel-procedure style blocking get (use with ``yield from``)."""
        if self._items:
            return self._items.popleft()
            yield  # pragma: no cover - marks this function as a generator
        fut = self.sim.create_future(f"{self.name}.get")
        self._getters.append(fut)
        item = yield fut
        return item

    def __len__(self) -> int:
        return len(self._items)

    def drain(self) -> List[Any]:
        items = list(self._items)
        self._items.clear()
        return items


class SimEvent:
    """A level-triggered event: tasks wait until somebody sets it."""

    def __init__(self, sim: Simulator, name: str = "event"):
        self.sim = sim
        self.name = name
        self._set = False
        self._waiters: List[Future] = []

    def set(self) -> None:
        self._set = True
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            fut.resolve(None)

    def clear(self) -> None:
        self._set = False

    def wait(self) -> Generator:
        if self._set:
            return None
            yield  # pragma: no cover
        fut = self.sim.create_future(f"{self.name}.wait")
        self._waiters.append(fut)
        yield fut
        return None


class Semaphore:
    """Counting semaphore with FIFO wake-up order."""

    def __init__(self, sim: Simulator, value: int = 1, name: str = "sem"):
        if value < 0:
            raise ValueError("semaphore value must be non-negative")
        self.sim = sim
        self.name = name
        self._value = value
        self._waiters: Deque[Future] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Generator:
        if self._value > 0:
            self._value -= 1
            return None
            yield  # pragma: no cover
        fut = self.sim.create_future(f"{self.name}.acquire")
        self._waiters.append(fut)
        yield fut
        return None

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().resolve(None)
        else:
            self._value += 1
