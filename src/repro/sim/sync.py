"""The blocking FIFO queue kernel processes sleep on.

The propagation queue (paper section 2.3.6 keeps "a queue of propagation
requests ... serviced by a kernel process") is the model use.
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

    def drain(self) -> List[Any]:
        items = list(self._items)
        self._items.clear()
        return items
