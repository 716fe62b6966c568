"""Network statistics: message counts and bytes, aggregated by message type.

The reproduction benchmarks assert on these counters: Figure 2's open
protocol, the two-message network read, the one-message write, and the
four-message close are all verified by counting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class NetStats:
    sent: Counter = field(default_factory=Counter)          # mtype -> messages
    bytes_sent: Counter = field(default_factory=Counter)    # mtype -> bytes
    # mtype -> data pages carried (batched transfers move several per
    # message; pages/messages is the batching-effectiveness metric).
    pages: Counter = field(default_factory=Counter)
    delivered: int = 0
    dropped: int = 0
    circuits_opened: int = 0
    circuits_closed: int = 0

    @property
    def total_messages(self) -> int:
        return sum(self.sent.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())

    def record_send(self, stat_key: str, size: int) -> None:
        self.sent[stat_key] += 1
        self.bytes_sent[stat_key] += size

    def record_pages(self, stat_key: str, n: int) -> None:
        """Count ``n`` data pages served over the wire for ``stat_key``."""
        self.pages[stat_key] += n

    def pages_per_message(self, stat_key: str) -> float:
        msgs = self.sent.get(stat_key, 0)
        return self.pages.get(stat_key, 0) / msgs if msgs else 0.0

    def snapshot(self) -> "StatsSnapshot":
        return StatsSnapshot(
            sent=Counter(self.sent),
            bytes_sent=Counter(self.bytes_sent),
            pages=Counter(self.pages),
            delivered=self.delivered,
            dropped=self.dropped,
            circuits_opened=self.circuits_opened,
            circuits_closed=self.circuits_closed,
        )


@dataclass
class StatsSnapshot:
    sent: Counter
    bytes_sent: Counter
    delivered: int
    dropped: int
    pages: Counter = field(default_factory=Counter)
    circuits_opened: int = 0
    circuits_closed: int = 0

    def diff(self, later: "StatsSnapshot") -> "StatsSnapshot":
        """Counters accumulated between ``self`` (earlier) and ``later``."""
        return StatsSnapshot(
            sent=Counter({k: v - self.sent.get(k, 0)
                          for k, v in later.sent.items()
                          if v - self.sent.get(k, 0)}),
            bytes_sent=Counter({k: v - self.bytes_sent.get(k, 0)
                                for k, v in later.bytes_sent.items()
                                if v - self.bytes_sent.get(k, 0)}),
            pages=Counter({k: v - self.pages.get(k, 0)
                           for k, v in later.pages.items()
                           if v - self.pages.get(k, 0)}),
            delivered=later.delivered - self.delivered,
            dropped=later.dropped - self.dropped,
            circuits_opened=later.circuits_opened - self.circuits_opened,
            circuits_closed=later.circuits_closed - self.circuits_closed,
        )

    @property
    def total_messages(self) -> int:
        return sum(self.sent.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())


class StatsWindow:
    """Context-manager style window over a :class:`NetStats`.

    >>> win = StatsWindow(net.stats)
    >>> ... run protocol ...
    >>> win.close().total_messages
    """

    def __init__(self, stats: NetStats):
        self.stats = stats
        self.start = stats.snapshot()
        self._result: Optional[StatsSnapshot] = None

    def close(self) -> StatsSnapshot:
        if self._result is None:
            self._result = self.start.diff(self.stats.snapshot())
        return self._result
