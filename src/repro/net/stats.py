"""Network statistics, and the one window rule every counter store shares.

The reproduction benchmarks assert on these counters: Figure 2's open
protocol, the two-message network read, the one-message write, and the
four-message close are all verified by counting.

A *counter store* is any object whose numbers only grow: :class:`NetStats`,
a :class:`~repro.obs.registry.MetricsRegistry` with its counters and
histograms, or a subsystem's ``stats`` (buffer cache, name cache,
propagation, scrub, recovery, topology).  :func:`delta` is the one
snapshot-and-diff rule for all of them, and :class:`StatsWindow` applies it
around a block of activity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


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

    def record_pages(self, stat_key: str, n: int) -> None:
        """Count ``n`` data pages served over the wire for ``stat_key``."""
        self.pages[stat_key] += n

    def pages_per_message(self, stat_key: str) -> float:
        msgs = self.sent.get(stat_key, 0)
        return self.pages.get(stat_key, 0) / msgs if msgs else 0.0


def delta(before, after):
    """What a counter store accumulated from ``before`` to ``after``: a
    detached store of ``after``'s kind, so a window over a ``NetStats`` is a
    ``NetStats`` and a window over a histogram still has percentiles.
    ``before=None`` is the empty store, which makes the result a snapshot.

    Numbers subtract.  Mappings subtract key by key, a key first seen in
    ``after`` counting from zero; a ``Counter`` drops the keys that did not
    move.  Lists subtract element by element.  Any other object subtracts
    field by field, except the fields it names in ``not_counts`` (extrema
    a window cannot know), which are ``None``.  Strings and ``None`` are
    labels, not counts, and are taken from ``after``.
    """
    if after is None or isinstance(after, str):
        return after
    if isinstance(after, (int, float)):
        return after - (before or 0)
    if isinstance(after, dict):
        out = type(after)()
        for key, value in after.items():
            moved = delta((before or {}).get(key), value)
            if moved or not isinstance(after, Counter):
                out[key] = moved
        return out
    if isinstance(after, list):
        return [delta(b, a) for b, a in
                zip(before or [None] * len(after), after, strict=True)]
    out = object.__new__(type(after))
    skip = getattr(after, "not_counts", ())
    names = vars(after) if hasattr(after, "__dict__") else after.__slots__
    for name in names:
        setattr(out, name, None if name in skip else
                delta(getattr(before, name, None), getattr(after, name)))
    return out


def snapshot(store):
    """A detached copy of a counter store: its window since it was empty."""
    return delta(None, store)


class StatsWindow:
    """A window over any counter store.

    >>> win = StatsWindow(cluster.stats)
    >>> ... run protocol ...
    >>> win.close().total_messages
    """

    def __init__(self, store):
        self.store = store
        self.start = snapshot(store)
        self._result = None

    def close(self):
        if self._result is None:
            self._result = delta(self.start, self.store)
        return self._result
