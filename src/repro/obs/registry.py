"""Per-site metrics registry: latency histograms and event counters.

One registry hangs off every :class:`~repro.core.site.Site` (and one off the
network).  Instrumented code reports durations with :meth:`observe` and event
counts with :meth:`count`.  A registry is a counter store like any other:
``repro.net.stats.StatsWindow(registry)`` windows its counters and
histograms together.

All methods are cheap and side-effect-free with respect to the simulation:
recording never charges virtual time, sends messages, or consumes simulator
randomness, so metrics collection can stay always-on without perturbing a
run.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.obs.histogram import Histogram


class MetricsRegistry:

    def __init__(self, owner: str = ""):
        self.owner = owner
        self.hists: Dict[str, Histogram] = {}
        self.counters: Counter = Counter()

    # -- recording -------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = Histogram()
        hist.observe(value)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def hist(self, name: str) -> Histogram:
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = Histogram()
        return hist

    # -- reading ---------------------------------------------------------

    def latency_summary(self, prefix: str = "") -> Dict[str, Dict]:
        """The percentile summary of every non-empty histogram whose name
        starts with ``prefix``, in name order."""
        return {name: hist.to_dict()
                for name, hist in sorted(self.hists.items())
                if hist.count and name.startswith(prefix)}
