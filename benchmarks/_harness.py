"""Shared helpers for the reproduction benchmarks.

Each benchmark regenerates one figure or quantified claim from the paper
(see DESIGN.md's experiment index).  The interesting metrics are *virtual*
time and message counts from the deterministic simulation; wall-clock timing
from pytest-benchmark is reported as well but is not the reproduced result.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Sequence

from repro import LocusCluster
from repro.net.stats import StatsWindow
from repro.obs.histogram import merge_windows


def run_experiment(benchmark, fn: Callable[[], Dict], rounds: int = 1):
    """Benchmark ``fn`` (which builds its own deterministic world and
    returns a metrics dict); report metrics via extra_info and return them.
    """
    out: Dict = {}

    def wrapper():
        out.clear()
        out.update(fn())

    benchmark.pedantic(wrapper, rounds=rounds, iterations=1)
    for key, value in out.items():
        if isinstance(value, (int, float, str)):
            benchmark.extra_info[key] = value
    return out


def print_table(title: str, headers: Sequence[str],
                rows: List[Sequence]) -> None:
    """Print one results table in the style the paper would report."""
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in text_rows)) if text_rows
              else len(h) for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===", file=sys.stderr)
    print(line, file=sys.stderr)
    print("-" * len(line), file=sys.stderr)
    for row in text_rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)),
              file=sys.stderr)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


class Measure:
    """Capture virtual time, per-site cpu, message traffic, and every
    counter store a BENCH entry reads, around a block of cluster activity.

    Each store — the network stats, and each site's registry, name cache
    and propagator — is windowed by ``repro.net.stats.StatsWindow``, so
    every figure covers exactly the measured block."""

    def __init__(self, cluster: LocusCluster):
        self.cluster = cluster
        self.t0 = cluster.sim.now
        self.cpu0 = {s.site_id: s.cpu_used for s in cluster.sites}
        self.window = StatsWindow(cluster.stats)
        self.registries = StatsWindow([s.metrics for s in cluster.sites])
        self.name_caches = StatsWindow([s.name_cache.stats
                                        for s in cluster.sites])
        self.propagators = StatsWindow([s.fs.propagator.stats
                                        for s in cluster.sites])
        # Simulator-kernel throughput over the window (wall-clock is the
        # one metric here that is NOT deterministic).
        self.events0 = cluster.sim.events_processed
        self.wall0 = time.perf_counter()

    def latency(self, prefix: str = "") -> Dict[str, Dict]:
        """Cluster-wide p50/p95/p99 over the measurement window, merged
        across sites via the public ``repro.obs.histogram`` API."""
        return merge_windows([r.hists for r in self.registries.close()],
                             prefix)

    def done(self) -> Dict:
        wall = time.perf_counter() - self.wall0
        events = self.cluster.sim.events_processed - self.events0
        snap = self.window.close()
        data_msgs = sum(snap.sent.get(k, 0) for k in snap.pages)
        names = self.name_caches.close()
        name_hits = sum(n.hits for n in names)
        name_misses = sum(n.misses for n in names)
        return {
            "vtime": self.cluster.sim.now - self.t0,
            "events": events,
            "wall_s": round(wall, 4),
            "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
            "cpu": {s.site_id: s.cpu_used - self.cpu0[s.site_id]
                    for s in self.cluster.sites},
            "cpu_total": sum(s.cpu_used for s in self.cluster.sites)
            - sum(self.cpu0.values()),
            "messages": snap.total_messages,
            "bytes": snap.total_bytes,
            "by_type": dict(snap.sent),
            # Batched-transfer effectiveness: data pages moved per
            # page-carrying message inside this window.
            "pages_per_message": (sum(snap.pages.values()) / data_msgs
                                  if data_msgs else 0.0),
            "name_cache_hit_rate": (name_hits / (name_hits + name_misses)
                                    if name_hits + name_misses else 0.0),
            "pipelined_rounds": sum(p.pipelined_rounds
                                    for p in self.propagators.close()),
            # Windowed syscall/RPC latency percentiles via the registry.
            "latency": self.latency(),
        }
