"""Deterministic per-layer counters, read from the program's public stats.

``read(cluster)`` flattens what the program already counts —
``cluster.stats`` (NetStats), ``sim.events_processed``, each site's
``MetricsRegistry``, buffer/name-cache stats, ``propagator.stats``,
``recovery.stats``, ``scrub.stats``, ``topology.stats`` — into one dict of
*additive* raw counts.  ``Counts`` sums window deltas (one per cluster; the
chaos workload has one cluster per plan) and ``Counts.metrics`` turns the
sums into the named per-layer metrics of BENCHMARK.json.

Nothing here installs a wrapper or patches ``src/``: it only reads.
"""

from __future__ import annotations

from collections import Counter

from repro.obs import analyze_spans
from repro.obs.critpath import SEGMENTS

# Site-registry counters reported under a layer name.
_SITE_COUNTERS = {
    "rpc.retries": "core.rpc_retries",
    "rpc.conflict_retries": "core.conflict_retries",
    "rpc.late_replies_discarded": "core.late_replies_discarded",
    "fs.failovers": "fs.failovers",
    "fs.write_failovers": "fs.write_failovers",
    "fs.read_retries": "fs.read_retries",
    "fs.commit_retries": "fs.commit_retries",
    "fs.ledger_replays": "fs.ledger_replays",
}
_RECOVERY = ("files_examined", "dir_merges", "conflicts_marked",
             "retries_scheduled")
_RECONFIG = ("partition_runs", "merge_runs")


def read(cluster) -> Counter:
    """Raw additive counts of one cluster, cumulative since it was built."""
    c = Counter()
    stats = cluster.stats
    c["sim.events"] = cluster.sim.events_processed
    c["net.messages"] = stats.total_messages
    c["net.bytes"] = stats.total_bytes
    c["net.dropped"] = stats.dropped
    c["net.circuits_closed"] = stats.circuits_closed
    c["_net.data_pages"] = sum(stats.pages.values())
    c["_net.data_msgs"] = sum(stats.sent[k] for k in stats.pages)
    wire = cluster.net.metrics.hist("net.wire")
    c["_net.wire_vt"] = wire.total
    c["_net.wire_n"] = wire.count
    c["obs.spans"] = len(cluster.tracer.spans)
    for site in cluster.sites:
        reg = site.metrics
        for name, hist in reg.hists.items():
            if name.startswith("rpc."):
                c["core.rpcs"] += hist.count
            elif name.startswith("syscall."):
                c["fs.syscalls"] += hist.count
        opens = reg.hists.get("syscall.open")
        if opens is not None:
            c["_fs.open_vt"] += opens.total
            c["_fs.open_n"] += opens.count
        lag = reg.hists.get("prop.lag")
        if lag is not None:
            c["_fs.prop_lag_vt"] += lag.total
            c["_fs.prop_lag_n"] += lag.count
        for src, dst in _SITE_COUNTERS.items():
            c[dst] += reg.counters.get(src, 0)
        c[f"_core.cpu_vt.{site.site_id}"] = site.cpu_used
        c["_fs.name_hits"] += site.name_cache.stats.hits
        c["_fs.name_misses"] += site.name_cache.stats.misses
        c["_storage.cache_hits"] += site.cache.stats.hits
        c["_storage.cache_misses"] += site.cache.stats.misses
        c["storage.cache_invalidations"] += site.cache.stats.invalidations
        prop = site.fs.propagator.stats
        c["fs.prop_pulls"] += prop.pulls
        c["fs.prop_pages_pulled"] += prop.pages_pulled
        c["fs.prop_sync_waits"] += prop.sync_waits
        c["fs.scrub_rounds"] += site.scrub.stats.rounds
        c["fs.scrub_reconciles"] += site.scrub.stats.reconciles
        for field in _RECOVERY:
            c[f"recovery.{field}"] += getattr(site.recovery.stats, field)
        for field in _RECONFIG:
            c[f"reconfig.{field}"] += site.topology.stats[field]
    return c


def space(cluster) -> Counter:
    """End-of-run space use: blocks held by every pack vs. the logical
    pages of live files counted once (replication and shadow pages are the
    amplification)."""
    c = Counter()
    live = {}
    page = cluster.config.cost.page_size
    for site in cluster.sites:
        for gfs, pack in site.packs.items():
            c["_storage.blocks"] += pack.blocks_in_use
            for ino, inode in pack.inodes.items():
                if inode.has_data and not inode.deleted:
                    pages = -(-inode.size // page)
                    live[(gfs, ino)] = max(live.get((gfs, ino), 0), pages)
    c["_storage.user_pages"] = sum(live.values())
    return c


def blame(cluster, first_span: int = 0) -> Counter:
    """Virtual critical path of the syscalls begun at or after span index
    ``first_span``, from the program's own blame table."""
    report = analyze_spans(cluster.tracer.spans[first_span:],
                           now=cluster.sim.now)
    c = Counter({f"_vt.{seg}": report.segment_totals[seg]
                 for seg in SEGMENTS})
    c["_vt.roots"] = report.root_count
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Counts:
    """Sum of window deltas, plus the derived per-layer metrics."""

    def __init__(self):
        # Refused writer opens are seen only by the write workload's
        # clients, which count them here; elsewhere the metric is 0.
        self.raw = Counter({"fs.writer_refusals": 0})

    def add(self, after: Counter, before: Counter = None) -> None:
        self.raw.update(after)
        if before:
            self.raw.subtract(before)

    def metrics(self, ops: int) -> dict:
        """The named virtual/count per-layer metrics (see BENCHMARK.json)."""
        r = self.raw
        out = {k: v for k, v in r.items() if not k.startswith("_")}
        cpu = [v for k, v in sorted(r.items())
               if k.startswith("_core.cpu_vt.")]
        out.update({
            "sim.events_per_op": _ratio(r["sim.events"], ops),
            "net.pages_per_data_msg": _ratio(r["_net.data_pages"],
                                             r["_net.data_msgs"]),
            "net.wire_vt_mean": _ratio(r["_net.wire_vt"], r["_net.wire_n"]),
            "core.cpu_vt_per_op": _ratio(sum(cpu), ops),
            "core.cpu_vt_max_site_share": _ratio(max(cpu, default=0.0),
                                                 sum(cpu)),
            "fs.open_vt_mean": _ratio(r["_fs.open_vt"], r["_fs.open_n"]),
            "fs.name_cache_hit_rate": _ratio(
                r["_fs.name_hits"], r["_fs.name_hits"] + r["_fs.name_misses"]),
            "fs.prop_lag_vt_mean": _ratio(r["_fs.prop_lag_vt"],
                                          r["_fs.prop_lag_n"]),
            "storage.cache_hit_rate": _ratio(
                r["_storage.cache_hits"],
                r["_storage.cache_hits"] + r["_storage.cache_misses"]),
            "storage.blocks_per_user_page": _ratio(r["_storage.blocks"],
                                                   r["_storage.user_pages"]),
        })
        # Mean critical path per syscall root; sums to mean syscall latency.
        for seg in SEGMENTS:
            out[f"vt.{seg}"] = _ratio(r[f"_vt.{seg}"], r["_vt.roots"])
        return out
