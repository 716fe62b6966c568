"""Live cluster introspection: the operator's view of kernel state.

Subsystem counters are the public ``stats`` objects ``bench/counters.py``
reads too (buffer cache, name cache, propagation, scrub, recovery,
topology), so this module never reaches into private attributes; syscall and
RPC latency percentiles are each registry's one percentile summary.
"""

from __future__ import annotations

from typing import Dict, List


def _counters(stats) -> Dict:
    """A subsystem's stats object (or stats dict) as a plain dict."""
    return dict(stats if isinstance(stats, dict) else vars(stats))


def site_report(site) -> Dict:
    """One site's kernel state snapshot."""
    fs = site.fs
    cache, names = site.cache, site.name_cache
    return {
        "site": site.site_id,
        "up": site.up,
        "cpu_type": site.cpu_type,
        "cpu_used": round(site.cpu_used, 2),
        "partition": sorted(site.topology.partition_set)
        if site.topology else [],
        "epoch": site.topology.epoch if site.topology else 0,
        "packs": sorted(site.packs),
        "blocks_in_use": {gfs: pack.blocks_in_use
                          for gfs, pack in site.packs.items()},
        "open_us_handles": len(fs.us),
        "open_ss_files": sorted(fs.ss),
        "css_entries": sorted(fs.css_entries),
        "css_for": {gfs: fs.mount.css.get(gfs)
                    for gfs in fs.mount.groups},
        "propagation_pending": fs.propagator.pending(),
        "processes": sorted(site.proc.procs) if site.proc else [],
        "active_transactions": sorted(site.tx.txs) if site.tx else [],
        "latency": site.metrics.latency_summary(),
        "counters": dict(sorted(site.metrics.counters.items())),
        "cache": {"pages": len(cache),
                  "hit_rate": round(cache.stats.hit_rate, 3),
                  **_counters(cache.stats)},
        "name_cache": {"dirs": len(names),
                       "hit_rate": round(names.stats.hit_rate, 3),
                       **_counters(names.stats)},
        "propagation": _counters(fs.propagator.stats),
        "scrub": _counters(getattr(site.scrub, "stats", {})),
        "recovery": _counters(getattr(site.recovery, "stats", {})),
        "topology": _counters(getattr(site.topology, "stats", {})),
    }


def cluster_report(cluster) -> Dict:
    """Whole-cluster snapshot plus global traffic statistics."""
    tracer = cluster.tracer
    return {
        "vtime": round(cluster.sim.now, 2),
        "events_processed": cluster.sim.events_processed,
        "events_pending": cluster.sim.pending(),
        "sites": [site_report(s) for s in cluster.sites],
        "network": {
            "messages": cluster.stats.total_messages,
            "bytes": cluster.stats.total_bytes,
            "delivered": cluster.stats.delivered,
            "dropped": cluster.stats.dropped,
            "circuits_opened": cluster.stats.circuits_opened,
            "circuits_closed": cluster.stats.circuits_closed,
            "top_message_types": dict(
                sorted(cluster.stats.sent.items(),
                       key=lambda kv: -kv[1])[:10]),
            "pages_per_message": {
                k: round(cluster.stats.pages_per_message(k), 2)
                for k in sorted(cluster.stats.pages)},
            "latency": cluster.net.metrics.latency_summary(),
        },
        "trace": {
            "spans": len(tracer.spans),
            "instants": len(tracer.instants),
        },
    }


def format_report(report: Dict) -> str:
    """Human-readable rendering of :func:`cluster_report`."""
    lines: List[str] = [
        f"t={report['vtime']}  events={report['events_processed']}  "
        f"msgs={report['network']['messages']}  "
        f"dropped={report['network']['dropped']}",
    ]
    for s in report["sites"]:
        state = "up" if s["up"] else "DOWN"
        lines.append(
            f"  site {s['site']} [{state} {s['cpu_type']}] "
            f"partition={s['partition']} packs={s['packs']} "
            f"open={s['open_us_handles']} procs={len(s['processes'])} "
            f"cache_hit={s['cache']['hit_rate']} "
            f"name_hit={s['name_cache']['hit_rate']}")
        lat = s.get("latency") or {}
        syscalls = {k: v for k, v in lat.items()
                    if k.startswith("syscall.")}
        if syscalls:
            worst = max(syscalls.items(), key=lambda kv: kv[1]["p99"])
            lines.append(
                f"    latency: {len(syscalls)} syscalls tracked, "
                f"worst p99 {worst[0]}={worst[1]['p99']}")
    ppm = report["network"].get("pages_per_message") or {}
    if ppm:
        lines.append("  pages/msg: " + "  ".join(
            f"{k}={v}" for k, v in ppm.items()))
    trace = report["trace"]
    lines.append(f"  trace: {trace['spans']} spans, "
                 f"{trace['instants']} instants")
    return "\n".join(lines)
