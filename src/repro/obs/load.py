"""Cluster load and hotspot report, derived from the span log: the
measurement layer for CSS sharding.

The ROADMAP's sharded-CSS item needs the system to *measure* load before
it can hand the synchronization-site role off on load: which filegroup
is hot, which inodes draw the traffic, where each site's service demand
goes, and how long divergence goes undetected.  Nothing here records
anything while the cluster runs — every number is a pure function of
the flight recorder's span log and the cluster's live state, read at
report time:

* per-site syscall counts and rates — ``syscall.*`` spans, bucketed by
  end time into :data:`WINDOW`;
* served-RPC counts, rates and per-op busy time — ``serve:*`` handler
  spans;
* hot inodes and the per-filegroup CSS table — synchronized ``fs.open``
  spans (they carry ``gfile``), each filegroup under its current CSS;
* queues and replication lag — the sites' live state;
* divergence detection latency — :func:`convergence`, from the fault,
  scrub and repair instants.

:func:`load_records` turns the report into the ``load`` / ``detection``
records appended to the JSONL export, :func:`format_top` into
``python -m repro.cli top``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.histogram import Histogram
from repro.obs.span import ROW

# Rate window: (bucket width in vtime, bucket count).  A rate is the
# events that ended in the last ``count`` buckets (the current one
# included) over the window's span, clamped to one bucket early on.
WINDOW = (2000.0, 8)
HOT_K = 10


def _rate(ends: List[float], now: float) -> float:
    width, buckets = WINDOW
    floor = int(now // width) - buckets + 1
    live = sum(1 for end in ends if int(end // width) >= floor)
    return round(live / min(max(now, width), width * buckets), 6)


def _counts(load: "SiteLoad", now: float) -> Dict:
    return {"syscalls": len(load.syscall_ends),
            "syscall_rate": _rate(load.syscall_ends, now),
            "rpcs": len(load.served_ends),
            "rpc_rate": _rate(load.served_ends, now)}


class SiteLoad:
    """One site's share of the span log: its finished syscalls' and
    served RPCs' end times, per-op served count and busy vtime, and its
    synchronized opens per gfile (counted at the using site)."""

    __slots__ = ("syscall_ends", "served_ends", "rpc_ops", "opens")

    def __init__(self):
        self.syscall_ends: List[float] = []
        self.served_ends: List[float] = []
        self.rpc_ops: Dict[str, List] = {}     # op -> [count, busy vtime]
        self.opens: Dict[Tuple, int] = {}      # gfile -> synchronized opens


def span_load(cluster) -> Dict[int, SiteLoad]:
    """Site id -> :class:`SiteLoad`, in one pass over the finished spans.
    A span still open is skipped, like its latency sample, which the
    registry only takes when the span finishes."""
    log = cluster.tracer.spans
    loads = {site.site_id: SiteLoad() for site in cluster.sites}
    for row, (__, ___, code, site, ____, start) in enumerate(
            ROW.iter_unpack(log.rows)):
        end = log.end[row]
        if end != end or site not in loads:
            continue
        name, kind = log.labels[code]
        load = loads[site]
        if kind == "syscall":
            load.syscall_ends.append(end)
        elif kind == "handler":             # "serve:<op>"
            load.served_ends.append(end)
            cell = load.rpc_ops.setdefault(name[len("serve:"):], [0, 0.0])
            cell[0] += 1
            cell[1] += end - start
        elif name == "fs.open":
            gfile = tuple(log[row].attrs["gfile"])
            load.opens[gfile] = load.opens.get(gfile, 0) + 1
    return loads


def _hot(opens: Dict[Tuple, int]) -> List[List]:
    ranked = sorted(opens, key=lambda g: (-opens[g], g))[:HOT_K]
    return [[list(g), opens[g]] for g in ranked]


def _opens(loads: Dict[int, SiteLoad]) -> Tuple[Dict, Dict[int, int]]:
    """Cluster-wide synchronized opens, per gfile and per filegroup."""
    by_gfile: Dict[Tuple, int] = {}
    by_gfs: Dict[int, int] = {}
    for load in loads.values():
        for gfile, n in load.opens.items():
            by_gfile[gfile] = by_gfile.get(gfile, 0) + n
            by_gfs[gfile[0]] = by_gfs.get(gfile[0], 0) + n
    return by_gfile, by_gfs


def _queues(site) -> Dict[str, int]:
    return {
        "rpc_outstanding": len(site._pending),
        "propagation": len(site.fs.propagator.pending()),
        "staged_pages": sum(len(h.pending_writes)
                            for h in site.fs.us.values()),
    }


def _replication(site) -> Dict:
    prop = site.fs.propagator
    ages = prop.lag_ages()
    return {
        "pending": len(ages),
        "oldest_lag": round(max(ages), 6) if ages else 0.0,
        "pulled": prop.stats.pulls,
    }


# Injector actions that can damage a copy (``fault.<kind>`` instants); an
# audit or a restore repairs, so it never restarts the latency clock.
_DAMAGE_KINDS = frozenset({
    "crash", "restart", "partition", "heal", "loss_burst",
    "latency_spike", "disk_errors", "drop", "dropped"})
# The scrub's divergence classifications (``scrub.<kind>`` instants); its
# ``scrub.start`` / ``scrub.complete`` pass markers are not detections.
_SCRUB_FINDINGS = frozenset({"reconcile", "digest_skew", "placement",
                             "dangling"})


def convergence(tracer) -> Tuple[List[Dict], Dict]:
    """Divergence detection latency, derived from the span log: the
    ``detection`` records and their summary.

    A ``scrub.<kind>`` classification is a *detect* and a
    ``repair.<kind>`` instant (recovery propagating or flagging a
    conflict) a *repair*; each is timed from the most recent damaging
    ``fault.<kind>`` instant — the deterministic analogue of "how long
    did the damage go unnoticed".  Only detections feed the latency
    histogram."""
    records: List[Dict] = []
    faults = repairs = 0
    fault_ts = None
    latency = Histogram()
    for inst in tracer.instants:
        family, __, kind = inst["name"].partition(".")
        if family == "fault":
            if kind in _DAMAGE_KINDS:
                faults += 1
                fault_ts = inst["ts"]
            continue
        if family == "scrub" and kind in _SCRUB_FINDINGS:
            event = "detect"
        elif family == "repair":
            event = "repair"
            repairs += 1
        else:
            continue
        lag = None
        if fault_ts is not None:
            lag = round(inst["ts"] - fault_ts, 6)
            if event == "detect":
                latency.observe(lag)
        records.append({
            "type": "detection",
            "seq": len(records) + 1,
            "ts": inst["ts"],
            "event": event,
            "kind": kind,
            "site": inst["site"],
            "gfile": inst["attrs"].get("gfile"),
            "fault_ts": fault_ts,
            "latency": lag,
        })
    return records, {
        "faults": faults,
        "detections": len(records) - repairs,
        "repairs": repairs,
        "detection_latency": latency.to_dict(),
    }


def load_records(cluster) -> List[Dict]:
    """Deterministic ``load`` + ``detection`` records for the JSONL
    export stream (appended after the span/instant records): one
    ``load`` record per site, every mapping key-sorted."""
    now = cluster.sim.now
    loads = span_load(cluster)
    __, by_gfs = _opens(loads)
    records: List[Dict] = []
    for site in cluster.sites:
        load = loads[site.site_id]
        mount = site.fs.mount
        records.append({
            "type": "load", "site": site.site_id, "ts": now,
            "window": list(WINDOW),
            **_counts(load, now),
            "rpc_ops": {op: {"count": cell[0], "busy": round(cell[1], 6)}
                        for op, cell in sorted(load.rpc_ops.items())},
            "hot_inodes": _hot(load.opens),
            "css": {str(gfs): {"opens": n}
                    for gfs, n in sorted(by_gfs.items())
                    if mount.css_for(gfs) == site.site_id},
            "queues": _queues(site),
            "replication": _replication(site),
        })
    records.extend(convergence(cluster.tracer)[0])
    return records


# ----------------------------------------------------------------------
# The ``cli top`` report
# ----------------------------------------------------------------------

def cluster_load_report(cluster) -> Dict:
    """The cluster view behind ``cli top``.  A filegroup's CSS is the one
    the lowest-numbered up site's mount table names."""
    now = cluster.sim.now
    loads = span_load(cluster)
    by_gfile, by_gfs = _opens(loads)
    viewer = next((s for s in cluster.sites if s.up), cluster.sites[0])
    css = [{"gfs": gfs, "site": viewer.fs.mount.css_for(gfs), "opens": n}
           for gfs, n in by_gfs.items()]
    conflicts = sorted({
        (gfs, ino)
        for site in cluster.sites
        for gfs, pack in site.packs.items()
        for ino, inode in pack.inodes.items()
        if inode.conflict and not inode.deleted})
    scrub_backlog = sum(len(s.scrub._active) for s in cluster.sites
                        if s.scrub is not None)
    recovery_backlog = sum(s.recovery.backlog() for s in cluster.sites
                           if s.recovery is not None)
    sites = [{"site": s.site_id, "up": s.up,
              "cpu_used": round(s.cpu_used, 2),
              **_counts(loads[s.site_id], now),
              "prop_backlog": len(s.fs.propagator.pending())}
             for s in cluster.sites]
    return {
        "vtime": round(now, 2),
        "messages": cluster.stats.total_messages,
        "sites": sites,
        "hot_inodes": _hot(by_gfile),
        "css": sorted(css, key=lambda e: (-e["opens"], e["gfs"])),
        "backlog": {
            "conflicts": len(conflicts),
            "scrub_active": scrub_backlog,
            "recovery_pending": recovery_backlog,
            "propagation": sum(s["prop_backlog"] for s in sites),
        },
        "convergence": convergence(cluster.tracer)[1],
    }


def format_top(cluster) -> str:
    """Byte-deterministic cluster status report (``python -m repro.cli
    top``): per-site rates, hottest inodes, CSS load ranking, backlog."""
    report = cluster_load_report(cluster)
    lines: List[str] = [
        f"LOCUS top — vtime={report['vtime']} "
        f"sites={len(report['sites'])} msgs={report['messages']}",
        "-- sites --",
        f"  {'site':<5} {'state':<5} {'syscalls':>9} {'sc_rate':>9} "
        f"{'rpcs_srv':>9} {'rpc_rate':>9} {'cpu_used':>10} {'prop_q':>6}",
    ]
    for s in report["sites"]:
        lines.append(
            f"  {s['site']:<5} {'up' if s['up'] else 'DOWN':<5} "
            f"{s['syscalls']:>9} {s['syscall_rate']:>9.4f} "
            f"{s['rpcs']:>9} {s['rpc_rate']:>9.4f} "
            f"{s['cpu_used']:>10.1f} {s['prop_backlog']:>6}")
    lines.append("-- hottest inodes (synchronized opens) --")
    lines.append(f"  {'rank':<5} {'gfile':<12} {'opens':>6}")
    for rank, (gfile, count) in enumerate(report["hot_inodes"], start=1):
        lines.append(f"  {rank:<5} {str(tuple(gfile)):<12} {count:>6}")
    lines.append("-- CSS load by filegroup --")
    lines.append(f"  {'gfs':<4} {'css':<4} {'opens':>6}")
    for entry in report["css"]:
        lines.append(f"  {entry['gfs']:<4} {entry['site']:<4} "
                     f"{entry['opens']:>6}")
    backlog = report["backlog"]
    lines.append(
        f"backlog: conflicts={backlog['conflicts']} "
        f"scrub_active={backlog['scrub_active']} "
        f"recovery_pending={backlog['recovery_pending']} "
        f"propagation={backlog['propagation']}")
    conv = report["convergence"]
    lat = conv["detection_latency"]
    lines.append(
        f"convergence: faults={conv['faults']} "
        f"detections={conv['detections']} repairs={conv['repairs']} "
        f"detect_p50={lat['p50']} detect_p99={lat['p99']}")
    return "\n".join(lines)
