"""Trace export: JSONL for machines, Chrome trace format for humans.

Both formats are byte-deterministic for a given tracer state: spans are
written in span-id order, instants in sequence order, every JSON object is
serialized with sorted keys and compact separators, and all timestamps are
virtual-time floats produced by deterministic arithmetic.  Replaying the
same seed and fault plan therefore produces byte-identical files — the
property the determinism tests assert with plain file equality.

The Chrome file loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: spans become complete ("X") slices grouped by site
(pid) and trace (tid); fault, partition, scrub, recovery and repair
instants become global instant ("i") events.  The tracer always records,
so every run can be exported.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

_SPAN_KEYS = {"type", "span_id", "trace_id", "parent_id", "name", "kind",
              "site", "start", "end", "status", "attrs", "events"}
_INSTANT_KEYS = {"type", "seq", "ts", "name", "site", "attrs"}
# Load records: one per site, derived from the span log and appended after
# the instants, plus the detection/repair records derived from the fault,
# scrub and repair instants (``convergence`` in repro.obs.load).
_LOAD_KEYS = {"type", "site", "ts", "window", "syscalls", "syscall_rate",
              "rpcs", "rpc_rate", "rpc_ops", "hot_inodes", "css",
              "queues", "replication"}
_DETECTION_KEYS = {"type", "seq", "ts", "event", "kind", "site", "gfile",
                   "fault_ts", "latency"}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def trace_records(tracer) -> List[Dict]:
    """All trace records in deterministic order: meta, spans, instants."""
    records: List[Dict] = [{
        "type": "meta",
        "spans": len(tracer.spans),
        "instants": len(tracer.instants),
        "vtime": tracer.sim.now,
    }]
    records += [span.to_dict() for span in tracer.spans]
    records += list(tracer.instants)
    return records


def export_jsonl(tracer, path: str,
                 extra: Optional[List[Dict]] = None) -> int:
    """Write one JSON object per line; returns the record count.

    ``extra`` appends additional deterministic records after the trace
    stream — the ``load`` / ``detection`` records built by
    :func:`repro.obs.load.load_records`.
    """
    records = trace_records(tracer)
    if extra:
        records = records + list(extra)
    with open(path, "w") as fh:
        for rec in records:
            fh.write(_dumps(rec))
            fh.write("\n")
    return len(records)


def export_chrome(tracer, path: str) -> int:
    """Write a Chrome-trace JSON file; returns the event count."""
    events: List[Dict] = []
    for span in tracer.spans:
        end = span.end if span.end is not None else tracer.sim.now
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.kind,
            "pid": span.site if span.site is not None else -1,
            "tid": span.trace_id,
            "ts": span.start,
            "dur": end - span.start,
            "args": {"span_id": span.span_id,
                     "parent_id": span.parent_id,
                     "status": span.status,
                     **span.attrs},
        })
        for ts, name, attrs in span.events:
            events.append({
                "ph": "i", "s": "t",
                "name": f"{span.name}:{name}",
                "cat": span.kind,
                "pid": span.site if span.site is not None else -1,
                "tid": span.trace_id,
                "ts": ts,
                "args": dict(attrs),
            })
    for inst in tracer.instants:
        events.append({
            "ph": "i", "s": "g",
            "name": inst["name"],
            "cat": "instant",
            "pid": inst["site"] if inst["site"] is not None else -1,
            "tid": 0,
            "ts": inst["ts"],
            "args": dict(inst["attrs"]),
        })
    with open(path, "w") as fh:
        fh.write(_dumps({"traceEvents": events,
                         "displayTimeUnit": "ms"}))
    return len(events)


def validate_trace_jsonl(path: str) -> List[str]:
    """Validate an exported JSONL trace against the span schema.

    Returns a list of human-readable problems (empty = valid).  Checks the
    record shapes, referential integrity of the parent links, and that
    every finished span has ``end >= start``.
    """
    errors: List[str] = []
    span_ids = set()
    parents: List[tuple] = []
    meta_seen = False
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                errors.append(f"line {lineno}: not JSON ({exc})")
                continue
            rtype = rec.get("type")
            if rtype == "meta":
                meta_seen = True
            elif rtype == "span":
                missing = _SPAN_KEYS - set(rec)
                if missing:
                    errors.append(
                        f"line {lineno}: span missing {sorted(missing)}")
                    continue
                span_ids.add(rec["span_id"])
                if rec["parent_id"] is not None:
                    parents.append((lineno, rec["parent_id"]))
                if rec["end"] is not None and rec["end"] < rec["start"]:
                    errors.append(f"line {lineno}: span #{rec['span_id']} "
                                  f"ends before it starts")
            elif rtype == "instant":
                missing = _INSTANT_KEYS - set(rec)
                if missing:
                    errors.append(
                        f"line {lineno}: instant missing {sorted(missing)}")
            elif rtype == "load":
                missing = _LOAD_KEYS - set(rec)
                if missing:
                    errors.append(
                        f"line {lineno}: load missing {sorted(missing)}")
            elif rtype == "detection":
                missing = _DETECTION_KEYS - set(rec)
                if missing:
                    errors.append(
                        f"line {lineno}: detection missing "
                        f"{sorted(missing)}")
                elif rec["event"] not in ("detect", "repair"):
                    errors.append(
                        f"line {lineno}: detection event "
                        f"{rec['event']!r} not detect/repair")
            else:
                errors.append(f"line {lineno}: unknown record type {rtype!r}")
    if not meta_seen:
        errors.append("no meta record")
    for lineno, parent_id in parents:
        if parent_id not in span_ids:
            errors.append(f"line {lineno}: dangling parent_id {parent_id}")
    return errors


def causal_chains(tracer, leaf_kind: str = "handler") -> List[List]:
    """Root→leaf span paths ending in a span of ``leaf_kind``.

    The acceptance check for the fault-storm trace: at least one chain
    must run syscall → rpc → handler across sites.
    """
    chains: List[List] = []
    for leaf in tracer.spans:
        if leaf.kind != leaf_kind:
            continue
        chain = [leaf]
        node: Optional[object] = leaf
        while node is not None and node.parent_id is not None:
            node = tracer.span(node.parent_id)
            if node is not None:
                chain.append(node)
        chains.append(list(reversed(chain)))
    return chains
