"""Trace-driven critical-path analysis: where a syscall's latency went.

The flight recorder (PR 4) captures *what happened* — causal span trees
for every syscall's US→CSS→SS journey.  This module answers *what
limited it*: each root span's end-to-end latency is partitioned, exactly
and deterministically, into per-hop segments:

* ``local``    — time inside syscall/fs work on the using site (CPU,
  disk, buffer-cache);
* ``queue``    — virtual time a request or response message sat behind
  earlier traffic on a network link (the ``queue_wait`` events the
  network attaches to the owning rpc span);
* ``wire``     — message propagation and serialization delay plus the
  per-message CPU at both ends (the remainder of an rpc span's self
  time once queueing is removed);
* ``remote_service`` — handler execution at the serving site (the CSS
  running its open policy, the SS reading disk...);
* ``retry_wait``     — supervision backoff: the sleeps
  ``Site.supervised_rpc`` records on the caller's span between attempts —
  ``retry`` events while a fault is in progress, ``conflict_wait`` events
  while the CSS refuses a writer during a merge;
* ``repair``   — recovery/scrub work a span waited on;
* ``other``    — anything not covered above (rare; kept explicit so the
  decomposition always sums to 100%).

The decomposition is a recursive interval partition: a span's window is
split between its children's windows (clipped to the parent, overlap
counted once) and the gaps between them, which are the span's *self
time* and take the span's own category.  Because every instant of the
root window is attributed to exactly one segment, the blame table
accounts for 100% of measured latency by construction — the T21
benchmark asserts the ≥95% acceptance bound with margin.

Used by ``python -m repro.cli trace --critical-path`` and the T21
benchmark; `analyze_spans` takes any span list, so hand-built trees
(tests) and live tracers both work.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

SEGMENTS: Tuple[str, ...] = ("local", "queue", "wire", "remote_service",
                             "retry_wait", "repair", "other")

_LOCAL_KINDS = ("syscall", "fs", "proc")
_REPAIR_KINDS = ("recovery", "scrub")


def _category(span) -> str:
    """The segment a span's *self time* belongs to."""
    if span.kind in _LOCAL_KINDS:
        return "local"
    if span.kind == "handler":
        return "remote_service"
    if span.kind == "rpc":
        # What is left of an rpc span's self time once the queueing its own
        # events record is taken out (_attribute_self) is on the wire.
        return "wire"
    if span.kind in _REPAIR_KINDS:
        return "repair"
    return "other"


# The waits a span's own events record inside its self time, as
# (segment, event names, attrs key).  ``supervised_rpc`` records on the
# caller's span, whatever its kind, each backoff it is about to sleep.  The
# network attaches a ``queue_wait`` to the sending span as each message is
# delivered — head-of-line blocking — but only an rpc span waited for it:
# a one-way message's ``queue_wait`` lands on a sender that never waited.
_RETRY_WAITS = ("retry_wait", ("retry", "conflict_wait"), "backoff")
_SPAN_WAITS = (_RETRY_WAITS,)
_RPC_WAITS = (("queue", ("queue_wait",), "delay"), _RETRY_WAITS)


class Blame:
    """Aggregated attribution for one span name: count, total latency,
    and the per-segment split."""

    __slots__ = ("name", "count", "total", "segments")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.segments: Dict[str, float] = {s: 0.0 for s in SEGMENTS}

    def add(self, duration: float, segs: Dict[str, float]) -> None:
        self.count += 1
        self.total += duration
        for key, val in segs.items():
            self.segments[key] += val

    @property
    def attributed(self) -> float:
        return sum(self.segments.values())

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "count": self.count,
            "total": round(self.total, 6),
            "segments": {s: round(v, 6)
                         for s, v in sorted(self.segments.items()) if v},
        }


class CritPathReport:
    """Blame tables per root syscall kind and per RPC operation."""

    def __init__(self):
        self.syscalls: Dict[str, Blame] = {}
        self.rpcs: Dict[str, Blame] = {}
        self.segment_totals: Dict[str, float] = {s: 0.0 for s in SEGMENTS}
        self.root_count = 0
        self.root_total = 0.0

    @property
    def coverage(self) -> float:
        """Fraction of measured root latency the segments account for
        (1.0 by construction; the acceptance criterion is >= 0.95)."""
        if not self.root_total:
            return 1.0
        return sum(self.segment_totals.values()) / self.root_total

    def to_dict(self) -> Dict:
        return {
            "roots": self.root_count,
            "total_latency": round(self.root_total, 6),
            "coverage": round(self.coverage, 6),
            "segment_totals": {s: round(v, 6) for s, v
                               in sorted(self.segment_totals.items()) if v},
            "syscalls": [self.syscalls[n].to_dict()
                         for n in sorted(self.syscalls)],
            "rpcs": [self.rpcs[n].to_dict() for n in sorted(self.rpcs)],
        }


class _Analyzer:
    def __init__(self, spans: Iterable, now: Optional[float]):
        self.spans = list(spans)
        ends = [s.end for s in self.spans if s.end is not None]
        self.now = now if now is not None \
            else (max(ends) if ends else 0.0)
        self.children: Dict[int, List] = {}
        for span in self.spans:
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(span)
        for kids in self.children.values():
            kids.sort(key=lambda s: (s.start, s.span_id))

    def _end(self, span) -> float:
        # An unfinished span (its site crashed mid-call) is clipped at
        # analysis time; its parent's window clips it further.
        return span.end if span.end is not None else self.now

    def decompose(self, span, lo: Optional[float] = None,
                  hi: Optional[float] = None,
                  segs: Optional[Dict[str, float]] = None) -> Dict[str, float]:
        """Partition ``span``'s window (clipped to [lo, hi]) into
        segments.  Every instant is attributed exactly once: gaps not
        covered by a child are the span's self time; children are
        recursed into over the part of their window not already covered
        by an earlier sibling."""
        if segs is None:
            segs = {s: 0.0 for s in SEGMENTS}
        lo = span.start if lo is None else max(lo, span.start)
        hi = self._end(span) if hi is None else min(hi, self._end(span))
        if hi <= lo:
            return segs
        cursor = lo
        self_time = 0.0
        # Only a request's handler is on its caller's critical path: Site.rpc
        # parents it under the call's rpc span.  A one-way message's handler
        # parents under whatever span its sender was in, and the sender
        # never waited for it.
        is_rpc = span.kind == "rpc"
        for child in self.children.get(span.span_id, ()):
            if child.start >= hi:
                break              # children sorted by start
            if child.kind == "handler" and not is_rpc:
                continue
            child_end = self._end(child)
            if child_end <= cursor:
                continue           # fully covered by an earlier sibling
            gap_end = min(max(child.start, cursor), hi)
            self_time += gap_end - cursor
            self.decompose(child, max(cursor, child.start), hi, segs)
            cursor = min(max(cursor, child_end), hi)
        self_time += hi - cursor
        self._attribute_self(span, lo, hi, self_time, segs)
        return segs

    def _attribute_self(self, span, lo: float, hi: float,
                        self_time: float, segs: Dict[str, float]) -> None:
        if self_time <= 0.0:
            return
        if span.events:
            for segment, events, key in (_RPC_WAITS if span.kind == "rpc"
                                         else _SPAN_WAITS):
                waited = min(self_time, sum(
                    attrs.get(key, 0.0) for ts, name, attrs in span.events
                    if name in events and lo <= ts <= hi))
                segs[segment] += waited
                self_time -= waited
        segs[_category(span)] += self_time


def analyze_spans(spans: Iterable, now: Optional[float] = None,
                  root_prefix: str = "syscall.") -> CritPathReport:
    """Build the blame tables from a span list.

    Roots matching ``root_prefix`` feed the per-syscall table and the
    coverage figure; every plain ``rpc:*`` span additionally feeds the
    per-RPC table (decomposed independently, so its queue/wire/service
    split is visible regardless of nesting depth).
    """
    analyzer = _Analyzer(spans, now)
    report = CritPathReport()
    for span in analyzer.spans:
        if span.parent_id is None and span.name.startswith(root_prefix):
            segs = analyzer.decompose(span)
            duration = analyzer._end(span) - span.start
            blame = report.syscalls.get(span.name)
            if blame is None:
                blame = report.syscalls[span.name] = Blame(span.name)
            blame.add(duration, segs)
            report.root_count += 1
            report.root_total += duration
            for key, val in segs.items():
                report.segment_totals[key] += val
        if span.kind == "rpc" and span.name.startswith("rpc:"):
            segs = analyzer.decompose(span)
            blame = report.rpcs.get(span.name)
            if blame is None:
                blame = report.rpcs[span.name] = Blame(span.name)
            blame.add(analyzer._end(span) - span.start, segs)
    return report


def analyze(tracer, root_prefix: str = "syscall.") -> CritPathReport:
    """Analyze a live tracer's recording."""
    return analyze_spans(tracer.spans, now=tracer.sim.now,
                         root_prefix=root_prefix)


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}" if whole else "0.0"


def format_blame(report: CritPathReport) -> str:
    """Deterministic text rendering of the blame tables."""
    lines: List[str] = [
        f"critical path: {report.root_count} syscalls, "
        f"{report.root_total:.1f} vtime, "
        f"{100.0 * report.coverage:.1f}% attributed",
    ]
    short = {"remote_service": "remote", "retry_wait": "retry"}
    header = (f"  {'span':<28} {'count':>6} {'total':>12}"
              + "".join(f" {short.get(s, s) + '%':>9}" for s in SEGMENTS))
    for title, table in (("syscalls", report.syscalls),
                         ("rpcs", report.rpcs)):
        if not table:
            continue
        lines.append(f"-- blame by {title} --")
        lines.append(header)
        for name in sorted(table):
            blame = table[name]
            lines.append(
                f"  {name:<28} {blame.count:>6} {blame.total:>12.1f}"
                + "".join(f" {_pct(blame.segments[s], blame.total):>9}"
                          for s in SEGMENTS))
    return "\n".join(lines)
