"""Causal spans: one timed region of kernel work on one site.

A span's context is the ``(trace_id, span_id)`` pair.  The context rides
along three transports to form the causal tree:

* task-level — every :class:`~repro.sim.task.Task` carries ``span_ctx``,
  inherited at spawn time, so nested kernel procedures parent correctly;
* message headers — :class:`~repro.net.message.Message.trace_ctx` carries
  the caller's context to the serving site (and back on the response);
* explicit hand-off — failover and recovery paths re-anchor work onto the
  span that caused it.

The context is also the recorder's handle for an open span: span ids are
positions in one append-only :class:`SpanLog` (id = index + 1), so the
same seed and fault plan always numbers the tree identically and a
context finds its span without a lookup table.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

# (trace_id, span_id) — what tasks and message headers actually carry.
SpanCtx = Tuple[int, int]

# The attrs key an rpc / handler span reports its peer site under.
_PEER_KEY = {"rpc": "dst", "handler": "src"}

OPEN = float("nan")     # SpanLog.end of a span not yet finished


@dataclass
class Span:
    span_id: int
    trace_id: int
    parent_id: Optional[int]       # span_id of the parent, None at a root
    name: str                      # e.g. "syscall.open", "rpc:fs.read_page"
    kind: str                      # syscall | rpc | handler | fs | recovery
    site: Optional[int]            # executing site (None for cluster-level)
    start: float
    end: Optional[float] = None
    status: str = "ok"
    attrs: Dict = field(default_factory=dict)
    # Timed annotations within the span: (vtime, name, attrs).
    events: List[Tuple[float, str, Dict]] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "type": "span",
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "site": self.site,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": self.attrs,
            "events": [list(e) for e in self.events],
        }

    def __repr__(self) -> str:
        return (f"<Span #{self.span_id} trace={self.trace_id} {self.name} "
                f"site={self.site} [{self.start}..{self.end}] {self.status}>")


class SpanLog:
    """The recorder's span store: one column per field, one row per span.

    A storm records a span per RPC and per handler and keeps them all, so
    what a row costs is what tracing costs: the numeric fields live in
    typed arrays, names and kinds are references to shared strings, an
    rpc or handler span's peer site is a column rather than a one-key
    dict, and ``attrs`` / ``events`` / a status other than "ok" exist
    only for the few spans that have one.  No row owns a
    garbage-collected object, so recording never triggers a collection.

    The log is a read-only sequence of :class:`Span` records — ``len``,
    indexing, slicing and iteration build them on demand, as snapshots.
    Only the tracer writes the columns.
    """

    __slots__ = ("trace_id", "parent_id", "name", "kind", "site", "peer",
                 "start", "end", "status", "attrs", "events")

    def __init__(self):
        self.trace_id = array("q")
        self.parent_id = array("q")     # 0 at a root
        self.name: List[str] = []
        self.kind: List[str] = []
        self.site = array("i")          # -1 for cluster-level
        self.peer = array("i")          # -1 when the span has no peer
        self.start = array("d")
        self.end = array("d")           # OPEN (NaN) until finished
        self.status: Dict[int, str] = {}      # row -> status, unless "ok"
        self.attrs: Dict[int, Dict] = {}      # row -> annotated attrs
        self.events: Dict[int, List] = {}     # row -> timed annotations

    def __len__(self) -> int:
        return len(self.start)

    def __iter__(self) -> Iterator[Span]:
        return map(self._row, range(len(self.start)))

    def __getitem__(self, index):
        rows = range(len(self.start))[index]
        if isinstance(rows, range):
            return list(map(self._row, rows))
        return self._row(rows)

    def _row(self, i: int) -> Span:
        kind, parent, site, peer, end = (self.kind[i], self.parent_id[i],
                                         self.site[i], self.peer[i],
                                         self.end[i])
        attrs = dict(self.attrs.get(i, ()))
        if peer >= 0:
            attrs[_PEER_KEY[kind]] = peer
        return Span(span_id=i + 1, trace_id=self.trace_id[i],
                    parent_id=parent or None, name=self.name[i], kind=kind,
                    site=site if site >= 0 else None, start=self.start[i],
                    end=end if end == end else None,
                    status=self.status.get(i, "ok"), attrs=attrs,
                    events=list(self.events.get(i, ())))
