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

import struct
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


class SpanRangeError(ValueError):
    """A span field outside what a :class:`SpanLog` row can hold."""


# A row: trace id, parent id (0 at a root), label code, site (-1 for
# cluster-level), peer (-1 for none), start.  Span id = row number + 1.
ROW = struct.Struct("<IIHhhd")


class SpanLog:
    """The recorder's span store: one packed 22-byte :data:`ROW` per span.

    A storm records a span per RPC and per handler and keeps them all, so
    what a row costs is what tracing costs: the fixed fields share one
    ``bytearray``, name and kind are one :meth:`code` into ``labels``, and
    ``end`` — the one field written twice — is an array: 30 bytes a span,
    none of them a garbage-collected object.  ``attrs`` / ``events`` / a
    status other than "ok" exist only for the spans that have one; attrs
    are a ``(keys, value, ...)`` tuple sharing ``keys`` with every span
    annotated alike.

    The log is a read-only sequence of :class:`Span` records — ``len``,
    indexing, slicing and iteration build them on demand, as snapshots.
    Only the tracer writes it.
    """

    __slots__ = ("rows", "end", "labels", "codes", "status", "attrs", "keys",
                 "events")

    def __init__(self):
        self.rows = bytearray()
        self.end = array("d")           # OPEN (NaN) until finished
        self.labels: List[Tuple[str, str]] = []     # code -> (name, kind)
        self.codes: Dict[Tuple[str, str], int] = {}
        self.status: Dict[int, str] = {}      # row -> status, unless "ok"
        self.attrs: Dict[int, Tuple] = {}     # row -> (keys, value, ...)
        self.keys: Dict[Tuple, Tuple] = {}    # attrs keys tuple -> itself
        self.events: Dict[int, List] = {}     # row -> timed annotations

    def __len__(self) -> int:
        return len(self.end)

    def __iter__(self) -> Iterator[Span]:
        return map(self._row, range(len(self.end)))

    def __getitem__(self, index):
        rows = range(len(self.end))[index]
        if isinstance(rows, range):
            return list(map(self._row, rows))
        return self._row(rows)

    def code(self, name: str, kind: str) -> int:
        """The label code of ``(name, kind)`` in this log, assigned at first
        use; records and exports carry the name and kind, never the code."""
        code = self.codes.get((name, kind))
        if code is None:
            code = len(self.labels)
            if code > 0xFFFF:
                raise SpanRangeError(f"no label code left for span {name!r}")
            self.codes[name, kind] = code
            self.labels.append((name, kind))
        return code

    def _attrs(self, i: int) -> Dict:
        packed = self.attrs.get(i, ((),))
        return dict(zip(packed[0], packed[1:]))

    def annotate(self, i: int, new: Dict) -> None:
        attrs = self._attrs(i)
        attrs.update(new)
        keys = tuple(attrs)
        self.attrs[i] = (self.keys.setdefault(keys, keys), *attrs.values())

    def _row(self, i: int) -> Span:
        trace_id, parent, code, site, peer, start = ROW.unpack_from(
            self.rows, i * ROW.size)
        name, kind = self.labels[code]
        end = self.end[i]
        attrs = self._attrs(i)
        if peer >= 0:
            attrs[_PEER_KEY[kind]] = peer
        return Span(span_id=i + 1, trace_id=trace_id,
                    parent_id=parent or None, name=name, kind=kind,
                    site=site if site >= 0 else None, start=start,
                    end=end if end == end else None,
                    status=self.status.get(i, "ok"), attrs=attrs,
                    events=list(self.events.get(i, ())))
