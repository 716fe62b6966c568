"""The packed span log (ISSUE 23): equal to the columnar log it replaced,
with defined range edges.

* Differential: seeded random ``begin`` / ``begin_coded`` / ``finish`` /
  ``annotate`` / ``event`` sequences — nested, finished out of order or
  never, on tasks and off them — leave the same :class:`Span` records, the
  same ``open_spans`` answers and the same JSONL and Chrome exports as the
  column-per-field ``SpanLog`` and its tracer, kept verbatim below as the
  reference.
* Range edges: a site, peer, trace id, parent id or label count a 22-byte
  row cannot hold raises :class:`SpanRangeError` from ``begin`` and
  leaves the log as it was; the largest values that fit round-trip.
* Label codes are per log, assigned in first-use order; that order shows
  in no record and no export (the ``hashseed`` CI leg runs this file too).
"""

import itertools
import random
from array import array
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.obs import export_chrome, export_jsonl
from repro.obs.span import OPEN, ROW, Span, SpanCtx, SpanRangeError
from repro.obs.tracer import Tracer

_PEER_KEY = {"rpc": "dst", "handler": "src"}


# ----------------------------------------------------------------------
# The reference: obs/span.py's SpanLog and the obs/tracer.py methods that
# wrote it, as of PR 22 (8379452), verbatim but for the names.  Do not
# optimise them — they are the definition.
# ----------------------------------------------------------------------

class RefSpanLog:
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


class RefTracer:

    def __init__(self, sim, enabled: bool = True):
        self.sim = sim
        self.enabled = enabled
        self.spans = RefSpanLog()
        self.instants: List[Dict] = []
        self._trace_ids = itertools.count(1)

    def begin(self, name: str, kind: str, site: Optional[int],
              parent_ctx: Optional[SpanCtx] = None,
              attrs: Optional[Dict] = None,
              inherit: bool = True,
              peer: int = -1) -> Tuple[Optional[SpanCtx],
                                       Optional[SpanCtx]]:
        if not self.enabled:
            return (None, None)
        task = self.sim.current_task
        prev = task.span_ctx if task is not None else None
        if parent_ctx is None and inherit:
            parent_ctx = prev
        if parent_ctx is not None:
            trace_id, parent_id = parent_ctx
        else:
            trace_id, parent_id = next(self._trace_ids), 0
        log = self.spans
        row = len(log.start)
        log.trace_id.append(trace_id)
        log.parent_id.append(parent_id)
        log.name.append(name)
        log.kind.append(kind)
        log.site.append(-1 if site is None else site)
        log.peer.append(peer)
        log.start.append(self.sim.now)
        log.end.append(OPEN)
        if attrs:
            log.attrs[row] = dict(attrs)
        ctx = (trace_id, row + 1)
        if task is not None:
            task.span_ctx = ctx
        return (ctx, prev)

    def finish(self, span: Optional[SpanCtx], prev: Optional[SpanCtx],
               status: str = "ok") -> None:
        if span is None:
            return
        log = self.spans
        row = span[1] - 1
        if log.end[row] != log.end[row]:        # still open
            log.end[row] = self.sim.now
            if status != "ok":
                log.status[row] = status
        task = self.sim.current_task
        if task is not None:
            task.span_ctx = prev

    def annotate(self, span: Optional[SpanCtx], key: str, value) -> None:
        if span is not None:
            self.spans.attrs.setdefault(span[1] - 1, {})[key] = value

    def event(self, span: Optional[SpanCtx], name: str,
              attrs: Optional[Dict] = None) -> None:
        if span is not None:
            self.spans.events.setdefault(span[1] - 1, []).append(
                (self.sim.now, name, attrs or {}))

    def open_spans(self, site: Optional[int] = None,
                   kind: Optional[str] = None) -> List[Span]:
        log = self.spans
        return [log[row] for row, end in enumerate(log.end) if end != end
                and (site is None or log.site[row] == site)
                and (kind is None or log.kind[row] == kind)]


# ----------------------------------------------------------------------
# Differential
# ----------------------------------------------------------------------

class _Task:
    def __init__(self):
        self.span_ctx = None


class _Sim:
    """The two things a tracer reads of the simulator."""

    def __init__(self, n_tasks):
        self.now = 0.0
        self.tasks = [_Task() for __ in range(n_tasks)]
        self.current_task = None


KINDS = ("syscall", "rpc", "handler", "fs", "recovery", "scrub")
NAMES = ("open", "fs.read_page", "fs.commit", "fg3", "x")
STATUSES = ("ok", "ok", "EIO", "err:ENOENT", "TaskCancelled")
SITES = (None, 0, 1, 2, 7, 32767)


def _drive(seed, steps=600, first_labels=()):
    """The same seeded operation sequence against the reference and the
    packed recorder, each on its own mirror of the simulator.  The packed
    log hands out its first label codes to ``first_labels``."""
    rng = random.Random(seed)
    ref_sim, new_sim = _Sim(4), _Sim(4)
    ref, new = RefTracer(ref_sim), Tracer(new_sim)
    for label in first_labels:
        new.spans.code(*label)
    handles = []                    # (ctx, prev), every span ever begun

    def both(call):
        got = call(ref), call(new)
        assert got[0] == got[1]
        return got[0]

    for __ in range(steps):
        op = rng.random()
        if op < 0.15:               # run another task, or none
            at = rng.randrange(-1, 4)
            for sim in (ref_sim, new_sim):
                sim.current_task = None if at < 0 else sim.tasks[at]
        elif op < 0.25:
            ref_sim.now = new_sim.now = ref_sim.now + rng.random() * 9.0
        elif op < 0.60:
            kind = rng.choice(KINDS)
            name = f"{kind}:{rng.choice(NAMES)}"
            site = rng.choice(SITES)
            peer = rng.choice((-1, 0, 5, 32767)) \
                if kind in _PEER_KEY and rng.random() < 0.7 else -1
            parent = rng.choice(handles)[0] \
                if handles and rng.random() < 0.25 else None
            inherit = rng.random() < 0.8
            attrs = None
            if rng.random() < 0.3:
                attrs = {key: rng.choice(([1, 2], "w", 3, None))
                         for key in rng.sample(("gfile", "mode", "ss"),
                                               rng.randrange(4))}
            if attrs is None and rng.random() < 0.5:
                # The positional form the rpc / handler / syscall sites use.
                code = new.spans.code(name, kind)
                opened = (ref.begin(name, kind, site, parent_ctx=parent,
                                    inherit=inherit, peer=peer),
                          new.begin_coded(code, site, peer, parent, inherit))
                assert opened[0] == opened[1]
                handles.append(opened[0])
            else:
                handles.append(both(lambda t: t.begin(
                    name, kind, site, parent_ctx=parent, attrs=attrs,
                    inherit=inherit, peer=peer)))
        elif not handles:
            continue
        elif op < 0.80:             # any order, twice, or never
            ctx, prev = rng.choice(handles)
            status = rng.choice(STATUSES)
            both(lambda t: t.finish(ctx, prev, status=status))
        elif op < 0.90:
            ctx = rng.choice(handles)[0]
            key, value = rng.choice(("ss", "new_ss", "gfile")), rng.random()
            both(lambda t: t.annotate(ctx, key, value))
        else:
            ctx = rng.choice(handles)[0]
            name = rng.choice(("retry", "queue_wait"))
            attrs = rng.choice((None, {"delay": rng.random()}))
            both(lambda t: t.event(ctx, name, attrs))
        assert [t.span_ctx for t in ref_sim.tasks] \
            == [t.span_ctx for t in new_sim.tasks]
    return ref, new


@pytest.mark.parametrize("seed", range(12))
def test_same_records_as_the_columnar_log(seed, tmp_path):
    ref, new = _drive(seed)
    n = len(ref.spans)
    assert n == len(new.spans) > 100
    assert list(new.spans) == list(ref.spans)
    assert any(s.end is None for s in ref.spans)
    assert any(s.status != "ok" for s in ref.spans)
    assert any(s.site is None for s in ref.spans)
    rng = random.Random(seed)
    for __ in range(50):
        i = rng.randrange(-n, n)
        assert new.spans[i] == ref.spans[i]
        lo, hi = sorted((rng.randrange(-n, n + 9), rng.randrange(-n, n + 9)))
        step = rng.choice((None, 1, 3, -1))
        assert new.spans[lo:hi:step] == ref.spans[lo:hi:step]
    assert new.spans[n:] == [] and isinstance(new.spans[0], Span)
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            new.spans[bad]
    for site in (None, 0, 7, 99):
        for kind in (None,) + KINDS:
            assert new.open_spans(site=site, kind=kind) \
                == ref.open_spans(site=site, kind=kind)
    for export, name in ((export_jsonl, "t.jsonl"),
                         (export_chrome, "t.chrome.json")):
        export(ref, str(tmp_path / ("ref." + name)))
        export(new, str(tmp_path / ("new." + name)))
        assert (tmp_path / ("new." + name)).read_bytes() \
            == (tmp_path / ("ref." + name)).read_bytes()


def test_records_do_not_alias_the_store_or_the_caller():
    ref, new = _drive(3, steps=200)
    for tracer in (ref, new):
        shared = {"gfile": [1, 2]}
        ctx, __ = tracer.begin("fs:open", "fs", 0, attrs=shared)
        shared["late"] = True
        tracer.spans[-1].attrs["scribble"] = 1
        tracer.annotate(ctx, "gfile", "replaced")
        tracer.annotate(ctx, "ss", 2)
    assert new.spans[-1] == ref.spans[-1]
    assert new.spans[-1].attrs == {"gfile": "replaced", "ss": 2}


def test_spans_annotated_alike_share_one_keys_tuple():
    tracer = Tracer(_Sim(0))
    for i in range(40):
        ctx, __ = tracer.begin("fs.open", "fs", 0,
                               attrs={"gfile": [0, i], "mode": "READ"})
        tracer.annotate(ctx, "ss", i % 3)
    packed = list(tracer.spans.attrs.values())
    assert {id(row[0]) for row in packed} == {id(packed[0][0])}
    assert packed[0][0] == ("gfile", "mode", "ss")
    assert tracer.spans[7].attrs == {"gfile": [0, 7], "mode": "READ",
                                     "ss": 1}


# ----------------------------------------------------------------------
# Range edges: a named error from begin, never a wrapped value
# ----------------------------------------------------------------------

@pytest.mark.parametrize("field,kwargs", [
    ("site", {"site": 1 << 15}),
    ("site", {"site": -(1 << 15) - 1}),
    ("peer", {"peer": 1 << 15}),
    ("trace id", {"parent_ctx": (1 << 32, 1)}),
    ("parent id", {"parent_ctx": (1, 1 << 32)}),
])
def test_out_of_range_field_raises_and_leaves_the_log_alone(field, kwargs):
    tracer = Tracer(_Sim(1))
    tracer.sim.current_task = tracer.sim.tasks[0]
    first, __ = tracer.begin("rpc:x", "rpc", 0, peer=1)
    call = {"site": 0, **kwargs}
    with pytest.raises(SpanRangeError):
        tracer.begin("rpc:x", "rpc", call.pop("site"), **call)
    assert len(tracer.spans) == 1
    assert len(tracer.spans.rows) == ROW.size
    assert tracer.sim.current_task.span_ctx == first
    nxt, prev = tracer.begin("rpc:x", "rpc", 0, peer=2)
    assert nxt == (first[0], 2) and prev == first
    assert tracer.spans[1].parent_id == 1 and tracer.spans[1].attrs == {
        "dst": 2}


def test_largest_values_that_fit_round_trip():
    tracer = Tracer(_Sim(0))
    top = (1 << 32) - 1
    tracer.begin("serve:x", "handler", (1 << 15) - 1,
                 parent_ctx=(top, top), peer=(1 << 15) - 1)
    span = tracer.spans[0]
    assert (span.trace_id, span.parent_id) == (top, top)
    assert span.site == 32767 and span.attrs == {"src": 32767}


def test_the_65537th_label_raises():
    tracer = Tracer(_Sim(0))
    log = tracer.spans
    for i in range(1 << 16):
        log.code(f"n{i}", "fs")
    assert log.code("n65535", "fs") == 0xFFFF
    tracer.begin("n65535", "fs", 0)
    with pytest.raises(SpanRangeError):
        tracer.begin("one too many", "fs", 0)
    with pytest.raises(SpanRangeError):
        log.code("n0", "rpc")               # same name, new kind: new label
    assert len(log.labels) == len(log.codes) == 1 << 16 and len(log) == 1
    assert log[0].name == "n65535"
    assert Tracer(_Sim(0)).spans.code("one too many", "fs") == 0   # per log


def test_label_order_shows_in_no_record_or_export(tmp_path):
    labels = [(f"{kind}:{name}", kind) for kind in KINDS for name in NAMES]
    runs = []
    for order in (1, -1):
        __, new = _drive(5, first_labels=labels[::order])
        path = tmp_path / f"order{order}.jsonl"
        export_jsonl(new, str(path))
        code = ROW.unpack_from(new.spans.rows, 0)[2]
        assert new.spans.labels[code] == (new.spans[0].name,
                                          new.spans[0].kind)
        runs.append((list(new.spans), path.read_bytes(), code))
    assert runs[0][:2] == runs[1][:2]
    assert runs[0][2] != runs[1][2]         # the orders did differ
