"""The flight recorder: builds the causal span tree for a whole cluster.

One tracer is shared by every site of a cluster (spans from all sites land
in one ordered log, a span's id is its position in it).  Recording is
always on and observational only — it never charges CPU, sends messages,
adds yield points, or touches the simulator RNG — so it cannot move a
run's virtual time or message counts, and identical seeds yield identical
span trees.  The span log is the run's one event log: convergence
(``convergence`` in :mod:`repro.obs.load`) is derived from its instants.

Instrumented code uses the begin/finish pair around a timed region::

    span, prev = tracer.begin("rpc:fs.open", "rpc", self.site_id, peer=dst)
    try:
        ...
    finally:
        tracer.finish(span, prev, status=status)

``begin`` parents the new span under the running task's context (or an
explicit ``parent_ctx``, e.g. a message header) and re-points the task at
the new span so nested work nests in the tree; ``finish`` restores it.
"""

from __future__ import annotations

import functools
import itertools
import struct
from typing import Dict, List, Optional, Tuple

from repro.obs.span import (OPEN, ROW, Span, SpanCtx, SpanLog,
                            SpanRangeError)


class Tracer:

    def __init__(self, sim):
        self.sim = sim
        self.spans = SpanLog()
        self.instants: List[Dict] = []
        self._trace_ids = itertools.count(1)
        self._instant_seq = itertools.count(1)

    # -- task context ----------------------------------------------------

    def current_ctx(self) -> Optional[SpanCtx]:
        task = self.sim.current_task
        return task.span_ctx if task is not None else None

    # -- spans -----------------------------------------------------------

    def begin(self, name: str, kind: str, site: Optional[int],
              parent_ctx: Optional[SpanCtx] = None,
              attrs: Optional[Dict] = None,
              inherit: bool = True,
              peer: int = -1) -> Tuple[SpanCtx, Optional[SpanCtx]]:
        """Open a span and make it the running task's context.

        Returns ``(ctx, previous_ctx)`` — the new span's own context is
        the handle :meth:`finish`, :meth:`annotate` and :meth:`event`
        take, and what a message header carries.  With ``parent_ctx``
        unset the span parents under the current task context, or with
        ``inherit=False`` roots a fresh trace.  ``peer`` is the other
        site of an rpc (its ``dst``) or handler (its ``src``) span.
        """
        opened = self.begin_coded(self.spans.code(name, kind), site, peer,
                                  parent_ctx, inherit)
        if attrs:
            self.spans.annotate(len(self.spans) - 1, attrs)
        return opened

    def begin_coded(self, code: int, site: Optional[int], peer: int = -1,
                    parent_ctx: Optional[SpanCtx] = None, inherit=True):
        """:meth:`begin` by position, for a caller that resolved its
        label's :meth:`~repro.obs.span.SpanLog.code` once: every rpc and
        handler span."""
        task = self.sim.current_task
        prev = task.span_ctx if task is not None else None
        if parent_ctx is None and inherit:
            parent_ctx = prev
        if parent_ctx is not None:
            trace_id, parent_id = parent_ctx
        else:
            trace_id, parent_id = next(self._trace_ids), 0
        log = self.spans
        try:
            log.rows += ROW.pack(trace_id, parent_id, code,
                                 -1 if site is None else site, peer,
                                 self.sim.now)
        except struct.error as exc:
            raise SpanRangeError(f"span at site {site}, peer {peer}, under "
                                 f"{parent_ctx} does not fit a row: {exc}")
        log.end.append(OPEN)
        ctx = (trace_id, len(log.end))
        if task is not None:
            task.span_ctx = ctx
        return (ctx, prev)

    def finish(self, span: SpanCtx, prev: Optional[SpanCtx],
               status: str = "ok") -> None:
        log = self.spans
        row = span[1] - 1
        if log.end[row] != log.end[row]:        # still open
            log.end[row] = self.sim.now
            if status != "ok":
                log.status[row] = status
        task = self.sim.current_task
        if task is not None:
            task.span_ctx = prev

    def annotate(self, span: SpanCtx, key: str, value) -> None:
        self.spans.annotate(span[1] - 1, {key: value})

    def event(self, span: Optional[SpanCtx], name: str,
              attrs: Optional[Dict] = None) -> None:
        """A timed annotation on the span a context names — the handle
        :meth:`begin` returned, the running task's context, or a message
        header's."""
        if span is not None:
            self.spans.events.setdefault(span[1] - 1, []).append(
                (self.sim.now, name, attrs or {}))

    # -- instants --------------------------------------------------------

    def instant(self, name: str, site: Optional[int] = None,
                attrs: Optional[Dict] = None) -> None:
        """A zero-duration timeline event (fault fired, epoch changed...)."""
        self.instants.append({
            "type": "instant",
            "seq": next(self._instant_seq),
            "ts": self.sim.now,
            "name": name,
            "site": site,
            "attrs": attrs or {},
        })

    # -- queries (tests, export, inspection) -----------------------------

    def span(self, span_id: int) -> Optional[Span]:
        if 0 < span_id <= len(self.spans):
            return self.spans[span_id - 1]
        return None

    def open_spans(self, site: Optional[int] = None,
                   kind: Optional[str] = None) -> List[Span]:
        """Spans begun but never finished.  At quiescence on a healthy
        site these are stuck work — the fuzz oracle's liveness signal
        (spans on a site that crashed die legitimately unfinished)."""
        log = self.spans
        spans = [log[row] for row, end in enumerate(log.end) if end != end]
        return [s for s in spans if (site is None or s.site == site)
                and (kind is None or s.kind == kind)]


def traced_pass(site, kind: str, gfs: int, body, summary):
    """Run a background pass over filegroup ``gfs`` (a recovery or scrub
    sweep) under its own root span ``<kind>:fg<gfs>``, bracketed by
    ``<kind>.start`` / ``<kind>.complete`` instants so it shows up on the
    exported timeline; ``summary()`` adds its attrs to the completion
    instant.  Pure ``yield from`` delegation, like :func:`traced_syscall`.
    """
    tracer = site.tracer
    tracer.instant(f"{kind}.start", site=site.site_id, attrs={"gfs": gfs})
    span, prev = tracer.begin(f"{kind}:fg{gfs}", kind, site.site_id,
                              inherit=False, attrs={"gfs": gfs})
    status = "ok"
    try:
        return (yield from body)
    except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
        status = type(exc).__name__
        raise
    finally:
        tracer.finish(span, prev, status=status)
        tracer.instant(f"{kind}.complete", site=site.site_id,
                       attrs={"gfs": gfs, **summary(), "status": status})


def traced_syscall(name: str, fn):
    """Wrap a ProcApi generator method with a syscall span + latency sample.

    Pure ``yield from`` delegation: no extra yield points, no CPU charges —
    the wrapped syscall's virtual-time behaviour is unchanged.
    """
    label = f"syscall.{name}"

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        site = self.site
        metrics = getattr(site, "metrics", None)
        tracer = site.tracer
        start = site.sim.now
        span, prev = tracer.begin(label, "syscall", site.site_id)
        status = "ok"
        try:
            result = yield from fn(self, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
            status = type(exc).__name__
            raise
        finally:
            if metrics is not None:
                metrics.observe(label, site.sim.now - start)
            tracer.finish(span, prev, status=status)
        return result

    return wrapper
