"""A LOCUS site: one machine's kernel, storage, and RPC plumbing.

LOCUS is procedure based: "at the point within the execution of the system
call that foreign service is needed, the operating system packages up a
message and sends it to the relevant foreign site.  Typically the kernel then
sleeps, waiting for a response" (paper section 2.3.2, Figure 1).  ``Site.rpc``
implements exactly that flow; when the destination is the local site only a
procedure call is needed and no messages move.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Generator, NamedTuple, Optional, Set,
                    Tuple)

from repro.config import (PATIENT_RETRIES, RPC_RETRIES, RPC_TIMEOUT,
                          ClusterConfig, CostModel, patient_backoff)
from repro.errors import (CircuitClosed, EWOULDCONFLICT, NetworkError,
                          SiteDown, SimTimeout, TaskCancelled, Unreachable)
from repro.net.message import Message, MsgKind
from repro.net.network import Network
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.fs.name_cache import NameCache
from repro.sim.simulator import Simulator
from repro.sim.task import Task
from repro.storage.buffer_cache import BufferCache
from repro.storage.pack import Pack

Handler = Callable[[int, dict], Generator]

class _OpLabels(NamedTuple):
    """What one protocol operation is reported under: its histogram key
    and, in the cluster's span log, the label codes of its two spans."""
    metric: str         # "rpc.<op>"   latency histogram key
    rpc: int            # "rpc:<op>"   span of one remote call
    serve: int          # "serve:<op>" span of the handler


class Site:
    """One full-function LOCUS node (every site can be US, SS and CSS)."""

    def __init__(self, site_id: int, sim: Simulator, net: Network,
                 config: ClusterConfig, tracer: Tracer):
        self.site_id = site_id
        self.sim = sim
        self.net = net
        self.config = config
        self.cost: CostModel = config.cost
        # The supervised per-op RPC timeout backstop (None: wait forever,
        # the paper's unsupervised behaviour).  The cost model is fixed
        # once a cluster is built, so this is computed once.  Timeouts are
        # NetworkErrors, so callers' retry/skip handling covers them.
        self.backstop: Optional[float] = (
            RPC_TIMEOUT if self.cost.supervise_remote_ops else None)
        self.up = True
        self.cpu_used = 0.0
        self.cpu_type = "vax"          # machine type (section 2.4.1)
        self.programs: Dict[str, Any] = {}   # the installed instruction set
        self.packs: Dict[int, Pack] = {}            # gfs -> local pack
        self.cache = BufferCache(self.cost.buffer_pages)
        # Decoded-directory-entry cache; every buffer-cache invalidation
        # path cascades into it (see BufferCache.companion).
        self.name_cache = NameCache()
        self.cache.companion = self.name_cache
        # Flight recorder: per-site metrics and the cluster's shared tracer
        # are always on (observational, zero virtual-time cost); _labels
        # resolves span-label codes in the tracer's log.
        self.metrics = MetricsRegistry(f"site{site_id}")
        self.tracer = tracer
        self._handlers: Dict[str, Handler] = {}
        self._pending: Dict[Tuple[int, int], Any] = {}  # (peer, reqid) -> Future
        self._reqids = itertools.count(1)
        # Hot-path label caches: mtype -> "serve:<mtype>@<id>" task name,
        # and op -> _OpLabels (see _labels).
        self._serve_names: Dict[str, str] = {}
        self._op_labels: Dict[str, _OpLabels] = {}
        self._task_name = f"site{site_id}"
        self._tasks: Set[Task] = set()
        # Exactly-once stamping (ISSUE 8): a monotonically increasing
        # mutating-op sequence — never reset, even across crashes, so a
        # restarted client cannot collide with its own pre-crash entries
        # in a server's durable ledger — plus the set of seqs still
        # outstanding, from which the contiguous-completion ack floor
        # piggybacked on every stamped request is derived.
        self._op_seqs = itertools.count(0)
        self._stamp_live: Set[int] = set()
        self._stamp_last = -1
        # Subsystems are attached by the cluster builder.
        self.fs = None          # repro.fs.manager.FsManager
        self.proc = None        # repro.proc.manager.ProcManager
        self.topology = None    # repro.reconfig.topology.TopologyService
        self.recovery = None    # repro.recovery.manager.RecoveryManager
        self.scrub = None       # repro.fs.scrub.ScrubManager
        self.tx = None          # repro.tx.manager.TxManager
        net.register_site(site_id, self._on_message, self._on_circuit_closed)

    # ------------------------------------------------------------------
    # CPU accounting: charging advances the virtual clock and the site's
    # cpu_used counter (single-CPU contention is not modelled; documented
    # in DESIGN.md).
    # ------------------------------------------------------------------

    def cpu(self, amount: float) -> Generator:
        self.cpu_used += amount
        yield amount

    # ------------------------------------------------------------------
    # Handler registry
    # ------------------------------------------------------------------

    def register_handler(self, op: str, fn: Handler,
                         ledger: Optional[Callable[[dict], Any]] = None
                         ) -> None:
        """Install the handler of one protocol operation.  ``ledger`` marks
        a mutating operation for exactly-once execution: it maps a request
        payload to the idempotency ledger that operation is recorded in
        (or None where this site keeps none), and stamped requests are
        deduplicated against it."""
        if op in self._handlers:
            raise ValueError(f"handler {op!r} already registered")
        if ledger is not None:
            fn = self._exactly_once(fn, ledger)
        self._handlers[op] = fn

    def _exactly_once(self, fn: Handler, ledger_of) -> Handler:
        """Wrap a mutating handler to run at most once per ``(client,
        seq)`` stamp.

        A duplicate of a completed execution replays the memoized reply; a
        duplicate of an execution still in flight waits for it to settle
        and re-checks (replays on success, re-executes after a failure —
        the stamped operations either apply fully or not at all, so
        re-running a failed one is safe).  Unstamped requests, and sites
        without a ledger for the filegroup, run the handler directly.
        """
        def handler(src: int, p: dict) -> Generator:
            ledger = ledger_of(p)
            stamp = p.get("_stamp")
            if stamp is None or ledger is None:
                result = yield from fn(src, p)
                return result
            client, seq = stamp
            ledger.ack(client, p.get("_ack", -1))
            while True:
                state, val = ledger.begin(client, seq)
                if state == "done":
                    self.metrics.count("fs.ledger_replays")
                    return val
                if state == "new":
                    break
                yield val           # in flight: wait, then re-check
            fut = self.sim.create_future(f"ledger:{client}:{seq}")
            ledger.set_running(client, seq, fut)
            try:
                result = yield from fn(src, p)
            except BaseException:
                ledger.abort(client, seq)
                raise
            ledger.commit(client, seq, result)
            return result
        return handler

    # ------------------------------------------------------------------
    # Exactly-once stamps
    # ------------------------------------------------------------------

    def next_stamp(self) -> Tuple[int, int]:
        """Issue a fresh ``(client_id, op_seq)`` stamp for a mutating op."""
        seq = next(self._op_seqs)
        self._stamp_live.add(seq)
        self._stamp_last = seq
        return (self.site_id, seq)

    def stamp_done(self, seq: int) -> None:
        """The stamped op finished (or was abandoned): it will never be
        retried again, so servers may retire its ledger entry once the
        ack floor passes it."""
        self._stamp_live.discard(seq)

    def stamp_ack(self) -> int:
        """Highest seq below which every stamped op has completed."""
        live = self._stamp_live
        return (min(live) - 1) if live else self._stamp_last

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------

    def _labels(self, op: str) -> _OpLabels:
        """The op vocabulary is small and static, so every call after an
        op's first on this site reuses one key and two label codes
        instead of formatting, hashing and — in the span log — retaining
        fresh strings.  The codes are the site's tracer's."""
        labels = self._op_labels.get(op)
        if labels is None:
            code = self.tracer.spans.code
            labels = self._op_labels[op] = _OpLabels(
                "rpc." + op, code("rpc:" + op, "rpc"),
                code("serve:" + op, "handler"))
        return labels

    def rpc(self, dst: int, op: str, payload: Optional[dict] = None,
            timeout: Optional[float] = None) -> Generator:
        """Remote procedure call; a plain procedure call when ``dst`` is
        local.  Raises whatever the remote handler raised, or
        :class:`Unreachable` / :class:`CircuitClosed` on communication
        failure, or :class:`SimTimeout` when ``timeout`` expires."""
        payload = payload or {}
        if dst == self.site_id:
            # Local collapse: no messages (Figure 2's optimized cases).
            result = yield from self._dispatch(op, self.site_id, payload)
            return result
        tracer = self.tracer
        start = self.sim.now
        labels = self._labels(op)
        span, prev = tracer.begin_coded(labels.rpc, self.site_id, dst)
        status_label = "ok"
        try:
            cpu_msg = self.cost.cpu_msg
            self.cpu_used += cpu_msg                    # message setup
            yield cpu_msg
            reqid = next(self._reqids)
            fut = self.sim.create_future(op)
            self._pending[(dst, reqid)] = fut
            msg = self.net.make_message(self.site_id, dst, op,
                                        MsgKind.REQUEST, payload,
                                        reqid=reqid, trace_ctx=span)
            try:
                self.net.send(self.site_id, dst, msg)
            except Exception as exc:
                self._pending.pop((dst, reqid), None)
                if isinstance(exc, Unreachable) and self.topology is not None:
                    # Lazy failure detection: a failed send means the circuit
                    # to the peer is gone; the partition protocol must run.
                    self.topology.on_circuit_closed(dst, "send failed")
                raise
            wait = fut if timeout is None else self.sim.with_timeout(
                fut, timeout, label=f"{op}->{dst}")
            try:
                status, value = yield wait
            except SimTimeout:
                self._pending.pop((dst, reqid), None)
                raise
            self.cpu_used += cpu_msg                    # return processing
            yield cpu_msg
            if status == "err":
                raise value
            return value
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
            status_label = type(exc).__name__
            raise
        finally:
            self.metrics.observe(labels.metric, self.sim.now - start)
            tracer.finish(span, prev, status=status_label)

    def supervised_rpc(self, dst, op: str, payload: Optional[dict] = None,
                       once: bool = False,
                       retry_on: Tuple[type, ...] = (NetworkError,),
                       budget: int = RPC_RETRIES,
                       alive: Optional[Callable[[], bool]] = None,
                       recover: Optional[Callable[..., Generator]] = None,
                       counter: Optional[str] = None) -> Generator:
        """Supervised remote call — the one client-side retry loop: the
        ``backstop`` timeout plus up to ``budget`` retries of the errors in
        ``retry_on``, each after ``patient_backoff`` (the supervision
        policy of ``config.py``).

        ``dst`` may be a callable re-evaluated before every attempt so a
        retry chases responsibility that moved during the failure (e.g. a
        CSS re-elected while this call was failing).  Callers pass
        operations that are idempotent against duplicate delivery as they
        are; ``once`` marks a mutating one for exactly-once delivery: the
        payload is stamped with ``(client_id, op_seq)`` and the server's
        idempotency ledger turns a duplicate into a replay of the recorded
        reply, so at-least-once delivery plus server-side dedup yields
        exactly-once execution.  A caller that pre-stamped the payload
        (a background retry of a timed-out notification) keeps its own
        stamp and its own completion bookkeeping.

        ``alive()`` (default: this site is up) is checked before and after
        every backoff; once it fails the error is raised.  After a backoff,
        ``recover(exc, target, retries)`` may repair what the failed attempt
        at ``target`` broke before the next attempt (an fs handle re-homes
        to another copy).  Each backoff is one ``retry`` event on the
        caller's span, and counts ``rpc.retries`` plus the caller's own
        ``counter``.

        ``EWOULDCONFLICT`` — the CSS refusing a writer open while the file
        is queued for reconciliation — is always retryable (the refusal
        precedes any state change) and gets a larger attempt budget so a
        writer can wait out a post-heal merge sweep.

        With ``cost.supervise_remote_ops`` off this is plain :meth:`rpc`,
        unstamped — the paper's unsupervised behaviour.
        """
        resolve = dst if callable(dst) else (lambda: dst)
        payload = payload if payload is not None else {}
        if not self.cost.supervise_remote_ops:
            result = yield from self.rpc(resolve(), op, payload)
            return result
        alive = alive or (lambda: self.up)
        own_stamp = once and "_stamp" not in payload
        if own_stamp:
            payload["_stamp"] = self.next_stamp()
        tracer = self.tracer
        try:
            attempt = 0
            conflict_waits = 0
            while True:
                if "_stamp" in payload:
                    payload["_ack"] = self.stamp_ack()
                target = resolve()
                try:
                    result = yield from self.rpc(target, op, payload,
                                                 timeout=self.backstop)
                    return result
                except EWOULDCONFLICT:
                    # Conflict-window refusal: wait for the merge the
                    # CSS has scheduled, on its own (longer) budget so
                    # network retries stay bounded independently.
                    if conflict_waits >= PATIENT_RETRIES or not self.up:
                        raise
                    self.metrics.count("rpc.conflict_retries")
                    wait = patient_backoff(conflict_waits)
                    tracer.event(tracer.current_ctx(), "conflict_wait",
                                 {"op": op, "attempt": conflict_waits,
                                  "error": "EWOULDCONFLICT",
                                  "backoff": wait})
                    yield wait
                    conflict_waits += 1
                except retry_on as exc:
                    if attempt >= budget or not alive():
                        raise
                    self.metrics.count("rpc.retries")
                    if counter is not None:
                        self.metrics.count(counter)
                    wait = patient_backoff(attempt)
                    tracer.event(tracer.current_ctx(), "retry",
                                 {"op": op, "attempt": attempt,
                                  "error": type(exc).__name__,
                                  "backoff": wait})
                    # Deterministic exponential backoff: gives the
                    # partition protocol time to converge before the
                    # retry resolves dst.
                    yield wait
                    attempt += 1
                    if not alive():
                        raise
                    if recover is not None:
                        yield from recover(exc, target, attempt)
        finally:
            if own_stamp:
                # Success or final failure, this client will never re-send
                # this seq: let the servers' ledgers retire it.
                self.stamp_done(payload["_stamp"][1])

    def oneway(self, dst: int, op: str,
               payload: Optional[dict] = None) -> Generator:
        """One-way protocol message: low-level acks only, no response
        (the write protocol of section 2.3.5)."""
        payload = payload or {}
        if dst == self.site_id:
            # Local: run the handler as a procedure call, discard result.
            yield from self._dispatch(op, self.site_id, payload)
            return None
        yield from self.cpu(self.cost.cpu_msg)
        msg = self.net.make_message(self.site_id, dst, op, MsgKind.ONEWAY,
                                    payload,
                                    trace_ctx=self.tracer.current_ctx())
        self.net.send(self.site_id, dst, msg)
        return None

    def oneway_quiet(self, dst: int, op: str,
                     payload: Optional[dict] = None) -> Generator:
        """One-way send that swallows unreachability (best-effort notify)."""
        try:
            yield from self.oneway(dst, op, payload)
        except NetworkError:
            pass
        return None

    # ------------------------------------------------------------------
    # Message handling (server side of Figure 1)
    # ------------------------------------------------------------------

    def _dispatch(self, op: str, src: int, payload: dict) -> Generator:
        """The handler's own generator, for the caller to ``yield from``:
        no frame of ours between a served message and its handler."""
        handler = self._handlers.get(op)
        if handler is None:
            raise ValueError(f"site {self.site_id}: no handler for {op!r}")
        return handler(src, payload)

    def _on_message(self, msg: Message) -> None:
        if not self.up:
            return
        if msg.kind is MsgKind.RESPONSE:
            fut = self._pending.pop((msg.src, msg.reqid), None)
            if fut is not None:
                fut.resolve(msg.payload)
            else:
                # Duplicate delivery: a reply to an attempt whose supervisor
                # already timed out and moved on.  Each attempt carries a
                # unique reqid (the attempt tag), so a late reply can never
                # resolve a newer attempt's future — it is counted and
                # discarded here.
                self.metrics.count("rpc.late_replies_discarded")
            return
        name = self._serve_names.get(msg.mtype)
        if name is None:
            name = self._serve_names[msg.mtype] = \
                f"serve:{msg.mtype}@{self.site_id}"
        self.spawn(self._serve(msg), name=name)

    def _serve(self, msg: Message) -> Generator:
        """Message analysis, system-call continuation, send return message."""
        tracer = self.tracer
        # The handler span parents under the caller's rpc span carried in
        # the message header — the cross-site causal link.
        span, prev = tracer.begin_coded(self._labels(msg.mtype).serve,
                                        self.site_id, msg.src,
                                        msg.trace_ctx, False)
        status_label = "ok"
        try:
            cpu_msg = self.cost.cpu_msg
            self.cpu_used += cpu_msg                    # message analysis
            yield cpu_msg
            response: Optional[Tuple[str, Any]]
            try:
                value = yield from self._dispatch(msg.mtype, msg.src,
                                                  msg.payload)
                response = ("ok", value)
            except TaskCancelled:
                raise
            except Exception as exc:  # noqa: BLE001 - errors go to caller
                response = ("err", exc)
                status_label = f"err:{type(exc).__name__}"
            if msg.kind is MsgKind.ONEWAY:
                return None
            self.cpu_used += cpu_msg                    # send return message
            yield cpu_msg
            reply = self.net.make_message(self.site_id, msg.src, msg.mtype,
                                          MsgKind.RESPONSE, response,
                                          reqid=msg.reqid,
                                          trace_ctx=msg.trace_ctx)
            try:
                self.net.send(self.site_id, msg.src, reply)
            except Exception:
                # Requester unreachable: it learns via its closed circuit.
                pass
            return None
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
            status_label = type(exc).__name__
            raise
        finally:
            tracer.finish(span, prev, status=status_label)

    def _on_circuit_closed(self, peer: int, reason: str) -> None:
        if not self.up:
            return
        # Fail every RPC outstanding toward the lost peer: closing a circuit
        # aborts ongoing activity between the two sites (section 5.1).
        for key in [k for k in self._pending if k[0] == peer]:
            fut = self._pending.pop(key)
            fut.fail(CircuitClosed(peer, reason))
        if self.topology is not None:
            self.topology.on_circuit_closed(peer, reason)

    # ------------------------------------------------------------------
    # Task management (so a crash can kill in-flight kernel work)
    # ------------------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Task:
        task = self.sim.spawn(gen, name=name or self._task_name)
        task.owner = self._tasks
        self._tasks.add(task)
        task.done.add_callback(task.disown)
        return task

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Site failure: volatile state vanishes; packs (disks) survive."""
        self.up = False
        for task in list(self._tasks):
            task.cancel(f"site {self.site_id} crashed")
        self._tasks.clear()
        for fut in self._pending.values():
            fut.fail(SiteDown(self.site_id))
        self._pending.clear()
        # In-flight stamped ops died with their tasks and will never be
        # retried; advancing the ack floor past them lets server ledgers
        # retire their entries.  The seq counter itself is NOT reset, so
        # post-restart stamps cannot collide with pre-crash ones.
        self._stamp_live.clear()
        self.cache.clear()
        self.net.fail_site(self.site_id)
        for subsystem in (self.fs, self.proc, self.tx, self.recovery,
                          self.scrub, self.topology):
            if subsystem is not None:
                subsystem.reset_volatile()

    def restart(self) -> None:
        """Power back on alone in a partition of one; the merge protocol
        will bring the site back into the network (section 5.5)."""
        self.net.restore_site(self.site_id)
        self.up = True
        for subsystem in (self.fs, self.proc, self.tx, self.recovery,
                          self.scrub, self.topology):
            if subsystem is not None:
                subsystem.on_restart()

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Site {self.site_id} {state} packs={sorted(self.packs)}>"
