"""Execute a :class:`FuzzPlan` against a live cluster and record the run.

The runner is the deterministic middle of the fuzz loop: build the
cluster and initial tree, arm the fault schedule through the ordinary
:class:`repro.faults.FaultInjector`, drive the workload schedule from
per-site client tasks, then reconcile (restart every down site, heal,
merge, settle) and hand the whole record to the oracle.

While ops execute the runner maintains a :class:`NamespaceModel` — the
expected path → content mapping given which ops *reported* success.  A
mutation that fails with a :class:`~repro.errors.NetworkError` has an
unknown outcome (the request may have committed before the circuit
closed), so the involved paths become *ambiguous* and drop out of
content checking; a clean filesystem error (ENOENT, EIO...) guarantees
no effect.  Reads additionally snapshot what the model expected and
whether the cluster was disturbed (mid-storm), so the oracle can judge
session guarantees offline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro import LocusCluster
from repro.errors import LocusError, NetworkError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.fuzz.plan import FuzzPlan, WorkloadOp, payload
from repro.sim.task import Task

MISSING = "missing"
AMBIGUOUS = "ambiguous"
UNSTABLE = "unstable"       # model changed / in-flight writes overlapped

# Injector trace kinds that disturb session-guarantee checking; the
# cluster is considered clean again once a post-heal invariant check has
# run at quiescence.
_DISTURBING = {"crash", "partition", "heal", "restart", "dropped",
               "loss_burst"}

# Trace kinds opening a split-brain window: each side runs its own CSS,
# so the merge's type-specific resolution (update beats remove, union of
# directory entries, §4.4) — not wall-clock op order — decides the final
# namespace.  Mutations completing inside the window have model-unknown
# outcomes; the window closes at the audited post-heal quiescence.
_SPLITTING = {"partition"}

# Ops that mutate the namespace; reads racing one of these on the same
# path (or file id, for hard-link aliases) are not judged — Unix lets a
# concurrent reader observe a truncating write's intermediate state.
_MUTATING = {"write", "mkdir", "rename", "unlink", "link"}

# A livelock keeps the event queue busy while the clock stands nearly
# still, so each phase drains in windows of STALL_EVENTS events and a
# window that moves the clock less than STALL_VT ends the plan as
# ``liveness:stalled``.  Clean plans run ~18 events per vt (docs/FAULTS.md).
STALL_EVENTS = 50_000
STALL_VT = 100.0


def _digest(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()[:16]


class NamespaceModel:
    """Expected namespace state, updated only by ops that completed.

    Hard links share one file id, so a write through either name updates
    the expectation for both.  ``ambiguous`` paths (NetworkError'd
    mutations) and ``ambiguous_fids`` (unknown content) are excluded
    from checks but still tracked for existence bookkeeping.
    """

    def __init__(self) -> None:
        self.files: Dict[str, int] = {}
        self.content: Dict[int, bytes] = {}
        self.dirs: Set[str] = {"/", "/w"}
        self.removed: Set[str] = set()
        self.ambiguous: Set[str] = set()
        self.ambiguous_fids: Set[int] = set()
        self._next_fid = 0

    def bind(self, path: str, data: bytes) -> None:
        fid = self.files.get(path)
        if fid is None:
            fid = self._next_fid
            self._next_fid += 1
            self.files[path] = fid
        self.content[fid] = data
        self.removed.discard(path)

    # -- op outcomes -----------------------------------------------------

    def apply_success(self, op: WorkloadOp, seed: int) -> None:
        if op.op == "write":
            self.bind(op.path, payload(seed, op.tag, op.size))
        elif op.op == "mkdir":
            self.dirs.add(op.path)
        elif op.op == "unlink":
            self.files.pop(op.path, None)
            self.removed.add(op.path)
            self.ambiguous.discard(op.path)
        elif op.op == "rename":
            if op.path in self.files:
                self.files[op.dest] = self.files.pop(op.path)
            self.removed.add(op.path)
            self.removed.discard(op.dest)
            if op.path in self.ambiguous:
                self.ambiguous.discard(op.path)
                self.ambiguous.add(op.dest)
        elif op.op == "link":
            if op.path in self.files:
                self.files[op.dest] = self.files[op.path]
                self.removed.discard(op.dest)

    def apply_unknown(self, op: WorkloadOp) -> None:
        """NetworkError: the op may or may not have taken effect."""
        self.ambiguous.add(op.path)
        if op.dest is not None:
            self.ambiguous.add(op.dest)
        if op.op == "write":
            fid = self.files.get(op.path)
            if fid is not None:
                self.ambiguous_fids.add(fid)

    # -- queries ---------------------------------------------------------

    def expectation(self, path: str) -> str:
        """What a read of ``path`` should see right now: a content digest,
        ``missing``, or ``ambiguous``."""
        if path in self.ambiguous:
            return AMBIGUOUS
        fid = self.files.get(path)
        if fid is None:
            return MISSING
        if fid in self.ambiguous_fids:
            return AMBIGUOUS
        return _digest(self.content[fid])


@dataclass
class OpRecord:
    """One executed workload op, with everything the oracle judges."""

    idx: int
    op: WorkloadOp
    start: float
    end: float
    ok: bool
    error: Optional[str] = None
    result: Optional[str] = None        # read: content digest
    expected: Optional[str] = None      # read: model expectation
    clean: bool = False                 # no disturbance across the op

    def summary(self) -> tuple:
        o = self.op
        return (self.idx, o.op, o.path, o.dest, round(self.start, 2),
                round(self.end, 2), self.ok, self.error, self.result,
                self.expected, self.clean)


@dataclass
class FuzzRun:
    """The complete record of one executed plan."""

    plan: FuzzPlan
    cluster: object
    injector: object
    model: NamespaceModel
    oplog: List[OpRecord] = field(default_factory=list)
    drivers: Dict[int, Task] = field(default_factory=dict)  # site -> task
    t0: float = 0.0
    events: int = 0             # processed by the storm + reconcile phases
    stall_vt: Optional[float] = None    # clock moved by the stalled window

    def digest(self) -> str:
        """Byte-determinism fingerprint: same plan ⇒ same digest."""
        h = hashlib.sha1()
        for rec in self.oplog:
            h.update(repr(rec.summary()).encode())
        for entry in self.injector.trace:
            h.update(repr(entry).encode())
        return h.hexdigest()


class PlanRunner:

    def __init__(self, plan: FuzzPlan):
        self.plan = plan
        self.cluster = LocusCluster(n_sites=plan.n_sites, seed=plan.seed,
                                    root_pack_sites=plan.root_pack_sites)
        self.model = NamespaceModel()
        self.oplog: List[OpRecord] = []
        self._trace_cursor = 0
        self._disturbed = False
        self._split = False
        self._inflight: Dict[object, int] = {}   # path/fid -> open muts
        self._mut_epoch: Dict[object, int] = {}  # path/fid -> changes

    # -- phases ----------------------------------------------------------

    def setup(self) -> float:
        """Build the initial tree; returns t0 (workload clock zero)."""
        plan, cluster = self.plan, self.cluster
        sh = cluster.shell(0)
        sh.setcopies(min(plan.copies, plan.n_sites))
        sh.mkdir("/w")
        tag = 0
        for d in range(plan.tree_dirs):
            sh.mkdir(f"/w/d{d}")
            self.model.dirs.add(f"/w/d{d}")
            for f in range(plan.tree_files):
                tag -= 1
                path = f"/w/d{d}/f{f}"
                data = payload(plan.seed, tag, plan.file_size)
                sh.write_file(path, data)
                self.model.bind(path, data)
        cluster.settle()
        return cluster.sim.now

    def arm_faults(self, t0: float):
        events = []
        for ev in self.plan.faults:
            data = ev.to_dict()
            if data.get("at") is not None:
                data["at"] = t0 + data["at"]
            events.append(FaultEvent.from_dict(data))
        fault_plan = FaultPlan(seed=self.plan.seed, name=self.plan.name,
                               check_after_heal=self.plan.check_after_heal,
                               events=events)
        return self.cluster.inject(fault_plan)

    def run(self) -> FuzzRun:
        plan, cluster = self.plan, self.cluster
        t0 = self.setup()
        injector = self.arm_faults(t0)
        self._injector = injector

        by_site: Dict[int, List[WorkloadOp]] = {}
        for op in plan.ops:
            by_site.setdefault(op.site, []).append(op)
        idx_of = {id(op): i for i, op in enumerate(plan.ops)}
        drivers: Dict[int, Task] = {}
        for site_id, ops in sorted(by_site.items()):
            api = cluster.shell(site_id).api
            drivers[site_id] = cluster.spawn(
                site_id, self._driver(api, ops, t0, idx_of),
                name=f"fuzz-driver@{site_id}")

        # Storm phase: drivers + faults; generous horizon so slow heals
        # and retry backoffs still finish inside it.
        first = cluster.sim.events_processed
        stall_vt = self._settle(plan.span() + 30_000.0)

        # Reconciliation phase: the paper's §4 promise is judged on a
        # merged network, so end every scenario whole.
        if stall_vt is None:
            for site in cluster.sites:
                if not site.up:
                    cluster.restart_site(site, settle=False)
            cluster.heal(settle=False)
            stall_vt = self._settle(30_000.0)

        return FuzzRun(plan=plan, cluster=cluster, injector=injector,
                       model=self.model, oplog=self.oplog, drivers=drivers,
                       t0=t0, events=cluster.sim.events_processed - first,
                       stall_vt=stall_vt)

    def _settle(self, max_time: float) -> Optional[float]:
        """:meth:`LocusCluster.settle` in windows of ``STALL_EVENTS``
        events: the vt a stalled window moved, or None once settled."""
        sim = self.cluster.sim
        horizon = sim.now + max_time
        while True:
            start, stop = sim.now, sim.events_processed + STALL_EVENTS
            sim.drain(horizon, stop)
            if sim.events_processed >= stop:
                if sim.now - start < STALL_VT:
                    return sim.now - start
            elif not sim.fire_idle_hooks():
                return None

    # -- the per-site client ---------------------------------------------

    def _driver(self, api, ops: List[WorkloadOp], t0: float, idx_of):
        sim = self.cluster.sim
        for op in ops:
            delay = t0 + op.at - sim.now
            if delay > 0:
                yield delay
            start = sim.now
            clean_start = not self._currently_disturbed()
            keys = self._touch_keys(op)
            if op.op == "read":
                clean_start = clean_start and not any(
                    self._inflight.get(k, 0) for k in keys)
                epochs = {k: self._mut_epoch.get(k, 0) for k in keys}
            elif op.op in _MUTATING:
                self._mark_mutation(keys, +1)
            expected = self.model.expectation(op.path) \
                if op.op == "read" else None
            record = OpRecord(idx=idx_of[id(op)], op=op, start=start,
                              end=start, ok=False, expected=expected)
            try:
                result = yield from self._execute(api, op)
                record.ok = True
                record.result = result
            except NetworkError as exc:
                record.error = type(exc).__name__
                self.model.apply_unknown(op)
            except LocusError as exc:
                record.error = type(exc).__name__
            finally:
                if op.op in _MUTATING:
                    self._mark_mutation(keys, -1)
            record.end = sim.now
            if record.ok:
                self._currently_disturbed()     # refresh window state
                if self._split and op.op != "read":
                    # Split-brain: the merge decides the real outcome.
                    self.model.apply_success(op, self.plan.seed)
                    self.model.apply_unknown(op)
                else:
                    self.model.apply_success(op, self.plan.seed)
            # A read is judged only if nothing moved under it: no fault
            # disturbed the cluster since the last audited quiescence,
            # no mutation of the same path/file overlapped the read
            # window, and the model expectation is unchanged.
            if op.op == "read":
                record.clean = (clean_start
                                and not self._currently_disturbed()
                                and all(self._mut_epoch.get(k, 0)
                                        == epochs[k] for k in keys)
                                and self.model.expectation(op.path)
                                == expected)
            self.oplog.append(record)

    def _touch_keys(self, op: WorkloadOp) -> tuple:
        """Conflict-detection keys for ``op``: the named paths plus the
        model file ids behind them (hard links alias one id)."""
        keys = {op.path}
        if op.dest is not None:
            keys.add(op.dest)
        for path in tuple(keys):
            fid = self.model.files.get(path)
            if fid is not None:
                keys.add(("fid", fid))
        return tuple(sorted(keys, key=repr))

    def _mark_mutation(self, keys: tuple, delta: int) -> None:
        for k in keys:
            self._inflight[k] = self._inflight.get(k, 0) + delta
            self._mut_epoch[k] = self._mut_epoch.get(k, 0) + 1

    def _execute(self, api, op: WorkloadOp):
        if op.op == "read":
            data = yield from api.read_file(op.path)
            return _digest(data)
        if op.op == "write":
            yield from api.write_file(
                op.path, payload(self.plan.seed, op.tag, op.size))
        elif op.op == "mkdir":
            yield from api.mkdir(op.path)
        elif op.op == "rename":
            yield from api.rename(op.path, op.dest)
        elif op.op == "unlink":
            yield from api.unlink(op.path)
        elif op.op == "link":
            yield from api.link(op.path, op.dest)
        elif op.op == "readdir":
            names = yield from api.readdir(op.path.rsplit("/", 1)[0]
                                           or "/")
            return str(len(names))
        elif op.op == "stat":
            yield from api.stat(op.path)
        return None

    # -- disturbance tracking --------------------------------------------

    def _currently_disturbed(self) -> bool:
        """Scan new injector-trace entries: faults disturb, an audited
        post-heal quiescence (invariant_check) restores confidence."""
        trace = self._injector.trace
        while self._trace_cursor < len(trace):
            __, kind, __detail = trace[self._trace_cursor]
            self._trace_cursor += 1
            if kind in _DISTURBING:
                self._disturbed = True
            if kind in _SPLITTING:
                self._split = True
            elif kind == "invariant_check":
                self._disturbed = False
                self._split = False
        return self._disturbed


def run_plan(plan: FuzzPlan, oracle=None) -> "FuzzResult":
    """Run a plan end-to-end and judge it.  Returns a
    :class:`repro.fuzz.oracle.FuzzResult` whose ``failures`` list is
    empty on a healthy run."""
    from repro.fuzz.oracle import FuzzOracle
    run = PlanRunner(plan).run()
    return (oracle or FuzzOracle()).judge(run)
