"""Oracles: judge a finished :class:`~repro.fuzz.runner.FuzzRun`.

The default :class:`FuzzOracle` layers three families of checks on top of
whatever the mid-storm invariant audits already caught:

* **invariant audit** — the full :class:`repro.faults.InvariantChecker`
  sweep (fsck, including its "equal version vectors ⇒ equal committed
  bytes" rule, plus version-vector replica divergence) on the merged
  store.  Orphan inodes are excluded by default: a crash between
  allocation and the directory commit legitimately strands an inode for
  fsck to reap (classic UNIX semantics the paper keeps); every other
  category is a real violation.
* **session guarantees** — every read the runner marked ``clean`` (no
  fault disturbance, stable model expectation) must have returned the
  content of the last successful write; reads mid-storm are exempt, the
  merged end state is not.
* **model read-back + liveness** — after reconciliation, every
  unambiguous path the model tracks must resolve to the expected bytes
  (flagged conflicts are legitimate pending states and are skipped),
  every successfully unlinked path must stay gone, every workload driver
  task must have finished its schedule (not be stuck, nor crashed), and no
  syscall span on a never-crashed client site may be left open in the
  flight recorder.  A plan the runner stopped at a stalled clock is
  ``liveness:stalled`` and gets no end-state audit: it never went quiet.

A failing run's :class:`FuzzResult` carries the violations and the plan;
``repro.fuzz.shrink`` turns it into a minimal reproduction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import LocusError
from repro.faults.invariants import InvariantChecker, Violation
from repro.fuzz.runner import (AMBIGUOUS, FuzzRun, MISSING, NamespaceModel,
                               _digest)
from repro.sim.task import origin
from repro.tools.fsck import AUDITED

# fsck categories that are always violations.  "orphan_inodes" is off by
# default (see module docstring); strict oracles can add it back.
DEFAULT_AUDIT = tuple(f"fsck:{category}" for category in AUDITED
                      if category != "orphan_inodes")


@dataclass
class FuzzResult:
    """What one fuzz iteration produced: the run record plus verdicts."""

    run: FuzzRun
    violations: List[Violation] = field(default_factory=list)

    @property
    def plan(self):
        return self.run.plan

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def deaths(self) -> List[str]:
        """Tasks that died of a bug: reported, not judged."""
        return self.run.cluster.sim.task_deaths

    @property
    def failures(self) -> List[str]:
        return [f"[{v.kind}] {v.detail}" for v in self.violations]

    def digest(self) -> str:
        return self.run.digest()

    def report(self) -> str:
        run = self.run
        ops_ok = sum(1 for r in run.oplog if r.ok)
        lines = [f"plan {self.plan.name!r} seed={self.plan.seed}: "
                 f"{len(run.oplog)} ops ({ops_ok} ok), "
                 f"{len(run.injector.trace)} fault events, "
                 f"{len(self.violations)} violations"]
        lines += [f"  VIOLATION [{v.kind}] {v.detail}"
                  for v in self.violations]
        lines += [f"  DIED {death}" for death in self.deaths]
        return "\n".join(lines)


class FuzzOracle:
    """The default end-of-run judge."""

    def __init__(self, audit=DEFAULT_AUDIT, check_sessions: bool = True,
                 check_liveness: bool = True):
        self.audit = tuple(audit)
        self.check_sessions = check_sessions
        self.check_liveness = check_liveness

    # -- entry point -----------------------------------------------------

    def judge(self, run: FuzzRun) -> FuzzResult:
        violations: List[Violation] = []
        violations += self._filter(run.injector.violations)
        if run.stall_vt is not None:
            violations.append(self._make(
                run, "liveness:stalled",
                f"the clock moved {run.stall_vt:.2f} vt in the last window"
                f", at t={run.cluster.sim.now:.1f}, {run.events} events"))
            return FuzzResult(run=run, violations=violations)
        violations += self._filter(
            InvariantChecker(run.cluster, run.plan).check())
        if self.check_sessions:
            violations += self._session_guarantees(run)
        violations += self._model_readback(run)
        if self.check_liveness:
            violations += self._liveness(run)
        return FuzzResult(run=run, violations=violations)

    # -- helpers ---------------------------------------------------------

    def _make(self, run: FuzzRun, kind: str, detail: str) -> Violation:
        return Violation(kind=kind, detail=detail, seed=run.plan.seed,
                         plan_json=run.plan.name)

    def _filter(self, violations) -> List[Violation]:
        return [v for v in violations
                if not v.kind.startswith("fsck:")
                or v.kind in self.audit]

    # -- session guarantees ----------------------------------------------

    def _session_guarantees(self, run: FuzzRun) -> List[Violation]:
        out: List[Violation] = []
        for rec in run.oplog:
            if rec.op.op != "read" or not rec.ok or not rec.clean:
                continue
            if rec.expected in (AMBIGUOUS, None):
                continue
            if rec.expected == MISSING:
                # A clean successful read of a path the model says is
                # absent: the namespace resurrected something.
                out.append(self._make(
                    run, "session:phantom_read",
                    f"op#{rec.idx} read {rec.op.path!r} at "
                    f"t={rec.start:.1f} succeeded but the path should "
                    f"not exist"))
            elif rec.result != rec.expected:
                out.append(self._make(
                    run, "session:stale_read",
                    f"op#{rec.idx} read {rec.op.path!r} at "
                    f"t={rec.start:.1f} returned {rec.result} expected "
                    f"{rec.expected}"))
        return out

    # -- model read-back -------------------------------------------------

    def _model_readback(self, run: FuzzRun) -> List[Violation]:
        out: List[Violation] = []
        model: NamespaceModel = run.model
        sh = run.cluster.shell(0)
        for path in sorted(model.files):
            if path in model.ambiguous:
                continue
            fid = model.files[path]
            if fid in model.ambiguous_fids:
                continue
            try:
                attrs = sh.stat(path)
            except LocusError as exc:
                out.append(self._make(
                    run, "model:lost_path",
                    f"{path!r} should exist after reconciliation, "
                    f"stat raised {type(exc).__name__}"))
                continue
            if attrs.get("conflict"):
                continue    # flagged conflict: legitimate pending state
            try:
                got = _digest(sh.read_file(path))
            except LocusError as exc:
                out.append(self._make(
                    run, "model:unreadable_path",
                    f"{path!r} stat ok but read raised "
                    f"{type(exc).__name__}"))
                continue
            want = _digest(model.content[fid])
            if got != want:
                out.append(self._make(
                    run, "model:content_mismatch",
                    f"{path!r} content {got} != last committed write "
                    f"{want}"))
        for path in sorted(model.removed - set(model.files)
                           - model.ambiguous):
            try:
                sh.stat(path)
            except LocusError:
                continue
            out.append(self._make(
                run, "model:resurrected_path",
                f"{path!r} was unlinked but exists after "
                f"reconciliation"))
        return out

    # -- liveness --------------------------------------------------------

    def _liveness(self, run: FuzzRun) -> List[Violation]:
        out: List[Violation] = []
        for site_id, task in sorted(run.drivers.items()):
            exc = task.done.exception()
            if task.finished and exc is None:
                continue
            kind, why = "stuck", "never finished its schedule"
            if exc is not None and not isinstance(exc, LocusError):
                kind, why = "crashed", f"died of {exc!r} at {origin(exc)}"
            out.append(self._make(run, f"liveness:driver_{kind}",
                                  f"workload driver at site {site_id} {why}"))
        tracer = getattr(run.cluster, "tracer", None)
        if tracer is not None and tracer.enabled:
            crashed = set()
            for __, kind, detail in run.injector.trace:
                if kind == "crash":
                    crashed.add(json.loads(detail).get("site"))
            for span in tracer.open_spans(kind="syscall"):
                if span.site in crashed:
                    continue
                out.append(self._make(
                    run, "liveness:leaked_span",
                    f"syscall span {span.name!r} on site {span.site} "
                    f"opened t={span.start:.1f} never finished"))
        return out


class SyntheticOracle(FuzzOracle):
    """A deliberately planted bug for shrinker demos and tests: trips
    when the run contains a successful workload op of ``op_kind`` AND a
    fired fault of ``fault_kind``.  The minimal reproduction is exactly
    one of each — what the shrinker must converge to."""

    def __init__(self, op_kind: str = "rename",
                 fault_kind: str = "crash"):
        super().__init__(check_sessions=False, check_liveness=False)
        self.op_kind = op_kind
        self.fault_kind = fault_kind

    def judge(self, run: FuzzRun) -> FuzzResult:
        ops = [r for r in run.oplog if r.op.op == self.op_kind and r.ok]
        faults = [t for t, k, __ in run.injector.trace
                  if k == self.fault_kind]
        violations: List[Violation] = []
        if ops and faults:
            violations.append(self._make(
                run, "synthetic:conjunction",
                f"successful {self.op_kind!r} (op#{ops[0].idx}) and "
                f"fired {self.fault_kind!r} (t={faults[0]:.1f}) "
                f"coexist"))
        return FuzzResult(run=run, violations=violations)
