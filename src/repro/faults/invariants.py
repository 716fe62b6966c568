"""Invariants audited at quiescence after every heal.

Two layers, both read off one :func:`repro.tools.fsck.fsck` walk:

* every audited fsck category (reachability, dangling entries, placement,
  equal-version content, unflagged version conflicts, link counts);
* replica divergence — stricter than fsck's conflict check: once a merge
  has settled, every reachable unflagged data copy of a file must carry
  *equal* version vectors.  A copy that is merely dominated (stale but
  not conflicting) means propagation silently failed to converge.

Plus an exactly-once audit of every pack's ledger.

The checker is strictly read-only — it never repairs, settles, or
schedules events, so it is safe to run from the simulator's idle hook.
Violations carry the seed and plan JSON that reproduce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class Violation:
    kind: str
    detail: str
    seed: int
    plan_json: str

    def __str__(self) -> str:
        return (f"[{self.kind}] {self.detail} "
                f"(reproduce: seed={self.seed} plan={self.plan_json})")


class InvariantChecker:

    def __init__(self, cluster, plan: Optional[object] = None):
        self.cluster = cluster
        self.plan = plan

    def _make(self, kind: str, detail: str) -> Violation:
        seed = self.plan.seed if self.plan is not None \
            else self.cluster.config.seed
        plan_json = self.plan.to_json() if self.plan is not None else "{}"
        return Violation(kind=kind, detail=detail, seed=seed,
                         plan_json=plan_json)

    def check(self) -> List[Violation]:
        return self._fsck_violations() + self._ledger_audit()

    def _fsck_violations(self) -> List[Violation]:
        from repro.tools.fsck import AUDITED, fsck
        report = fsck(self.cluster)
        out = [self._make(f"fsck:{category}", repr(item))
               for category in AUDITED
               for item in getattr(report, category)]
        out += [self._make("replica_divergence",
                           f"gfile=({gfs},{ino}) versions={versions}")
                for (gfs, ino), versions in sorted(report.replica_divergence)]
        return out

    def _ledger_audit(self) -> List[Violation]:
        """Exactly-once audit over every pack's durable ledger.

        Two directions: no stamped op executed more than once against the
        same pack (the ledger's whole point), and no memoized reply exists
        for an op that never executed here (a forged or misplaced entry
        would silently swallow a real mutation).  The same stamp *may*
        legitimately execute at two different packs — a write-path failover
        re-homes an ambiguous commit, and the version-vector floor makes
        the survivor dominate — so the audit is strictly per-pack.
        """
        out: List[Violation] = []
        for site in self.cluster.sites:
            for gfs, pack in sorted(site.packs.items()):
                for key, count in sorted(pack.applied_ops.items()):
                    if count > 1:
                        out.append(self._make(
                            "ledger:double_apply",
                            f"site={site.site_id} gfs={gfs} stamp={key} "
                            f"applied {count} times"))
                if pack.ledger is None:
                    continue
                for client, seq in sorted(pack.ledger.entries()):
                    if (client, seq) not in pack.applied_ops:
                        out.append(self._make(
                            "ledger:entry_without_apply",
                            f"site={site.site_id} gfs={gfs} "
                            f"stamp=({client}, {seq}) memoized but never "
                            f"applied"))
        return out
