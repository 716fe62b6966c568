"""Negative-path coverage for the invariant audit (T19 satellite).

The fuzz oracle is only as good as its checkers, so each checker is fed a
*hand-forged* corrupt record — a healthy settled cluster whose packs are
then mutilated directly, or whose run record (op log, namespace model,
driver list, flight recorder) is edited — and must flag exactly the
planted corruption.  A green run on a corrupt record would mean the
fuzzer's verdicts are vacuous.
"""

from __future__ import annotations

import os

import pytest

from repro.faults.invariants import InvariantChecker
from repro.fuzz import runner
from repro.fuzz.oracle import FuzzOracle, SyntheticOracle
from repro.fuzz.plan import FuzzPlan, WorkloadOp
from repro.fuzz.runner import MISSING, OpRecord, PlanRunner, run_plan
from repro.storage.inode import DiskInode, FileType


@pytest.fixture
def run():
    """A settled 3-site cluster (3 data copies, one regular file under
    /w/d0/f0) with a clean audit — the canvas the tests corrupt."""
    plan = FuzzPlan(seed=5, name="forge", n_sites=3, copies=3,
                    tree_dirs=1, tree_files=1, file_size=64)
    fuzz_run = PlanRunner(plan).run()
    assert InvariantChecker(fuzz_run.cluster, plan).check() == []
    return fuzz_run


def kinds(run):
    return sorted({v.kind for v in
                   InvariantChecker(run.cluster, run.plan).check()})


def judged(run):
    return {v.kind for v in FuzzOracle().judge(run).violations}


def data_packs(cluster):
    """{site_id: pack} plus the (gfs, ino) of the one regular file."""
    mount = cluster.sites[0].fs.mount
    for gfs in sorted(mount.groups):
        packs = {site_id: cluster.site(site_id).packs[gfs]
                 for site_id in mount.pack_sites(gfs)
                 if gfs in cluster.site(site_id).packs}
        for ino, inode in sorted(packs[min(packs)].inodes.items()):
            if inode.ftype == FileType.REGULAR and not inode.deleted:
                return packs, gfs, ino
    raise AssertionError("no regular file found")


# -- replica divergence ----------------------------------------------------

def test_stale_copy_is_a_divergent_replica(run):
    """A dominated (stale, non-conflicting) copy after settle means
    propagation silently failed — stricter than fsck's conflict check."""
    packs, gfs, ino = data_packs(run.cluster)
    inode = packs[0].inodes[ino]
    inode.version = inode.version.bump(0)
    found = kinds(run)
    assert "replica_divergence" in found
    assert "fsck:unflagged_conflicts" not in found   # dominated, not torn


def test_concurrent_versions_are_unflagged_conflict(run):
    """Two copies bumped by different sites are *incomparable*: fsck must
    flag the missed conflict and the divergence check fires too."""
    packs, gfs, ino = data_packs(run.cluster)
    packs[0].inodes[ino].version = packs[0].inodes[ino].version.bump(0)
    packs[1].inodes[ino].version = packs[1].inodes[ino].version.bump(1)
    found = kinds(run)
    assert "fsck:unflagged_conflicts" in found
    assert "replica_divergence" in found


def test_conflict_flag_suppresses_divergence(run):
    """A divergent copy already *flagged* conflicted is a known, reported
    conflict — not a silent divergence."""
    packs, gfs, ino = data_packs(run.cluster)
    inode = packs[0].inodes[ino]
    inode.version = inode.version.bump(0)
    inode.conflict = True
    assert "replica_divergence" not in kinds(run)


# -- fsck categories -------------------------------------------------------

def test_forged_nlink_mismatch(run):
    packs, gfs, ino = data_packs(run.cluster)
    for pack in packs.values():
        pack.inodes[ino].nlink = 5
    assert "fsck:nlink_errors" in kinds(run)


def test_forged_dangling_entry(run):
    """Deleting a file's descriptor from every pack leaves its directory
    entry pointing at nothing."""
    packs, gfs, ino = data_packs(run.cluster)
    for pack in packs.values():
        del pack.inodes[ino]
    assert "fsck:dangling_entries" in kinds(run)


def flip_page(pack, ino):
    """Invert every byte of the file's first committed page on one pack."""
    blockno = pack.inodes[ino].pages[0]
    pack.blocks[blockno] = bytes(b ^ 0xFF for b in pack.blocks[blockno])


def test_forged_content_skew_is_fsck_content_mismatch(run):
    """Equal version vectors, different committed bytes: fsck's content
    audit must flag what vv comparison cannot see, and the fuzz oracle
    reports the one flipped page exactly once."""
    packs, gfs, ino = data_packs(run.cluster)
    flip_page(packs[0], ino)
    found = kinds(run)
    assert "fsck:content_mismatch" in found
    assert "replica_divergence" not in found   # vvs still equal
    verdict = [v.kind for v in FuzzOracle().judge(run).violations]
    assert verdict == ["fsck:content_mismatch"]


@pytest.mark.parametrize("newer", [0, 2])
def test_content_mismatch_beside_a_newer_copy(run, newer):
    """Two copies share a vector and differ in bytes while a third copy is
    newer: the mismatch is found whichever site holds the newer copy, and
    the lagging pair is also replica divergence.  ``[0]`` is the regression
    case: a walk comparing only the copies that share the first copy's
    vector misses it.  ``[2]`` pins that the verdict is order-independent."""
    packs, gfs, ino = data_packs(run.cluster)
    inode = packs[newer].inodes[ino]
    inode.version = inode.version.bump(newer)
    flip_page(packs[1], ino)
    found = kinds(run)
    assert "fsck:content_mismatch" in found
    assert "replica_divergence" in found


def test_forged_missing_advertised_copy_is_placement_error(run):
    """An inode advertising a storage site that holds no data: the
    placement audit reports the site and the expected-vs-actual sets."""
    packs, gfs, ino = data_packs(run.cluster)
    packs[0].inodes[ino].has_data = False
    assert "fsck:placement_errors" in kinds(run)
    from repro.tools.fsck import fsck
    report = fsck(run.cluster)
    (gfile, detail), = report.placement_errors
    assert gfile == (gfs, ino)
    assert "site 0" in detail and "advertised" in detail


def test_fsck_reports_in_inode_order(run):
    """fsck lists findings in inode order, not in the order a pack
    installed its inodes: a higher inode installed before the file's, both
    with concurrent vectors, still reports the file's first."""
    from repro.tools.fsck import fsck
    packs, gfs, ino = data_packs(run.cluster)
    late = max(max(pack.inodes) for pack in packs.values()) + 1
    for pack in packs.values():
        installed = dict(pack.inodes)
        pack.inodes.clear()
        pack.inodes[late] = DiskInode(ino=late, ftype=FileType.REGULAR,
                                      size=0, storage_sites=sorted(packs))
        pack.inodes.update(installed)
    for site_id in (0, 1):
        for forged in (ino, late):
            inode = packs[site_id].inodes[forged]
            inode.version = inode.version.bump(site_id)
    report = fsck(run.cluster)
    assert report.version_conflicts == [(gfs, ino), (gfs, late)]
    assert [gfile for gfile, __ in report.replica_divergence] == \
        [(gfs, ino), (gfs, late)]


def test_forged_orphan_reported_but_not_audited_by_default(run):
    """An inode no directory references: the checker reports it, but the
    default oracle audit excludes it (transient orphans are normal in
    crash windows; create compensation retires them)."""
    packs, gfs, ino = data_packs(run.cluster)
    orphan_ino = max(max(p.inodes) for p in packs.values()) + 1
    for pack in packs.values():
        pack.inodes[orphan_ino] = DiskInode(
            ino=orphan_ino, ftype=FileType.REGULAR, size=0,
            storage_sites=sorted(packs))
    assert "fsck:orphan_inodes" in kinds(run)
    assert "fsck:orphan_inodes" not in judged(run)


# -- exactly-once ledger audit ---------------------------------------------

def test_forged_ledger_entry_without_apply(run):
    """A memoized reply for an op that never executed here would silently
    swallow a real mutation on retry — the audit must flag the forgery."""
    from repro.fs.ledger import IdempotencyLedger
    packs, gfs, ino = data_packs(run.cluster)
    pack = packs[min(packs)]
    if pack.ledger is None:
        pack.ledger = IdempotencyLedger()
    pack.ledger.commit(0, 424242, "forged reply")
    assert "ledger:entry_without_apply" in kinds(run)


def test_forged_double_apply(run):
    """The same stamp executed twice against one pack is the exact failure
    the ledger exists to prevent."""
    packs, gfs, ino = data_packs(run.cluster)
    pack = packs[min(packs)]
    existing = next(iter(pack.applied_ops), None)
    key = existing if existing is not None else (0, 7)
    pack.applied_ops[key] = 2
    assert "ledger:double_apply" in kinds(run)


# -- the oracle's own checks: session, model read-back, liveness ------------

def forged_read(run, expected, result):
    """Append a clean, successful read of the tree's file to the op log."""
    op = WorkloadOp(at=0.0, site=0, op="read", path="/w/d0/f0")
    run.oplog.append(OpRecord(idx=len(run.oplog), op=op, start=1.0, end=2.0,
                              ok=True, result=result, expected=expected,
                              clean=True))


def test_quiet_run_judges_clean(run):
    assert judged(run) == set()


def test_forged_phantom_read(run):
    """A clean read succeeded where the model says the path is absent."""
    forged_read(run, MISSING, "0" * 16)
    assert judged(run) == {"session:phantom_read"}


def test_forged_stale_read(run):
    """A clean read returned bytes other than the last committed write."""
    forged_read(run, run.model.expectation("/w/d0/f0"), "0" * 16)
    assert judged(run) == {"session:stale_read"}


def test_forged_lost_path(run):
    """The model holds a file that reconciliation never produced."""
    run.model.bind("/w/d0/ghost", b"never written")
    assert judged(run) == {"model:lost_path"}


def test_forged_unreadable_path(run):
    """Every copy gives up its data: stat still resolves the name, the read
    does not (fsck also sees the name pointing at no live file)."""
    packs, gfs, ino = data_packs(run.cluster)
    for pack in packs.values():
        pack.inodes[ino].has_data = False
    assert "model:unreadable_path" in judged(run)


def test_forged_model_content_mismatch(run):
    """The file reads back other bytes than the model's last write."""
    run.model.bind("/w/d0/f0", b"a write the cluster never saw")
    assert judged(run) == {"model:content_mismatch"}


def test_forged_resurrected_path(run):
    """The model unlinked a name that still resolves."""
    del run.model.files["/w/d0/f0"]
    run.model.removed.add("/w/d0/f0")
    assert judged(run) == {"model:resurrected_path"}


def test_forged_driver_stuck(run):
    run.unfinished_drivers.append(0)
    assert judged(run) == {"liveness:driver_stuck"}


def test_runaway_plan_is_a_finding(monkeypatch):
    """A plan still busy at the event cap stops there and is judged a
    ``liveness:runaway`` (a shrinkable finding, not a hang)."""
    monkeypatch.setattr(runner, "MAX_PLAN_EVENTS", 300)
    path = os.path.join(os.path.dirname(__file__), "regressions",
                        "loss-burst-lost-notify.json")
    with open(path) as fh:
        plan = FuzzPlan.from_json(fh.read())
    result = run_plan(plan)
    assert result.run.runaway and result.run.events == 300
    assert [v.kind for v in result.violations
            if v.kind == "liveness:runaway"] == ["liveness:runaway"]


def test_event_budget_grows_past_forty_ops_on_three_sites():
    """Small and shrunk plans share the base budget; bigger plans get more
    in proportion to ops x sites (a clean 60-op plan runs 513k events)."""
    def budget(n_ops, n_sites):
        ops = [WorkloadOp(at=0.0, site=0, op="stat", path="/w")] * n_ops
        return runner.event_budget(FuzzPlan(seed=1, name="b",
                                            n_sites=n_sites, ops=ops))
    base = runner.MAX_PLAN_EVENTS
    assert budget(0, 3) == budget(1, 3) == budget(40, 3) == base
    assert budget(60, 3) == base * 3 // 2
    assert budget(120, 8) == base * 8


def test_forged_leaked_span(run):
    """A syscall span left open on a site that never crashed is stuck
    work; the same span on a crashed site died legitimately."""
    run.cluster.tracer.begin("syscall.read", "syscall", 1)
    assert judged(run) == {"liveness:leaked_span"}
    run.injector.trace.append((0.0, "crash", '{"site": 1}'))
    assert judged(run) == set()


# -- synthetic oracle ------------------------------------------------------

def test_synthetic_oracle_needs_the_conjunction(run):
    """No successful rename and no crash fired: the planted bug stays
    dormant on this quiet run."""
    result = SyntheticOracle().judge(run)
    assert result.ok
