"""Delta inventories: a pack site answers ``fs.pack_inventory`` and
``fs.scrub_digest`` with only what changed since a reply the requester
still holds (an inode it held as only the fields that differ), or, on
first contact, since the table the requester predicts from another pack's
reply; the requester rebuilds the complete map.

Every test checks the rebuild exactly.  The ``exact`` fixture hooks both
halves of the protocol: the pack side attaches its complete table to each
reply in an ``_``-prefixed field (which the wire-size model does not
count, so timing is unchanged), and the requester side compares the map it
rebuilt with it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import LocusCluster
from repro.fuzz import FuzzPlan, run_plan
from repro.net.message import payload_size
from repro.net.stats import StatsWindow
from repro.recovery.manager import (INVENTORY_MEMOS, SEEDED,
                                    RecoveryManager)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPS = ("fs.pack_inventory", "fs.scrub_digest")


class Exact:
    """What the hooked protocol saw: one ``(op, requester, pack site,
    kind, equal)`` per reply rebuilt, ``kind`` one of "full", "seeded"
    and "delta", and one ``equal`` per patched entry rebuilt."""

    def __init__(self):
        self.rebuilt = []
        self.replies = []   # (op, pack site, reply) per reply served
        self.patched = []

    @property
    def all_equal(self) -> bool:
        return (bool(self.rebuilt) and all(row[4] for row in self.rebuilt)
                and all(self.patched))

    def count(self, op: str, kind: str) -> int:
        return sum(1 for row in self.rebuilt
                   if row[0] == op and row[3] == kind)


def _kind(reply: dict) -> str:
    if reply["base"] is None:
        return "full"
    return "seeded" if reply["base"] == SEEDED else "delta"


@pytest.fixture
def exact(monkeypatch):
    seen = Exact()
    reply_of = RecoveryManager.delta_reply
    rebuild = RecoveryManager._rebuild

    def full_attached(self, src, p, op, table):
        reply = reply_of(self, src, p, op, table)
        reply["_full"] = dict(table)
        seen.replies.append((op, self.sid, reply))
        return reply

    def checked(self, key, held, reply):
        inv = rebuild(self, key, held, reply)
        seen.rebuilt.append((key[2], self.sid, key[0], _kind(reply),
                             inv == reply["_full"]))
        seen.patched += [inv[ino] == reply["_full"][ino]
                         for ino in reply["patched"]]
        return inv

    monkeypatch.setattr(RecoveryManager, "delta_reply", full_attached)
    monkeypatch.setattr(RecoveryManager, "_rebuild", checked)
    return seen


@pytest.fixture
def cluster():
    cluster = LocusCluster(n_sites=3, seed=44)
    sh = cluster.shell(0)
    sh.setcopies(3)
    for i in range(6):
        sh.write_file(f"/f{i}", bytes([65 + i]) * 1500)
    cluster.settle()
    return cluster


def inventories(cluster, site_id=0, op="fs.pack_inventory"):
    rec = cluster.site(site_id).recovery
    return cluster.call(site_id, rec.inventories(0, op=op))


def reply_bytes(cluster, fn):
    window = StatsWindow(cluster.stats)
    fn()
    return window.close().total_bytes


@pytest.mark.parametrize("op", OPS)
def test_a_repeat_call_sends_only_what_changed(cluster, exact, monkeypatch,
                                              op):
    with monkeypatch.context() as unseeded:
        unseeded.setattr(RecoveryManager, "_seed", lambda *args: {})
        first = reply_bytes(cluster, lambda: inventories(cluster, op=op))
    cluster.shell(1).write_file("/f3", b"changed")
    cluster.settle()
    rebuilt = []
    again = reply_bytes(
        cluster, lambda: rebuilt.append(inventories(cluster, op=op)))
    assert exact.all_equal and exact.count(op, "delta") == 3
    assert again < first / 3
    for s in (0, 1, 2):
        assert rebuilt[0][s] == exact_table(cluster, s, op)


def exact_table(cluster, site_id, op):
    """The pack's complete table now, asked for with no base."""
    rec = cluster.site(site_id).recovery
    handler = (rec.h_pack_inventory if op == "fs.pack_inventory"
               else cluster.site(site_id).scrub.h_scrub_digest)
    reply = cluster.call(site_id, handler(99, {"gfs": 0}))
    assert reply["base"] is None and reply["gone"] == []
    return reply["changed"]


@pytest.mark.parametrize("site_id", (0, 1, 2))
@pytest.mark.parametrize("op", OPS)
def test_a_first_contact_is_answered_against_a_seeded_table(
        cluster, exact, monkeypatch, op, site_id):
    """A requester holding no base asks its first pack in full and the
    others against the table it predicts from that reply: every rebuild
    is exact, and replicas that agree send no entry."""
    seeded = reply_bytes(cluster,
                         lambda: inventories(cluster, site_id, op))
    assert [row[2:] for row in exact.rebuilt] == [
        (0, "full", True), (1, "seeded", True), (2, "seeded", True)]
    assert [r["changed"] for __, s, r in exact.replies if s] == [{}, {}]
    served = [(site.recovery.stats.inventories_full,
               site.recovery.stats.inventories_seeded,
               site.recovery.stats.inventories_delta)
              for site in cluster.sites]
    assert served == [(1, 0, 0), (0, 1, 0), (0, 1, 0)]
    cluster.site(site_id).recovery.reset_volatile()
    monkeypatch.setattr(RecoveryManager, "_seed", lambda *args: {})
    full = reply_bytes(cluster, lambda: inventories(cluster, site_id, op))
    assert seeded < full


def test_a_non_storing_pack_is_predicted_from_a_storing_one(exact):
    """Pack 2 stores no data of files placed at sites 0 and 1: the seed
    taken from pack 0's reply predicts its ``has_data`` and scrub digest,
    so its seeded reply carries no entry."""
    cluster = LocusCluster(n_sites=3, seed=44)
    sh = cluster.shell(0)
    sh.setcopies(2)
    for i in range(4):
        sh.write_file(f"/f{i}", bytes([65 + i]) * 1500)
    cluster.settle()
    inv = inventories(cluster, op="fs.scrub_digest")
    ino = sh.stat("/f0")["ino"]
    assert inv[0][ino]["has_data"] and inv[0][ino]["digest"]
    assert not inv[2][ino]["has_data"] and inv[2][ino]["digest"] is None
    (reply,) = [r for __, s, r in exact.replies if s == 2]
    assert _kind(reply) == "seeded" and reply["changed"] == {}
    assert exact.all_equal


def test_a_digest_skew_surfaces_through_a_seeded_reply(cluster, exact):
    """Equal version vectors, different bytes at one pack: the seed
    predicts the other pack's digest, so the skewed copy comes back as a
    change and the scrub round still flags it."""
    ino = cluster.shell(0).stat("/f2")["ino"]
    pack = cluster.site(2).packs[0]
    blockno = pack.inodes[ino].pages[0]
    pack.blocks[blockno] = bytes(b ^ 0xAA for b in pack.blocks[blockno])
    scrub = cluster.site(0).scrub
    cluster.call(0, scrub._round(0))
    assert scrub.stats.digest_skews == 1
    reply = next(r for __, s, r in exact.replies if s == 2)
    assert _kind(reply) == "seeded" and list(reply["changed"]) == [ino]
    assert exact.all_equal


def test_lost_replies_within_the_memo_depth_still_delta(cluster, exact):
    """Replies the requester never saw leave its base among the pack's
    memos for INVENTORY_MEMOS - 1 more replies; past that it is
    forgotten, and the next answer is the full table."""
    inventories(cluster)
    pack = cluster.site(2).recovery
    token, __ = cluster.site(0).recovery._held[(2, 0, "fs.pack_inventory")]
    lost = {"gfs": 0, "base": token}
    for __ in range(INVENTORY_MEMOS - 1):
        cluster.call(2, pack.h_pack_inventory(0, lost))
    cluster.shell(0).unlink("/f1")
    cluster.settle()
    inventories(cluster)
    assert exact.rebuilt[-1] == ("fs.pack_inventory", 0, 2, "delta", True)
    token, __ = cluster.site(0).recovery._held[(2, 0, "fs.pack_inventory")]
    for __ in range(INVENTORY_MEMOS):
        cluster.call(2, pack.h_pack_inventory(0, {"gfs": 0, "base": token}))
    inventories(cluster)
    assert exact.rebuilt[-1] == ("fs.pack_inventory", 0, 2, "full", True)
    assert exact.all_equal


def _patched_reply(cluster, exact, edit):
    """The reply pack 2 sends site 0 after ``edit(inode)`` changes its
    copy of ``/f2``, and that file's inode number."""
    inventories(cluster)
    ino = cluster.shell(0).stat("/f2")["ino"]
    edit(cluster.site(2).packs[0].get_inode(ino))
    inventories(cluster)
    (reply,) = [r for __, s, r in exact.replies[-3:] if s == 2]
    return ino, reply


@pytest.mark.parametrize("field, value", (("nlink", 4), ("conflict", True)))
def test_a_one_field_change_is_patched_exactly(cluster, exact, field,
                                               value):
    """An inode the base held comes back as the one field that moved, and
    costs fewer bytes than its whole entry would."""
    ino, reply = _patched_reply(
        cluster, exact, lambda inode: setattr(inode, field, value))
    assert reply["changed"] == {} and reply["gone"] == []
    assert reply["patched"] == {ino: {field: value}}
    assert exact.all_equal and exact.patched == [True]
    whole = dict(reply, changed={ino: reply["_full"][ino]}, patched={})
    assert payload_size(reply) < payload_size(whole)
    assert inventories(cluster)[2][ino]["attrs"][field] == value


def test_a_patch_after_a_lost_reply_rebuilds_from_the_older_base(
        cluster, exact):
    """A reply the requester never saw patched ``nlink``; the next one,
    against the base the requester still holds, patches both fields that
    moved since that base."""
    inventories(cluster)
    ino = cluster.shell(0).stat("/f2")["ino"]
    pack = cluster.site(2).recovery
    inode = cluster.site(2).packs[0].get_inode(ino)
    token, __ = cluster.site(0).recovery._held[(2, 0, "fs.pack_inventory")]
    inode.nlink = 4
    lost = cluster.call(2, pack.h_pack_inventory(0, {"gfs": 0,
                                                     "base": token}))
    assert lost["patched"] == {ino: {"nlink": 4}}
    inode.conflict = True
    rebuilt = inventories(cluster)
    (reply,) = [r for __, s, r in exact.replies[-3:] if s == 2]
    assert reply["base"] == token
    assert reply["patched"] == {ino: {"nlink": 4, "conflict": True}}
    assert rebuilt[2][ino]["attrs"]["nlink"] == 4
    assert rebuilt[2][ino]["attrs"]["conflict"] is True
    assert exact.all_equal and exact.patched == [True]


def test_an_inode_gone_since_the_base_is_removed(cluster, exact):
    inventories(cluster, site_id=1)
    ino = cluster.shell(0).stat("/f2")["ino"]
    before = cluster.site(1).recovery._held[(1, 0, "fs.pack_inventory")]
    assert ino in before[1]
    for site in cluster.sites:
        site.packs[0].inodes.pop(ino)
    inventories(cluster, site_id=1)
    __, held = cluster.site(1).recovery._held[(1, 0, "fs.pack_inventory")]
    assert ino not in held
    assert exact.all_equal and exact.count("fs.pack_inventory", "delta") == 3


def test_concurrent_requests_from_one_site_each_rebuild_exactly(
        cluster, exact):
    """Two calls in flight at once both name the base held when they
    started; each rebuilds against that base, whichever lands last, and
    the next call still rebuilds exactly."""
    inventories(cluster)
    rec = cluster.site(0).recovery
    ino = cluster.shell(0).stat("/f4")["ino"]
    inode = cluster.site(2).packs[0].get_inode(ino)
    first = cluster.spawn(0, rec.inventories(0))
    second = cluster.spawn(0, rec.inventories(0))
    cluster.sim.schedule(0.5, setattr, inode, "nlink", 7)
    cluster.settle()
    assert len(first.result()) == len(second.result()) == 3
    third = inventories(cluster)
    assert len(exact.rebuilt) == 12
    assert exact.all_equal and exact.count("fs.pack_inventory", "delta") == 9
    assert third[2][ino]["attrs"]["nlink"] == 7


def test_a_pack_restart_forgets_its_memos_not_its_tokens(cluster, exact):
    """The restarted pack answers its first call after the restart in
    full, under a token above every one it issued before: the requester
    holds a base for it, so it proposes no table."""
    inventories(cluster)
    rec = cluster.site(0).recovery
    before, __ = rec._held[(2, 0, "fs.pack_inventory")]
    n = len(exact.rebuilt)
    cluster.fail_site(2)
    cluster.restart_site(2)
    rebuilt = inventories(cluster)
    after, __ = rec._held[(2, 0, "fs.pack_inventory")]
    assert after > before
    first_from_2 = next(row for row in exact.rebuilt[n:]
                        if row[:3] == ("fs.pack_inventory", 0, 2))
    assert first_from_2[3] == "full"
    assert rebuilt[2] == exact_table(cluster, 2, "fs.pack_inventory")
    assert exact.all_equal


def test_a_requester_crash_starts_it_from_seeded_tables(cluster, exact):
    """A restarted requester holds no base: the first pack it asks
    answers in full, and the others answer against that table; the call
    after that is a delta again."""
    op = "fs.scrub_digest"
    inventories(cluster, site_id=1, op=op)
    cluster.fail_site(1)
    assert not cluster.site(1).recovery._held
    n = len(exact.rebuilt)
    cluster.restart_site(1)
    cluster.shell(0).write_file("/f5", b"while it was down")
    cluster.settle()
    inventories(cluster, site_id=1, op=op)
    inventories(cluster, site_id=1, op=op)
    mine = [row for row in exact.rebuilt[n:] if row[:2] == (op, 1)]
    firsts = {}
    for row in mine:
        firsts.setdefault(row[2], row[3])
    assert firsts == {0: "full", 1: "seeded", 2: "seeded"}
    assert [row[3] for row in mine[-3:]] == ["delta"] * 3
    assert exact.all_equal


# -- corpus replays ------------------------------------------------------

# Corpus plans (by source seed) with crashes, partitions and scrubs, each
# rebuilding seeded and delta replies of both inventory kinds.
REPLAYED = (20, 86, 100)


def _corpus_plan(seed):
    with open(os.path.join(ROOT, "bench", "corpus", "chaos_plans.json")) \
            as fh:
        entry = next(e for e in json.load(fh)["plans"]
                     if e["source_seed"] == seed)
    with open(os.path.join(ROOT, "BENCH_fuzz.json")) as fh:
        row = next(r for r in json.load(fh)["ledger"]["plans"]
                   if r["seed"] == seed)
    return FuzzPlan.from_dict(entry["plan"]), row["digest"]


@pytest.mark.parametrize("seed", REPLAYED)
def test_corpus_replay_rebuilds_every_inventory_exactly(exact, seed):
    """Every inventory a corpus plan's recovery, scrub and retries rebuild
    equals the table its pack computed; the hook costs no virtual time, so
    the run is the ledger's."""
    plan, digest = _corpus_plan(seed)
    result = run_plan(plan)
    assert result.ok, result.report()
    assert result.digest() == digest
    assert exact.all_equal
    for op in OPS:
        assert exact.count(op, "seeded") and exact.count(op, "delta")
    assert exact.patched
