"""Anti-entropy scrub subsystem (ISSUE 9 tentpole).

Each test plants a specific divergence directly in the packs of a
settled, fully-replicated cluster — the forged-negative discipline of
``test_invariants_negative`` — then triggers one scrub sweep at the CSS
and asserts the planted damage is repaired (or surfaced as a flagged
conflict) within the configured round budget.  A clean cluster must
scrub to a converged no-op, and with ``scrub_enabled=False`` the
subsystem must be completely inert: zero extra messages, identical
post-state.
"""

from __future__ import annotations

import pytest

from repro import LocusCluster
from repro.config import CostModel
from repro.errors import EIO
from repro.fs.scrub import SCRUB_ROUNDS, committed_digest
from repro.tools import fsck


def make_cluster(**flags):
    return LocusCluster(n_sites=3, seed=31,
                        cost=CostModel().with_overrides(**flags))


def seeded(cluster, path="/f", data=b"base content " * 40):
    """A fully replicated file, settled everywhere; returns (gfs, ino)."""
    sh = cluster.shell(0)
    sh.setcopies(3)
    sh.write_file(path, data)
    cluster.settle()
    gfs = 0
    ino = next(ino for ino, inode
               in cluster.site(0).packs[gfs].inodes.items()
               if inode.ftype.name == "REGULAR" and not inode.deleted)
    return gfs, ino


def packs_for(cluster, gfs=0):
    return {site.site_id: site.packs[gfs] for site in cluster.sites
            if gfs in site.packs}


def run_scrub(cluster, gfs=0):
    css = cluster.site(0).fs.mount.css_for(gfs)
    cluster.site(css).scrub.schedule(gfs)
    cluster.settle()
    return cluster.site(css).scrub


# -- clean cluster ---------------------------------------------------------

def test_noop_on_clean_cluster():
    """A sweep over a healthy cluster converges on its first round and
    repairs nothing."""
    cluster = make_cluster()
    seeded(cluster)
    scrub = run_scrub(cluster)
    assert scrub.stats.sweeps == 1
    assert scrub.stats.converged == 1
    assert scrub.stats.exhausted == 0
    assert scrub.stats.rounds == 1
    assert scrub.stats.reconciles == 0
    assert scrub.stats.digest_skews == 0
    assert scrub.stats.placement_repairs == 0
    assert scrub.stats.dangling_removed == 0
    assert fsck(cluster).clean


def test_disabled_scrub_is_inert():
    cluster = make_cluster(scrub_enabled=False)
    seeded(cluster)
    before = dict(cluster.net.stats.sent)
    scrub = run_scrub(cluster)
    assert scrub.stats.sweeps == 0
    assert dict(cluster.net.stats.sent) == before


def test_fault_free_message_parity_on_vs_off():
    """Scrub only triggers from the merge procedure, so a fault-free run
    sends byte-for-byte the same messages whether the flag is on or off."""
    counts = {}
    for flag in (True, False):
        cluster = make_cluster(scrub_enabled=flag)
        sh = cluster.shell(1)
        sh.setcopies(3)
        sh.write_file("/a", b"x" * 5000)
        sh.write_file("/b", b"y" * 300)
        sh.unlink("/b")
        cluster.settle()
        counts[flag] = dict(cluster.net.stats.sent)
    assert counts[True] == counts[False]


# -- planted divergence ----------------------------------------------------

def test_planted_stale_copy_converges_within_budget():
    """A commit whose notifies were all lost: one copy is ahead, the
    others dominated.  The scrub hands the file to recovery's reconcile
    and every copy converges to the new version within the round budget."""
    cluster = make_cluster()
    gfs, ino = seeded(cluster)
    packs = packs_for(cluster)
    winner = packs[1].inodes[ino]
    blockno = winner.pages[0]
    packs[1].blocks[blockno] = b"NEWER".ljust(
        len(packs[1].blocks[blockno]), b"!")
    winner.version = winner.version.bump(1)
    scrub = run_scrub(cluster)
    assert scrub.stats.reconciles >= 1
    assert scrub.stats.converged == 1
    assert scrub.stats.exhausted == 0
    versions = {p.inodes[ino].version for p in packs.values()}
    assert versions == {winner.version}
    digests = {committed_digest(p, ino) for p in packs.values()}
    assert len(digests) == 1
    assert fsck(cluster).clean


def test_planted_digest_skew_flags_conflict():
    """Equal version vectors, different bytes — the version system itself
    was subverted, so no copy can win: the scrub surfaces the file as a
    conflict for the user instead of guessing."""
    cluster = make_cluster()
    gfs, ino = seeded(cluster)
    packs = packs_for(cluster)
    blockno = packs[2].inodes[ino].pages[0]
    packs[2].blocks[blockno] = bytes(
        b ^ 0xAA for b in packs[2].blocks[blockno])
    scrub = run_scrub(cluster)
    assert scrub.stats.digest_skews >= 1
    assert all(p.inodes[ino].conflict for p in packs.values())
    # A flagged conflict is a legitimate parked state, not a violation.
    report = fsck(cluster)
    assert not report.content_mismatch
    assert not report.unflagged_conflicts


def test_planted_concurrent_lineages_go_to_recovery():
    """Two copies each carry a commit the other lacks (concurrent
    lineages): no copy can be pulled over the other, so the scrub hands
    the file to recovery's merge, which marks the untyped file a
    conflict on every copy."""
    cluster = make_cluster()
    gfs, ino = seeded(cluster)
    packs = packs_for(cluster)
    for site in (1, 2):
        inode = packs[site].inodes[ino]
        blockno = inode.pages[0]
        packs[site].blocks[blockno] = bytes([site]) * len(
            packs[site].blocks[blockno])
        inode.version = inode.version.bump(site)
    scrub = run_scrub(cluster)
    assert scrub.stats.reconciles >= 1
    assert all(p.inodes[ino].conflict for p in packs.values())
    assert not fsck(cluster).unflagged_conflicts


def test_planted_misplaced_copy_retired():
    """A pack storing data its inode no longer advertises there (a
    replica drop whose notify was lost): the scrub tells the site to
    retire the copy."""
    cluster = make_cluster()
    gfs, ino = seeded(cluster)
    packs = packs_for(cluster)
    for pack in packs.values():
        pack.inodes[ino].storage_sites = [0, 1]
    scrub = run_scrub(cluster)
    assert scrub.stats.placement_repairs >= 1
    assert not packs[2].stores(ino)
    assert packs[0].stores(ino) and packs[1].stores(ino)
    assert fsck(cluster).clean


def test_planted_dangling_entry_scrubbed():
    """A live directory entry naming an inode no pack holds: the classic
    fsck action, performed online by the sweep."""
    cluster = make_cluster()
    gfs, ino = seeded(cluster, path="/doomed")
    for pack in packs_for(cluster).values():
        del pack.inodes[ino]
    assert not fsck(cluster).clean          # the plant is visible
    scrub = run_scrub(cluster)
    assert scrub.stats.dangling_removed >= 1
    assert "doomed" not in cluster.shell(0).readdir("/")
    assert fsck(cluster).clean


def test_round_budget_bounds_unrepairable_damage():
    """Damage the scrub cannot repair (a believed-up pack holder that
    never answers a summary request) must exhaust the round budget, not
    loop forever — and an unanswered holder counts as a shortfall, never
    as convergence."""
    cluster = make_cluster()
    seeded(cluster)

    def broken(src, payload):
        raise EIO("scrub summary unavailable")
        yield  # pragma: no cover

    cluster.site(2)._handlers["fs.scrub_digest"] = broken
    scrub = run_scrub(cluster)
    assert scrub.stats.exhausted == 1
    assert scrub.stats.converged == 0
    assert scrub.stats.partial_rounds >= 2
    assert scrub.stats.rounds == SCRUB_ROUNDS
