"""Anti-entropy scrub: background divergence sweep after heal/merge.

The paper's propagation protocol is notification-driven: a commit sends
``fs.notify`` to the other storage sites, and the partition-merge
procedure (section 4) re-reconciles whatever a topology change may have
disturbed.  Both are one-shot — a notify lost to a fault that fires
*after* the merge sweep snapshotted its inventories leaves replicas
quietly divergent until some unrelated membership change, and nothing
ever cross-checks the *content* of copies whose version vectors agree.

The scrub closes that gap.  After every partition merge or recovery
sweep, the filegroup's CSS runs a bounded number of delayed rounds; each
round asks every reachable pack holder for a batched summary — one
``fs.scrub_digest`` RPC per pack, returning each inode's attributes plus
a digest of its committed content — and classifies every mismatch:

* a dominated or never-seeded copy is handed to the recovery manager's
  per-file reconcile (which propagates the best version through the
  normal pull machinery);
* copies whose version vectors are *equal* but whose digests differ are
  flagged as a conflict (regular files) or re-merged (directories);
* a pack storing data its inode no longer advertises is told to retire
  the copy;
* a live directory entry naming an inode no reachable pack holds is
  scrubbed out (the classic fsck action), and link counts are recounted.

A round that finds nothing ends the sweep early; ``SCRUB_ROUNDS`` bounds
the worst case.  The scrub never runs in fault-free steady state — its
only triggers fire from the merge procedure — so disabling it
(``CostModel.scrub_enabled``) changes nothing on a clean run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Generator, Set

from repro.errors import FsError, NetworkError
from repro.fs.directory import decode_snapshot
from repro.fs.types import Gfile
from repro.obs.tracer import traced_pass
from repro.storage.inode import FileType
from repro.storage.version_vector import latest

_DIR_TYPES = (FileType.DIRECTORY, FileType.HIDDEN_DIR)


# A sweep's budget.  No experiment varies either value, so they are
# constants beside the one loop that reads them.
SCRUB_ROUNDS = 4            # max sweep rounds before giving up
SCRUB_INTERVAL = 150.0      # virtual-time delay between rounds


def committed_image(pack, ino: int, page_size: int) -> bytes:
    """An inode's committed content, straight from pack blocks: what fsck
    audits, the scrub digests and the fuzz oracle compares."""
    inode = pack.get_inode(ino)
    if inode is None:
        return b""
    chunks = []
    for blockno in inode.pages:
        chunks.append((pack.read_block(blockno) if blockno is not None
                       else b"").ljust(page_size, b"\x00"))
    return b"".join(chunks)[:inode.size]


def committed_digest(pack, ino: int, page_size: int = 1024) -> str:
    """Digest of an inode's committed image ("" for a missing inode)."""
    if pack.get_inode(ino) is None:
        return ""
    image = committed_image(pack, ino, page_size)
    return hashlib.sha1(image).hexdigest()[:16]


class ScrubStats:
    def __init__(self):
        self.sweeps = 0
        self.rounds = 0
        self.converged = 0          # sweeps that ended on a clean round
        self.exhausted = 0          # sweeps that ran out of rounds
        self.partial_rounds = 0     # rounds missing a believed-up holder
        self.reconciles = 0         # files handed to recovery
        self.digest_skews = 0       # equal-vv copies with differing content
        self.dir_remerges = 0
        self.placement_repairs = 0  # unadvertised copies retired
        self.dangling_removed = 0
        self.nlink_repairs = 0


class ScrubManager:
    """Per-site anti-entropy scrubber; active at the CSS of a filegroup."""

    def __init__(self, site):
        self.site = site
        self.stats = ScrubStats()
        self._active: Set[int] = set()   # filegroups with a sweep running
        site.register_handler("fs.scrub_digest", self.h_scrub_digest)

    @property
    def sid(self) -> int:
        return self.site.site_id

    def reset_volatile(self) -> None:
        self._active.clear()   # sweep tasks died with the site

    def on_restart(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, gfs: int) -> None:
        """Kick off a scrub sweep for a filegroup this site synchronizes.
        Called from the merge procedure, next to recovery scheduling."""
        if not self.site.cost.scrub_enabled:
            return
        if gfs in self._active:
            return
        self._active.add(gfs)
        sweep = traced_pass(self.site, "scrub", gfs, self._sweep(gfs),
                            lambda: {"rounds": self.stats.rounds})
        self.site.spawn(sweep, name=f"scrub:fg{gfs}@{self.sid}")

    # ------------------------------------------------------------------
    # The sweep
    # ------------------------------------------------------------------

    def _sweep(self, gfs: int) -> Generator:
        recovery = self.site.recovery
        fs = self.site.fs
        self.stats.sweeps += 1
        try:
            for __ in range(SCRUB_ROUNDS):
                yield SCRUB_INTERVAL
                if not self.site.cost.scrub_enabled:
                    return None
                if fs.mount.css_for(gfs) != self.sid:
                    return None   # lost the CSS role: the new CSS scrubs
                # Let queued reconciles drain first; a scrub over a
                # half-merged filegroup would re-report what recovery is
                # already fixing.
                for __wait in range(10):
                    if not recovery.busy(gfs):
                        break
                    yield SCRUB_INTERVAL / 2
                self.stats.rounds += 1
                before = recovery.stats.nlink_repairs
                mismatches = yield from self._round(gfs)
                # Recount link references even on an otherwise clean round:
                # a deferred directory merge (rule-d resurrection) can land
                # after the sweep's own repair pass already ran.
                try:
                    yield from recovery.repair_link_counts(gfs)
                except (NetworkError, FsError):
                    pass
                repairs = recovery.stats.nlink_repairs - before
                self.stats.nlink_repairs += repairs
                if mismatches == 0 and repairs == 0:
                    self.stats.converged += 1
                    return None
            self.stats.exhausted += 1
            return None
        finally:
            self._active.discard(gfs)

    def _flag(self, category: str, gfile: Gfile) -> None:
        """A divergence was classified: timestamp it on the shared
        timeline (``scrub.<category>`` instant), where the cluster's
        detection-latency metric finds it.  Observational only."""
        self.site.tracer.instant(f"scrub.{category}", site=self.sid,
                                 attrs={"gfile": list(gfile)})

    def h_scrub_digest(self, src: int, p: dict) -> Generator:
        """Anti-entropy summary: the pack inventory plus a digest of each
        data-holding inode's committed content, so the scrub can detect
        copies whose version vectors agree but whose bytes do not.  The
        reply is a superset of ``fs.pack_inventory``'s shape — the scrub
        reuses it wherever recovery expects an inventory — and goes back
        as a delta the same way (``RecoveryManager.delta_reply``)."""
        cost = self.site.cost
        recovery = self.site.recovery
        pack = self.site.fs.local_pack(p["gfs"])
        if pack is None:
            return recovery.delta_reply(src, p, "fs.scrub_digest", {})
        summary = {}
        blocks_read = 0
        for ino, inode in pack.inodes.items():
            digest = None
            if inode.has_data and not inode.deleted:
                digest = committed_digest(pack, ino, cost.page_size)
                blocks_read += max(1, len(inode.pages))
            summary[ino] = {"attrs": inode.attrs(),
                            "has_data": inode.has_data,
                            "digest": digest}
        yield from self.site.cpu(cost.disk_read * max(1, blocks_read))
        return recovery.delta_reply(src, p, "fs.scrub_digest", summary)

    def _round(self, gfs: int) -> Generator:
        """One classification pass; returns the number of mismatches found
        (each is also repaired or queued for repair)."""
        recovery = self.site.recovery
        expected = recovery.pack_sites_up(gfs)
        summaries = yield from recovery.inventories(gfs, op="fs.scrub_digest")
        # A believed-up pack holder that did not answer may be hiding
        # exactly the divergence the scrub exists to find: the round is
        # incomplete, not converged, so keep the sweep alive.
        shortfall = len(expected) - len(summaries)
        if shortfall:
            self.stats.partial_rounds += 1
        if len(summaries) < 2:
            return shortfall if len(expected) >= 2 else 0
        all_inos: Set[int] = set()
        for summ in summaries.values():
            all_inos |= set(summ)
        mismatches = shortfall
        for ino in sorted(all_inos):
            gfile: Gfile = (gfs, ino)
            live = recovery.copies_of(summaries, ino, live=True)
            if not live:
                continue
            if all(a["conflict"] for __, a in live):
                continue   # awaiting user resolution (section 4.6)
            __, best_vv, conflict = latest(
                (s, a["version"]) for s, a in live)
            if best_vv.total() == 0:
                continue   # never-committed placeholders, nothing to spread
            if conflict:
                # Concurrent lineages: the merge machinery, not a pull.
                mismatches += 1
                self.stats.reconciles += 1
                self._flag("reconcile", gfile)
                recovery.request(gfile)
                continue
            win_attrs = next(a for __, a in live if a["version"] == best_vv)
            behind = {s for s, a in live if a["version"] != best_vv}
            missing = (set(win_attrs["storage_sites"]) & set(summaries)) \
                - {s for s, __ in live}
            if behind or missing:
                # A dominated copy (its update notify was lost) or an
                # advertised replica holding no data: recovery's per-file
                # reconcile propagates the best version to both.
                mismatches += 1
                self.stats.reconciles += 1
                self._flag("reconcile", gfile)
                recovery.request(gfile)
                continue
            if len({summaries[s][ino]["digest"] for s, __ in live}) > 1:
                # Equal version vectors, different bytes: the version
                # system itself was subverted (e.g. a torn install), so no
                # copy can be trusted as "the" best.
                mismatches += 1
                self.stats.digest_skews += 1
                self._flag("digest_skew", gfile)
                if win_attrs["ftype"] in _DIR_TYPES:
                    self.stats.dir_remerges += 1
                    try:
                        yield from recovery.merge_directory(
                            gfile, live, summaries, force=True)
                    except (NetworkError, FsError):
                        pass
                else:
                    yield from recovery.mark_conflict(gfile, live)
                continue
            for s, a in live:
                if s not in win_attrs["storage_sites"]:
                    # Misplaced: the pack stores data the inode no longer
                    # advertises there (a replica drop whose notify was
                    # lost).  The normal notify path returns "already
                    # current" on an equal version, so the retire is
                    # requested explicitly.
                    mismatches += 1
                    self.stats.placement_repairs += 1
                    self._flag("placement", gfile)
                    yield from self.site.oneway_quiet(s, "fs.notify", {
                        "gfile": gfile, "attrs": win_attrs, "pages": None,
                        "origin": self.sid, "_scrub_placement": True})
        mismatches += yield from self._scrub_dangling(gfs, summaries)
        return mismatches

    def _scrub_dangling(self, gfs: int,
                        summaries: Dict[int, Dict[int, dict]]) -> Generator:
        """Remove live directory entries naming an inode no pack holds live
        data for — the classic fsck scrub, run under the directory write
        lock so it serializes with any in-flight modification."""
        fs, recovery = self.site.fs, self.site.recovery
        if not set(fs.mount.pack_sites(gfs)) <= set(summaries):
            # A pack is unreachable: its copies could be the referent.
            return 0
        live: Set[int] = set()
        for summ in summaries.values():
            live |= {ino for ino, e in summ.items()
                     if e["has_data"] and not e["attrs"]["deleted"]}
        removed = 0
        for ino in sorted(live):
            copies = recovery.copies_of(summaries, ino, live=True)
            attrs0 = copies[0][1]
            if attrs0["ftype"] not in _DIR_TYPES:
                continue
            if any(a["conflict"] or a["version"] != attrs0["version"]
                   for __, a in copies):
                continue   # divergent copies go through reconcile first
            try:
                data = yield from recovery.read_copy(
                    copies[0][0], (gfs, ino), attrs0)
                entries = decode_snapshot(data).entries
            except (NetworkError, FsError, ValueError):
                continue
            for entry in entries:
                if entry.deleted or entry.name in (".", ".."):
                    continue
                if entry.ino in live:
                    continue
                try:
                    yield from fs._dir_modify(
                        (gfs, ino),
                        lambda view, n=entry.name: view.entries.remove(
                            next(e for e in view.entries
                                 if e.name == n and not e.deleted)))
                except (NetworkError, FsError, StopIteration):
                    continue
                removed += 1
                self.stats.dangling_removed += 1
                self._flag("dangling", (gfs, entry.ino))
        return removed
