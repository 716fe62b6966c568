"""The recovery orchestrator: filegroup sweeps, per-type merges, conflict
marking, owner notification, and demand recovery (section 4).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.errors import EBUSY, EEXIST, ESTALE, FsError, NetworkError
from repro.fs.directory import (decode_entries, decode_snapshot,
                                encode_entries)
from repro.fs.types import Gfile, Mode
from repro.obs.tracer import traced_pass
from repro.recovery.dir_merge import merge_directories
from repro.recovery.mailbox import (MailMessage, decode_mailbox,
                                    encode_mailbox, merge_mailboxes)
from repro.sim.future import Future
from repro.sim.sync import SimQueue
from repro.sim.task import Task
from repro.storage.inode import DiskInode, FileType, InodeAttrs
from repro.storage.shadow import ShadowFile
from repro.storage.version_vector import VersionVector, latest


# How many of its latest inventory replies a pack site remembers per
# requester, filegroup and call.  A requester's base stays usable across
# this many replies lost or overtaken since it last rebuilt one.
INVENTORY_MEMOS = 4

# The ``base`` of a reply answered against the table the request
# proposed in ``have`` (never a token: those start at 1).
SEEDED = 0

# How many times one file's reconcile is deferred, 30 vt more apart each
# time, before it is left as it stands (``retries_exhausted``).
RETRY_BUDGET = 10

# The reconcile-queue item that sweeps the whole filegroup; every other
# item is an inode whose deferred reconcile came due.
SWEEP = None


# An inventory entry is ``{"attrs": InodeAttrs, **extras}``; its extra
# fields, by call.
_EXTRAS = {"fs.pack_inventory": ("has_data",),
           "fs.scrub_digest": ("has_data", "digest")}
_ATTR_FIELDS = tuple(DiskInode(ino=0).attrs())
_SITES = _ATTR_FIELDS.index("storage_sites")
# A compact record's field names, by call, in record order.
_FIELDS = {op: _ATTR_FIELDS + extras for op, extras in _EXTRAS.items()}


def _compact(entry: dict) -> tuple:
    """An inventory entry as one comparable tuple of its field values:
    what both ends remember of a reply, instead of the entry dicts."""
    values = list(entry["attrs"].values())
    values[_SITES] = tuple(values[_SITES])
    return tuple(values) + tuple(entry.values())[1:]


def _fingerprint(record: tuple) -> int:
    """A compact record as a deterministic 64-bit digest (never the
    salted ``hash()``: requester and pack must agree on it)."""
    return int.from_bytes(hashlib.blake2b(repr(record).encode(),
                                          digest_size=8).digest(), "big")


def _placed(record: tuple, site: int) -> tuple:
    """``record``, taken from another pack, as ``site``'s pack would
    likely hold it: data where the inode places a copy, and the scrub
    digest only where both packs hold data."""
    n = len(_ATTR_FIELDS)
    has_data = site in record[_SITES]
    extras = (has_data,)
    if len(record) > n + 1:
        extras += (record[n + 1] if has_data and record[n] else None,)
    return record[:n] + extras


def _expand(record: tuple, op: str) -> dict:
    """The inventory entry ``record`` was compacted from."""
    attrs = InodeAttrs(zip(_ATTR_FIELDS, record))
    attrs["storage_sites"] = list(record[_SITES])
    entry = {"attrs": attrs}
    entry.update(zip(_EXTRAS[op], record[len(_ATTR_FIELDS):]))
    return entry


def _patch(old: tuple, new: tuple, op: str) -> dict:
    """The fields of compact record ``new`` that differ from ``old``, as
    ``{field: value}``."""
    return {name: value for name, value, was in zip(_FIELDS[op], new, old)
            if value != was}


def _patched(record: tuple, patch: dict, op: str) -> tuple:
    """``record`` with ``patch``'s fields set."""
    fields = _FIELDS[op]
    values = list(record)
    for name, value in patch.items():
        values[fields.index(name)] = value
    return tuple(values)


def _merge_mail(copies) -> bytes:
    """The built-in merge manager: mailboxes merge by section 4.5's rule."""
    return encode_mailbox(merge_mailboxes(
        [decode_mailbox(data) for __, __, data in copies]))


def _same_entries(a, b) -> bool:
    """Entry-set equality, order-independent (merge output is sorted,
    on-disk copies are not)."""
    key = lambda e: (e.name, e.ino, e.ftype, e.deleted,
                     None if e.dvv is None else tuple(sorted(
                         e.dvv.to_dict().items())))
    return sorted(map(key, a)) == sorted(map(key, b))


@dataclass
class RecoveryStats:
    files_examined: int = 0
    propagations_scheduled: int = 0
    dir_merges: int = 0
    type_manager_merges: int = 0
    conflicts_marked: int = 0
    name_conflicts: int = 0
    nlink_repairs: int = 0
    retries_scheduled: int = 0
    retries_exhausted: int = 0
    # Inventory replies this site served as a pack, by kind.
    inventories_full: int = 0
    inventories_seeded: int = 0
    inventories_delta: int = 0


@dataclass
class _ReconcileQueue:
    """One filegroup's reconcile queue (docs/PROTOCOLS.md, "Recovery
    scheduling"): ``queue`` holds SWEEP and the inodes whose retries came
    due, for the one ``task`` that drains it."""
    queue: Optional[SimQueue]
    task: Optional[Task] = None
    # ino -> attempt, from the file's mark until its reconcile starts.
    dirty: Dict[int, int] = field(default_factory=dict)
    # ino -> completion future of a demand reconciling it now: ``needs``
    # stays true, so a writer open racing the merge is still refused.
    demands: Dict[int, Future] = field(default_factory=dict)
    # The running batch's inventories, which a demand reconciles from.
    snapshot: Optional[Dict[int, dict]] = None


_IDLE = _ReconcileQueue(None)   # what a filegroup never marked reads as


class RecoveryManager:
    """Runs at the CSS of each filegroup after a merge (section 5.3: "the
    recovery procedure runs as a privileged application program")."""

    def __init__(self, site):
        self.site = site
        self.stats = RecoveryStats()
        # gfs -> its reconcile queue (demand recovery pulls individual
        # files forward in it, section 4.4).
        self._queues: Dict[int, _ReconcileQueue] = {}
        # Registered higher-level recovery/merge managers by file type
        # (section 4.3): ftype -> callable(copies) -> merged bytes or None.
        self.merge_managers: Dict[FileType, Callable] = {
            FileType.MAILBOX: _merge_mail}
        self._mail_seq = itertools.count(1)
        # Delta inventories.  As requester: (pack site, gfs, op) -> the
        # token and the compact records of the last reply rebuilt.  As
        # pack site: (requester, gfs, op) -> token -> compact records of
        # the last INVENTORY_MEMOS replies, oldest first.
        self._held: Dict[Tuple[int, int, str],
                         Tuple[int, Dict[int, tuple]]] = {}
        self._memos: Dict[Tuple[int, int, str],
                          Dict[int, Dict[int, tuple]]] = {}
        # Never reset, crash included (like the RPC stamp counter): a
        # token issued before a restart can never match a memo made after.
        self._tokens = itertools.count(1)
        # The pack-site half of the protocol (see "Pack-site service").
        reg = site.register_handler
        reg("fs.pack_inventory", self.h_pack_inventory)
        reg("fs.install_merged", self.h_install_merged)
        reg("fs.mark_conflict", self.h_mark_conflict)
        reg("fs.patch_nlink", self.h_patch_nlink)

    @property
    def sid(self) -> int:
        return self.site.site_id

    def reset_volatile(self) -> None:
        # The drains died with the site; a timer of a deferral made before
        # the crash finds its file no longer dirty in the new queue.
        self._queues.clear()
        self._held.clear()
        self._memos.clear()

    def on_restart(self) -> None:
        pass

    def register_merge_manager(self, ftype: FileType, fn: Callable) -> None:
        """Install a per-type recovery/merge manager (e.g. for DATABASE
        files); ``fn(copies)`` gets ``[(site, attrs, content_bytes)]`` and
        returns merged bytes, or None to fall back to conflict marking."""
        self.merge_managers[ftype] = fn

    # ------------------------------------------------------------------
    # Recovery scheduling: one reconcile queue per filegroup
    # ------------------------------------------------------------------

    def _queue(self, gfs: int) -> _ReconcileQueue:
        """``gfs``'s queue.  Every mark passes here, and spawns the drain
        again if it died (a torn read), as ``Propagator.start`` does."""
        q = self._queues.get(gfs)
        if q is None:
            q = self._queues[gfs] = _ReconcileQueue(
                SimQueue(self.site.sim, f"recovery@{self.sid}:fg{gfs}"))
        if q.task is None or q.task.finished:
            q.task = self.site.spawn(self._drain(gfs, q),
                                     f"recovery:fg{gfs}@{self.sid}")
            q.task.span_ctx = None   # it roots its own traces
        return q

    def _put(self, gfs: int, item) -> None:
        self._queue(gfs).queue.put(item)

    def schedule_filegroup(self, gfs: int) -> None:
        """Queue a sweep: every inode the next inventory lists is marked
        and reconciled."""
        self._put(gfs, SWEEP)

    def needs(self, gfile: Gfile) -> bool:
        q = self._queues.get(gfile[0], _IDLE)
        return gfile[1] in q.dirty or gfile[1] in q.demands

    def busy(self, gfs: int) -> bool:
        """Reconciles of ``gfs`` are still queued, or a demand
        reconciliation of one of its files is running."""
        q = self._queues.get(gfs, _IDLE)
        return bool(q.dirty or q.demands)

    def backlog(self) -> int:
        """Files queued for a reconcile, over every filegroup."""
        return sum(len(q.dirty) for q in self._queues.values())

    def demand(self, gfile: Gfile) -> Generator:
        """Demand recovery: reconcile one file out of order so regular
        traffic sees only a small delay (section 4.4)."""
        gfs, ino = gfile
        q = self._queues.get(gfs, _IDLE)
        inflight = q.demands.get(ino)
        if inflight is not None:
            # Another access is already reconciling this file; running a
            # second merge concurrently would race the first's install.
            yield inflight
            return None
        entry = self.site.fs.css_entries.get(gfile)
        if ino not in q.dirty or q.snapshot is None or (
                entry is not None and entry.writer is not None):
            # Not queued; or no batch running, so no snapshot to reconcile
            # against; or held by a writer, which would only defer it
            # again (section 5.6).  A queued file stays for the drain.
            return None
        # The delayed access's span shows why it waited.
        tracer = self.site.tracer
        tracer.event(tracer.current_ctx(), "demand_recovery",
                     {"gfile": list(gfile)})
        attempt = q.dirty.pop(ino)
        done = self.site.sim.create_future(f"demand:{gfile}")
        q.demands[ino] = done
        try:
            yield from self._reconcile_ino(gfs, ino, q.snapshot, attempt)
        except (NetworkError, FsError):
            self._defer(gfs, ino, attempt + 1)
        finally:
            q.demands.pop(ino, None)
            done.resolve(None)
        return None

    def demand_soon(self, gfile: Gfile) -> None:
        """``demand`` without blocking: a writer refused EWOULDCONFLICT
        retries to find the file reconciled, not waiting for the drain,
        which may be that writer (a conflict's mail to a queued mailbox)."""
        q = self._queues.get(gfile[0], _IDLE)
        if q.snapshot is not None and gfile[1] in q.dirty:
            self.site.spawn(self.demand(gfile),
                            name=f"demand:{gfile}@{self.sid}")

    def request(self, gfile: Gfile, attempt: int = 0) -> None:
        """Queue one file's reconcile as the retry after ``attempt``."""
        self._defer(gfile[0], gfile[1], attempt + 1)

    def _defer(self, gfs: int, ino: int, attempt: int) -> bool:
        """The one retry rule: mark the file and queue its reconcile
        ``30 * attempt`` vt from now, unless it is marked already; past the
        retry budget, leave it as it stands.  Returns whether it is
        queued."""
        q = self._queue(gfs)
        if ino in q.dirty:
            return True
        if attempt > RETRY_BUDGET:
            # Counted and on the timeline: a file left as it stood shows.
            self.stats.retries_exhausted += 1
            self.site.tracer.instant("recovery.retry_exhausted", self.sid,
                                     {"gfile": [gfs, ino]})
            return False
        self.stats.retries_scheduled += 1
        q.dirty[ino] = attempt
        self.site.sim.schedule(30.0 * attempt, self._put, gfs, ino)
        return True

    def _drain(self, gfs: int, q: _ReconcileQueue) -> Generator:
        """The filegroup's one reconcile task: serve what was queued since
        its last batch, a sweep's batch inside its recovery pass."""
        while True:
            batch = [(yield from q.queue.get())] + q.queue.drain()
            serve = self._serve(gfs, q, batch)
            if SWEEP in batch:
                serve = traced_pass(
                    self.site, "recovery", gfs, serve,
                    lambda: {"files_examined": self.stats.files_examined})
            yield from serve

    def _serve(self, gfs: int, q: _ReconcileQueue, batch: list) -> Generator:
        """One batch: probe each due retry's writer, reconcile the rest
        (and, for a sweep, every inventoried inode) from one inventory in
        inode order, then recount the filegroup's links after a sweep or
        once no file is left queued."""
        todo = []
        for ino in sorted({item for item in batch if item is not SWEEP}):
            attempt = q.dirty.get(ino)
            if attempt is None:
                continue   # reconciled since it was queued
            # A file its registered writer still holds would only be
            # deferred again (section 5.6): ask that writer's US first,
            # and drop a token it does not hold.
            if attempt < RETRY_BUDGET and (
                    yield from self.site.fs.validate_css_writer((gfs, ino))):
                if q.dirty.pop(ino, None) is not None:
                    self._defer(gfs, ino, attempt + 1)
            else:
                todo.append(ino)
        if SWEEP not in batch and not todo:
            return None
        inventories = yield from self.inventories(gfs)
        if SWEEP in batch:   # every file's budget starts afresh
            todo = sorted(set(todo).union(*inventories.values()))
            q.dirty.update(dict.fromkeys(todo, 0))
        q.snapshot = inventories
        highest = 0
        unserved = iter(todo)
        try:
            for ino in unserved:
                attempt = q.dirty.pop(ino, None)
                if attempt is None:
                    continue   # a demand reconciled it out of order
                highest = max(highest, attempt)
                try:
                    yield from self._reconcile_ino(gfs, ino, inventories,
                                                   attempt)
                except (NetworkError, FsError):
                    # A site vanished, or an install write failed (EIO)
                    # while the winner was being put in place: retry from a
                    # fresh inventory rather than leave the replicas
                    # divergent until the next sweep.
                    self._defer(gfs, ino, attempt + 1)
        finally:
            q.snapshot = None
            # A batch its task died in leaves the files it did not reach
            # to the drain the next mark spawns.
            for ino in unserved:
                if ino in q.dirty:
                    q.queue.put(ino)
        # A deferred directory merge can resurrect entries after the last
        # recount ran; its refusals defer at the batch's highest attempt.
        if SWEEP in batch or not q.dirty:
            yield from self.repair_link_counts(gfs, highest)
        return None

    # ------------------------------------------------------------------
    # Inventories and the link census
    # ------------------------------------------------------------------

    def _members(self) -> Set[int]:
        """The sites in this site's partition view."""
        return self.site.topology.partition_set if self.site.topology \
            else set(self.site.net.site_ids)

    def pack_sites_up(self, gfs: int) -> List[int]:
        """The filegroup's pack sites inside this site's partition."""
        members = self._members()
        return [s for s in self.site.fs.mount.pack_sites(gfs) if s in members]

    def inventories(self, gfs: int, op: str = "fs.pack_inventory"
                    ) -> Generator:
        """Every in-partition pack site's per-inode state, by site: the
        ``fs.pack_inventory`` answer, or the scrub's ``fs.scrub_digest``
        superset of it.  Sites that fail to answer are skipped.

        Each request names, as ``base``, the last reply this site rebuilt
        from that pack; the pack answers with what changed since (see
        ``delta_reply``), and the complete map is rebuilt here.  With no
        such reply, the request proposes in ``have`` the table ``_seed``
        predicts from another pack's."""
        inventories: Dict[int, dict] = {}
        for s in self.pack_sites_up(gfs):
            key = (s, gfs, op)
            request = {"gfs": gfs, "base": None}
            if key in self._held:
                request["base"], held = self._held[key]
            else:
                held = self._seed(s, gfs, op)
                if held:
                    request["have"] = {ino: _fingerprint(record)
                                       for ino, record in held.items()}
            try:
                reply = yield from self.site.rpc(s, op, request,
                                                 timeout=self.site.backstop)
            except (NetworkError, FsError):
                continue
            inventories[s] = self._rebuild(key, held, reply)
        return inventories

    def _seed(self, site: int, gfs: int, op: str) -> Dict[int, tuple]:
        """The records held from another pack of ``gfs`` for ``op`` (this
        site's own pack first), each as ``site``'s pack would likely hold
        it; empty when there are none."""
        source = next((key for key in ((self.sid, gfs, op), *self._held)
                       if key in self._held and key[1:] == (gfs, op)
                       and key[0] != site), None)
        if source is None:
            return {}
        return {ino: _placed(record, site)
                for ino, record in self._held[source][1].items()}

    def _rebuild(self, key: Tuple[int, int, str], held: Dict[int, tuple],
                 reply: dict) -> Dict[int, dict]:
        """The complete map a reply stands for (``held`` is the records
        its request named as base, or proposed as ``have``), remembered
        as the next base."""
        op = key[2]
        records = dict(held) if reply["base"] is not None else {}
        changed = reply["changed"]
        for ino, entry in changed.items():
            records[ino] = _compact(entry)
        for ino, patch in reply["patched"].items():
            records[ino] = _patched(records[ino], patch, op)
        for ino in reply["gone"]:
            del records[ino]
        self._held[key] = (reply["token"], records)
        return {ino: changed[ino] if ino in changed
                else _expand(record, op)
                for ino, record in records.items()}

    @staticmethod
    def copies_of(inventories: Dict[int, dict], ino: int,
                  live: bool = False) -> List[Tuple[int, dict]]:
        """The ``(site, attrs)`` copies of ``ino`` that hold data, in
        inventory order; with ``live`` only the undeleted ones."""
        return [(s, inv[ino]["attrs"]) for s, inv in inventories.items()
                if ino in inv and inv[ino]["has_data"]
                and not (live and inv[ino]["attrs"]["deleted"])]

    def _link_census(self, gfs: int) -> Generator:
        """Count live directory references per inode across the filegroup.

        Returns ``(best, refs, copies)`` where ``copies`` maps each live
        inode to its live ``(site, attrs)`` holders, ``best`` maps each of
        them but the version-conflicted regular files to its latest copy,
        and ``refs`` maps inode to the number of live entries naming it —
        or None when any directory is unreadable or its copies are in
        version conflict (a partial census could shrink a correct nlink).
        """
        inventories = yield from self.inventories(gfs)
        if not inventories:
            return None
        best: Dict[int, Tuple[int, dict]] = {}
        copies: Dict[int, List[Tuple[int, dict]]] = {}
        for ino in set().union(*inventories.values()):
            live = self.copies_of(inventories, ino, live=True)
            if not live:
                continue
            copies[ino] = live
            __, best_vv, conflict = latest(
                (s, a["version"]) for s, a in live)
            if conflict or any(a["conflict"] for __, a in live):
                if live[0][1]["ftype"] in (FileType.DIRECTORY,
                                           FileType.HIDDEN_DIR):
                    return None
                continue
            best[ino] = next((s, a) for s, a in live
                             if a["version"] == best_vv)
        refs: Dict[int, int] = {}
        for ino, (s, attrs) in sorted(best.items()):
            if attrs["ftype"] not in (FileType.DIRECTORY,
                                      FileType.HIDDEN_DIR):
                continue
            try:
                data = yield from self.read_copy(s, (gfs, ino), attrs)
                entries = decode_snapshot(data).entries
            except (NetworkError, FsError):
                return None
            for entry in entries:
                if entry.deleted or entry.name in (".", ".."):
                    continue
                refs[entry.ino] = refs.get(entry.ino, 0) + 1
        return best, refs, copies

    def repair_link_counts(self, gfs: int, attempt: int = 0) -> Generator:
        """Post-sweep nlink repair.

        Directory merges union inserts and undo deletes (section 4.4
        rules a/d), which changes how many live names reference a file
        without ever opening its inode; a link/unlink that committed the
        entry but lost the count update in a partition leaves the same
        skew.  Recount live references from the reconciled directories
        and fix any regular file whose nlink disagrees — what ``fsck
        -y`` would do, run as part of the merge procedure.

        The fix is an in-place patch, conditional on a version vector
        (``h_patch_nlink``): the census copy's, at every pack site in the
        partition, or for a conflicted file each holder's own.  Until
        every holder has applied it, copies at one version vector can
        disagree on the count, so each site is judged by the count its
        own copy reported (a site that reported none, by the census
        copy's).  A refusal or a lost reply defers the file
        at ``attempt + 1`` on the retry schedule, whose recount runs once
        the writer is gone; past the retry budget the scrub recounts.
        """
        census = yield from self._link_census(gfs)
        if census is None:
            return None
        best, refs, copies = census
        # A conflicted file's live names are still real: directory merges
        # union inserts and undo deletes regardless of its own conflict.
        patches = {ino: [(site, best[ino][1])
                         for site in self.pack_sites_up(gfs)]
                   if ino in best else live
                   for ino, live in copies.items()}
        for ino in sorted(patches):
            n = refs.get(ino, 0)
            own = dict(copies[ino])
            holders = [(s, a) for s, a in patches[ino]
                       if own.get(s, a)["nlink"] != n]
            if n == 0 or not holders or any(a["ftype"] is not FileType.REGULAR
                                            for __, a in patches[ino]):
                continue  # orphans are fsck's report, not a repair target
            applied = refused = False
            for site, attrs in holders:
                try:
                    ok = yield from self.site.rpc(
                        site, "fs.patch_nlink",
                        {"gfile": (gfs, ino), "nlink": n,
                         "version": attrs["version"]},
                        timeout=self.site.backstop)
                except (NetworkError, FsError):
                    ok = False
                applied = applied or ok
                refused = refused or not ok
            if applied:
                self.stats.nlink_repairs += 1
            if refused:
                self.request((gfs, ino), attempt)
        return None

    # ------------------------------------------------------------------
    # Per-file reconciliation
    # ------------------------------------------------------------------

    def _reconcile_ino(self, gfs: int, ino: int,
                       inventories: Dict[int, dict],
                       attempt: int = 0) -> Generator:
        self.stats.files_examined += 1
        gfile: Gfile = (gfs, ino)
        entry = self.site.fs.css_entries.get(gfile)
        if entry is not None and entry.writer is not None \
                and self._defer(gfs, ino, attempt + 1):
            # An operation in progress: "the desired action is to permit
            # these operations to continue to completion, and only then
            # perform file system conflict analysis" (section 5.6).
            return None
        holders = self.copies_of(inventories, ino)
        if not holders:
            return None
        __, best_vv, conflict = latest(
            (s, attrs["version"]) for s, attrs in holders)
        all_equal = all(a["version"] == best_vv for __, a in holders)
        live = [(s, a) for s, a in holders if not a["deleted"]]
        dead = [(s, a) for s, a in holders if a["deleted"]]
        ftype = holders[0][1]["ftype"]
        if conflict and dead and live:
            # "A file which was deleted in one partition while it was
            # modified in another, wants to be saved": undo the delete.
            yield from self._install_winner(gfile, live, holders,
                                            content=None)
            return None
        if ftype in (FileType.DIRECTORY, FileType.HIDDEN_DIR) \
                and not all_equal and live:
            # Directories always go through the merge rules: even a
            # strictly-newer copy's tombstones must be checked against
            # "modified since the delete" (section 4.4 rule b/d).
            yield from self.merge_directory(gfile, live, inventories)
            return None
        if not conflict:
            yield from self._propagate_best(gfile, holders, best_vv,
                                            inventories)
            return None
        # Mutually inconsistent copies: dispatch by type (section 4.3).
        merge = self.merge_managers.get(ftype)
        merged = None
        if merge is not None:
            holders = live or holders
            copies = []
            for s, attrs in holders:
                data = yield from self.read_copy(s, gfile, attrs)
                copies.append((s, attrs, data))
            merged = merge(copies)
        if merged is None:
            yield from self.mark_conflict(gfile, holders)
            return None
        self.stats.type_manager_merges += 1
        yield from self._install_winner(gfile, holders, holders,
                                        content=merged)
        return None

    def _propagate_best(self, gfile: Gfile, holders: List[Tuple[int, dict]],
                        best_vv: VersionVector,
                        inventories: Dict[int, dict]) -> Generator:
        """Push the best copy among ``holders`` to the storage sites that
        lack it: the holders behind it, and the advertised storage sites
        holding no data (e.g. replicas of a file created while they were
        in the other partition) that answered ``inventories`` or lie
        outside this site's partition, where no inventory reaches.  An
        in-partition pack that did not answer gets no push: if it joined
        since, its merge sweeps it; if its reply was lost, the scrub's
        round is partial and runs again."""
        winners = [(s, a) for s, a in holders if a["version"] == best_vv]
        if not winners:
            return None
        win_site, win_attrs = winners[0]
        current = {s for s, a in holders if a["version"] == best_vv}
        behind = {s for s, __ in holders} - current
        if not win_attrs["deleted"]:
            members = self._members()
            behind |= {s for s in win_attrs["storage_sites"]
                       if s in inventories or s not in members} - current
        if not behind:
            return None
        self.stats.propagations_scheduled += len(behind)
        self.site.tracer.instant("repair.propagate", site=self.site.site_id,
                                 attrs={"gfile": list(gfile)})
        # _recovery marks a sweep-driven notify (header-riding, zero wire
        # size): a receiver whose copy strictly supersedes win_attrs
        # answers with its own attributes instead of silently dropping the
        # stale push, so a commit that raced the inventory snapshot still
        # converges (FsManager.h_notify hands the answer to ``request``).
        payload = {"gfile": gfile, "attrs": win_attrs, "pages": None,
                   "origin": win_site, "_recovery": True}
        for s in sorted(behind):
            yield from self.site.oneway_quiet(s, "fs.notify", payload)
        return None

    # ------------------------------------------------------------------
    # Reading raw copies (bypassing CSS and conflict checks)
    # ------------------------------------------------------------------

    def read_copy(self, source: int, gfile: Gfile,
                  attrs: dict) -> Generator:
        psz = self.site.cost.page_size
        n_pages = (attrs["size"] + psz - 1) // psz
        chunks = []
        for page in range(n_pages):
            data = yield from self.site.rpc(source, "fs.pull_read", {
                "gfile": gfile, "page": page,
            }, timeout=self.site.backstop)
            chunks.append(data.ljust(psz, b"\x00"))
        return b"".join(chunks)[:attrs["size"]]

    # ------------------------------------------------------------------
    # Type-specific merges
    # ------------------------------------------------------------------

    def merge_directory(self, gfile: Gfile,
                        holders: List[Tuple[int, dict]],
                        inventories: Dict[int, dict],
                        force: bool = False) -> Generator:
        copies = []
        owners = {}
        for s, attrs in holders:
            for attempt in range(3):
                data = yield from self.read_copy(s, gfile, attrs)
                try:
                    entries = decode_entries(data)
                    break
                except ValueError:
                    # Torn read: a live writer committed between the
                    # inventory snapshot and the page pulls, so the
                    # snapshot size sliced mid-record.  Re-fetch the
                    # inode and read again.
                    yield 5.0 * (attempt + 1)
                    try:
                        attrs = yield from self.site.rpc(
                            s, "fs.fetch_attrs", {"gfile": gfile},
                            timeout=self.site.backstop)
                    except (NetworkError, FsError):
                        pass
            else:
                # Never stabilized: surface as transient so the caller
                # (a supervised open, or the deferred-retry sweep)
                # reschedules the whole reconcile instead of merging
                # from garbage.
                raise NetworkError(
                    f"directory copy of {gfile} at site {s} unstable")
            copies.append(entries)
            owners[s] = attrs["owner"]

        def file_version(ino: int) -> Optional[VersionVector]:
            vvs = [a["version"]
                   for __, a in self.copies_of(inventories, ino, live=True)]
            if not vvs:
                return None
            out = vvs[0]
            for vv in vvs[1:]:
                out = out.merge(vv)
            return out

        def deleted_at(ino: int) -> Optional[VersionVector]:
            records = [inv[ino]["attrs"] for inv in inventories.values()
                       if ino in inv]
            for dead in records:
                if dead["deleted"] and all(
                        dead["version"].dominates(a["version"])
                        for a in records):
                    return dead["version"]
            return None

        merged, report = merge_directories(copies, file_version, deleted_at)
        self.stats.dir_merges += 1
        self.stats.name_conflicts += len(report.name_conflicts)
        # When one copy dominates and the merge changed nothing relative to
        # it (no rule-d resurrection, no name aliasing), installing would
        # only mint a gratuitous new lineage — one that races any writer
        # already in flight against the dominant copy.  Propagate instead.
        # ``force`` (the scrub's equal-vv digest-skew repair) skips the
        # shortcut: the copies' bytes differ even though their vectors
        # agree, so only a fresh dominating install re-unifies them.
        __, best_vv, conflict = latest(
            (s, a["version"]) for s, a in holders)
        if not conflict and not force:
            for (s, attrs), entries in zip(holders, copies):
                if attrs["version"] != best_vv:
                    continue
                if _same_entries(merged, entries):
                    yield from self._propagate_best(gfile, holders, best_vv,
                                                    inventories)
                    return None
                break
        yield from self._install_winner(gfile, holders, holders,
                                        content=encode_entries(merged))
        for name, ino_a, ino_b in report.name_conflicts:
            for ino in (ino_a, ino_b):
                owner = next((inv[ino]["attrs"]["owner"]
                              for inv in inventories.values() if ino in inv),
                             "root")
                yield from self.send_mail(
                    owner, subject=f"name conflict on {name!r}",
                    body=(f"Directory merge found {name!r} bound to two "
                          f"different files; yours is now "
                          f"{name}@{ino}."))
        return None

    # ------------------------------------------------------------------
    # Installing merge results
    # ------------------------------------------------------------------

    def _install_winner(self, gfile: Gfile,
                        winners: List[Tuple[int, dict]],
                        all_holders: List[Tuple[int, dict]],
                        content: Optional[bytes]) -> Generator:
        """Write the reconciled version at one site with a vector that
        dominates every copy; normal propagation distributes it."""
        merged_vv = VersionVector()
        for __, attrs in all_holders:
            merged_vv = merged_vv.merge(attrs["version"])
        target_site, target_attrs = winners[0]
        if content is None:
            content = yield from self.read_copy(target_site, gfile,
                                                target_attrs)
        yield from self.site.rpc(target_site, "fs.install_merged", {
            "gfile": gfile,
            "data": content,
            "base_vv": merged_vv,
            "ftype": target_attrs["ftype"],
            "owner": target_attrs["owner"],
            "perms": target_attrs["perms"],
            "nlink": max(1, target_attrs["nlink"]),
            "storage_sites": sorted(
                set(itertools.chain.from_iterable(
                    a["storage_sites"] for __, a in all_holders))),
        })
        return None

    # ------------------------------------------------------------------
    # Untyped conflicts (section 4.6)
    # ------------------------------------------------------------------

    def mark_conflict(self, gfile: Gfile,
                      holders: List[Tuple[int, dict]]) -> Generator:
        self.stats.conflicts_marked += 1
        self.site.tracer.instant("repair.mark_conflict",
                                 site=self.site.site_id,
                                 attrs={"gfile": list(gfile)})
        for s, __ in holders:
            yield from self.site.oneway_quiet(s, "fs.mark_conflict",
                                              {"gfile": gfile})
        owner = holders[0][1]["owner"]
        yield from self.send_mail(
            owner, subject=f"update conflict on file {gfile}",
            body=("The file was updated independently in different "
                  "partitions.  Normal access attempts will fail; use "
                  "split_conflict or resolve_conflict to reconcile."))
        return None

    def resolve_conflict(self, gfile: Gfile, keep_site: int) -> Generator:
        """User tool: declare one site's copy the winner."""
        inventories = yield from self.inventories(gfile[0])
        holders = self.copies_of(inventories, gfile[1])
        winner = [(s, a) for s, a in holders if s == keep_site]
        if not winner:
            raise FsError(f"site {keep_site} stores no copy of {gfile}")
        yield from self._install_winner(gfile, winner, holders, content=None)
        return None

    def split_conflict(self, proc, path: str) -> Generator:
        """User tool (section 4.6): rename each version of a conflicted file
        into a separate normal file; returns the new names."""
        fs = self.site.fs
        gfile, __ = yield from fs.resolve_gfile(proc, path)
        parent, name, __ = yield from fs.walk(proc, path,
                                              follow_leaf_hidden=False)
        inventories = yield from self.inventories(gfile[0])
        seen_versions = {}
        for s, attrs in self.copies_of(inventories, gfile[1]):
            seen_versions.setdefault(attrs["version"], (s, attrs))
        new_names = []
        for vv, (s, attrs) in seen_versions.items():
            data = yield from self.read_copy(s, gfile, attrs)
            new_name = f"{path}@site{s}"
            fd_gfile, __ = yield from fs.create_file(proc, new_name,
                                                     exclusive=True)
            handle = yield from fs.open_gfile(fd_gfile, Mode.WRITE)
            try:
                if data:
                    yield from fs.write(handle, 0, data)
            finally:
                yield from fs.close(handle)
            new_names.append(new_name)
        # Remove the conflicted original.
        yield from fs.unlink(proc, path)
        return new_names

    # ------------------------------------------------------------------
    # Pack-site service: what each pack holder answers to the calls above
    # ------------------------------------------------------------------

    def h_pack_inventory(self, src: int, p: dict) -> Generator:
        pack = self.site.fs.local_pack(p["gfs"])
        if pack is None:
            return self.delta_reply(src, p, "fs.pack_inventory", {})
        yield from self.site.cpu(self.site.cost.disk_read)
        return self.delta_reply(src, p, "fs.pack_inventory",
                                pack.inventory())

    def delta_reply(self, src: int, p: dict, op: str,
                    table: Dict[int, dict]) -> dict:
        """Answer an inventory call (``op``) from ``src`` with ``table``,
        this pack's complete ``{ino: entry}`` map, as a delta.

        A ``base`` token naming one of the last replies remembered for
        ``src`` gets ``{base, token, changed, patched, gone}``: an inode
        in that reply whose record differs goes in ``patched`` as only
        the fields that differ, ``{ino: {field: value}}``; a new inode
        goes whole in ``changed``; ``gone`` lists the inodes removed
        since.  Any other base with a ``have`` of ``{ino: fingerprint}``
        gets whole entries against that proposed table, with base SEEDED
        (a fingerprint names no fields); with neither, the whole table
        comes back as ``changed``, with base None.  Either way the reply
        is remembered under its fresh token."""
        memos = self._memos.setdefault((src, p["gfs"], op), {})
        old = memos.get(p.get("base"))
        records = {ino: _compact(entry) for ino, entry in table.items()}
        have = p.get("have")
        patched = {}
        if old is None and have is None:
            self.stats.inventories_full += 1
            base, changed, gone = None, table, []
        elif old is None:
            self.stats.inventories_seeded += 1
            base = SEEDED
            changed = {ino: table[ino] for ino, record in records.items()
                       if have.get(ino) != _fingerprint(record)}
            gone = [ino for ino in have if ino not in records]
        else:
            self.stats.inventories_delta += 1
            base, changed = p["base"], {}
            for ino, record in records.items():
                prior = old.get(ino)
                if prior is None:
                    changed[ino] = table[ino]
                elif prior == record:
                    records[ino] = prior   # share, do not duplicate
                else:
                    patched[ino] = _patch(prior, record, op)
            gone = [ino for ino in old if ino not in records]
        token = next(self._tokens)
        memos[token] = records
        if len(memos) > INVENTORY_MEMOS:
            del memos[next(iter(memos))]
        return {"base": base, "token": token, "changed": changed,
                "patched": patched, "gone": gone}

    def _check_merge_base(self, gfile: Gfile, inode, base_vv) -> None:
        """Refuse a merged install whose base snapshot went stale.

        Recovery computed ``base_vv`` from an inventory taken earlier; if
        this copy has committed past (or diverged from) that snapshot in
        the meantime, stamping the merge result with ``base_vv.bump()``
        would reuse a version vector another content already carries —
        equal vectors, different bytes, undetectable divergence.  The
        caller retries against a fresh inventory.
        """
        if inode is not None and not base_vv.dominates(inode.version):
            raise ESTALE(
                f"merge base for {gfile} is stale: local copy at "
                f"{inode.version}, merge snapshot covered {base_vv}")

    def h_install_merged(self, src: int, p: dict) -> Generator:
        """Install a reconciled file version (recovery's write path).

        The content arrives whole; it is committed under the merged version
        vector bumped at this site, so it dominates every divergent copy and
        normal propagation distributes it.
        """
        fs = self.site.fs
        gfile: Gfile = p["gfile"]
        if gfile in fs.ss:
            # A registration whose fs.close was lost would refuse every
            # merge of the file for good: drop those whose US no longer
            # holds the file, as the propagator does for its pulls.
            yield from fs.validate_ss_entry(gfile)
        pack = fs.local_pack(gfile[0])
        if pack is None:
            raise ESTALE(f"site {self.sid} holds no pack of fg {gfile[0]}")
        if gfile in fs.ss or fs.propagator.is_pulling(gfile):
            # A writer or a propagation pull is active right now; its
            # commit would interleave with ours.  Recovery retries with a
            # fresh inventory once the activity drains.
            raise EBUSY(f"merge install of {gfile} raced local activity")
        inode = pack.get_inode(gfile[1])
        self._check_merge_base(gfile, inode, p["base_vv"])
        if inode is None:
            pack.install_inode({
                "ino": gfile[1], "ftype": p["ftype"], "size": 0,
                "owner": p["owner"], "perms": p["perms"],
                "nlink": p["nlink"], "version": VersionVector(),
                "deleted": False, "storage_sites": p["storage_sites"],
                "conflict": False, "mtime": self.site.sim.now,
            }, has_data=True)
        shadow = ShadowFile(pack, gfile[1])
        shadow.truncate()
        data: bytes = p["data"]
        psz = self.site.cost.page_size
        for page in range((len(data) + psz - 1) // psz):
            shadow.write_page(page, data[page * psz:(page + 1) * psz])
            yield from self.site.cpu(self.site.cost.disk_write)
        shadow.set_attrs(size=len(data), ftype=p["ftype"], owner=p["owner"],
                         perms=p["perms"], nlink=p["nlink"],
                         storage_sites=list(p["storage_sites"]),
                         deleted=False, conflict=False, has_data=True)
        # Page writes yielded above: re-check in the same atomic step as
        # the commit that nothing moved the file while we staged, and that
        # no writer or pull began on it meanwhile: an SS shadow born during
        # the yields cloned the old blocks and would free them again.
        try:
            self._check_merge_base(gfile, pack.get_inode(gfile[1]),
                                   p["base_vv"])
            if gfile in fs.ss or fs.propagator.is_pulling(gfile) \
                    or shadow.base_moved():
                raise EBUSY(f"merge install of {gfile} raced local activity")
        except FsError:
            shadow.abort()
            raise
        merged_vv = p["base_vv"].bump(self.sid)
        shadow.commit(new_version=merged_vv, mtime=self.site.sim.now)
        # Same atomic step as the commit: a read during the inode write
        # below must not find pages cached from the copy just replaced.
        self.site.cache.invalidate_file(*gfile)
        yield from self.site.cpu(self.site.cost.disk_write)
        attrs = pack.get_inode(gfile[1]).attrs()
        # pages=None: receivers must full-pull (the whole content changed).
        yield from fs._after_commit(gfile, attrs, None)
        return attrs

    def h_patch_nlink(self, src: int, p: dict) -> Generator:
        """Set a file's link count in place, version vector untouched.

        False refuses: the data copy moved off ``version``, or a writer
        holds the file open here and its commit would write back the
        count the open cloned.  Readers' idle incore copy is patched with
        the disk inode, since a writer joining them commits it.  A site
        with no live copy, or only an attribute copy at another vector,
        has nothing to patch.
        """
        fs = self.site.fs
        gfile = p["gfile"]
        for probe in (True, False):
            inode = fs.local_inode(gfile)
            if inode is None or inode.deleted:
                return True
            so = fs.ss.get(gfile)
            if so is None or (so.writer is None and not so.shadow.dirty):
                break
            if not probe:
                return False
            # A writer registration whose fs.close was lost would refuse
            # every patch for good: drop it if its US no longer holds the
            # file, as the merge install does, and look again.
            yield from fs.validate_ss_entry(gfile)
        if inode.version != p["version"]:
            return not inode.has_data
        inode.nlink = p["nlink"]
        if so is not None:
            so.shadow.incore.nlink = p["nlink"]
        self.site.cache.invalidate_file(*gfile)
        return True

    def h_mark_conflict(self, src: int, p: dict) -> Generator:
        """Flag divergent copies so normal access attempts fail
        (section 4.6); the flag clears when a reconciled version arrives."""
        inode = self.site.fs.local_inode(p["gfile"])
        if inode is not None:
            inode.conflict = True
            self.site.cache.invalidate_file(*p["gfile"])
        return None
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Electronic mail (the notification channel of sections 4.4-4.6)
    # ------------------------------------------------------------------

    def send_mail(self, owner: str, subject: str, body: str) -> Generator:
        fs = self.site.fs
        try:
            yield from fs.mkdir(None, "/mail")
        except EEXIST:
            pass
        gfile, __ = yield from fs.create_file(None, f"/mail/{owner}",
                                              ftype=FileType.MAILBOX)
        yield from self._edit_mailbox(gfile, lambda messages: messages.append(
            MailMessage(msg_id=f"{self.sid}-{int(self.site.sim.now * 1000)}-"
                               f"{next(self._mail_seq)}",
                        sender="recovery-daemon", subject=subject, body=body,
                        stamp=self.site.sim.now)))

    def delete_mail(self, owner: str, msg_id: str) -> Generator:
        """Mark one message deleted (a tombstone, so partition merges never
        resurrect read-and-deleted mail, section 4.5)."""
        gfile, __ = yield from self.site.fs.resolve_gfile(None,
                                                          f"/mail/{owner}")

        def tombstone(messages):
            for message in messages:
                if message.msg_id == msg_id:
                    message.deleted = True

        yield from self._edit_mailbox(gfile, tombstone)

    def _edit_mailbox(self, gfile: Gfile, edit: Callable) -> Generator:
        """Rewrite a mailbox under one write open; ``edit`` changes its
        decoded messages in place."""
        fs = self.site.fs
        handle = yield from fs.open_gfile(gfile, Mode.WRITE)
        try:
            data = yield from fs.read_all(handle)
            messages = decode_mailbox(data)
            edit(messages)
            yield from fs.truncate(handle)
            yield from fs.write(handle, 0, encode_mailbox(messages))
        finally:
            yield from fs.close(handle)

    def read_mail(self, owner: str) -> Generator:
        """Convenience for tests/examples: the owner's mailbox contents."""
        fs = self.site.fs
        try:
            gfile, __ = yield from fs.resolve_gfile(None, f"/mail/{owner}")
        except FsError:
            return []
        handle = yield from fs.open_gfile(gfile, Mode.READ)
        try:
            data = yield from fs.read_all(handle)
        finally:
            yield from fs.close(handle)
        return [m for m in decode_mailbox(data) if not m.deleted]
