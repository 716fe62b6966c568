"""The distributed filesystem kernel: US/SS/CSS protocols.

Implements the message sequences of paper section 2.3 exactly:

* open (general case, Figure 2)::

      US  -> CSS   OPEN request
      CSS -> SS    request for storage site
      SS  -> CSS   response to previous message
      CSS -> US    response to first message

  with the two optimizations described in the text: when the US stores the
  latest version the CSS selects the US itself, and when the CSS stores the
  latest version it picks itself "without any message overhead".

* network read (section 2.3.3)::

      US -> SS     request for page x of file y
      SS -> US     response to the above request

* write (section 2.3.5): a single one-way message (low-level acks only).

* close (section 2.3.3, including the race fix in the footnote)::

      US  -> SS    US close
      SS  -> CSS   SS close
      CSS -> SS    response to above
      SS  -> US    response to first message
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.config import PATIENT_RETRIES, RPC_RETRIES, patient_backoff
from repro.errors import (EBADF, EBUSY, ECONFLICT, EINVAL, EIO, ENOENT,
                          ESTALE, EWOULDCONFLICT, EWRITELOST, FsError,
                          NetworkError, SiteDown)
from repro.fs.handles import CssEntry, SsOpen, UsHandle
from repro.fs.ledger import IdempotencyLedger
from repro.fs.mount import MountTable
from repro.fs.namespace import NamespaceMixin
from repro.fs.path import PathMixin
from repro.fs.propagation import Propagator
from repro.fs.types import Gfile, Mode
from repro.storage.pack import Pack, pack_index_of
from repro.storage.shadow import ShadowFile
from repro.storage.version_vector import VersionVector


class FsManager(PathMixin, NamespaceMixin):
    """Per-site filesystem kernel; plays US, SS and CSS as needed."""

    def __init__(self, site, mount: MountTable):
        self.site = site
        # Neither is ever reassigned on a site, and both are read on
        # every protocol step.
        self.sid: int = site.site_id
        self.cost = site.cost
        self.mount = mount
        self.us: Dict[int, UsHandle] = {}
        self.ss: Dict[Gfile, SsOpen] = {}
        # In-flight remote page fetches (readahead included), so concurrent
        # requests for one page share a single network read.
        self._inflight: Dict[Tuple[int, int, int], object] = {}
        self.css_entries: Dict[Gfile, CssEntry] = {}
        # Latest version vector this kernel has *heard of* per file (commit
        # notifications update it immediately, before any data propagates).
        # The CSS uses it so a lagging local copy is never offered as
        # current (section 2.3.1: the CSS "must have knowledge of ... what
        # the most current version of the file is").
        self.known_latest: Dict[Gfile, VersionVector] = {}
        # Topology epoch (bumped by reconfiguration cleanup) and the epoch
        # at which each gfile's peer versions were last probed: a CSS
        # (re-)elected after a membership change may only know a stale
        # local copy, so the first write open per epoch asks the other
        # pack sites what they committed before granting the token.
        self.topology_epoch = 0
        self._vv_probe_epoch: Dict[Gfile, int] = {}
        self._hids = itertools.count(1)
        self._delete_acks: Dict[Gfile, Set[int]] = {}
        # Volatile idempotency ledger for open/close bookkeeping RPCs: the
        # state those ops touch (CSS entries, SS open records) dies with
        # the site anyway, so durability would buy nothing.  Commit and
        # create replies live on the pack's durable ledger instead.
        self.op_ledger = IdempotencyLedger()
        self.propagator = Propagator(self)
        self._register_handlers()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _register_handlers(self) -> None:
        """The US / CSS / SS operations; ``Propagator``, ``ScrubManager``
        and ``RecoveryManager`` register the servers of their own calls.
        A stamped operation names its ledger (see ``op_ledger``)."""
        reg = self.site.register_handler
        volatile = lambda p: self.op_ledger  # noqa: E731
        reg("fs.css_open", self.h_css_open, ledger=volatile)
        reg("fs.ss_open", self.h_ss_open)
        reg("fs.read_page", self.h_read_page)
        reg("fs.read_pages", self.h_read_pages)
        reg("fs.write_page", self.h_write_page)
        reg("fs.write_pages", self.h_write_pages)
        reg("fs.truncate", self.h_truncate)
        reg("fs.set_attrs", self.h_set_attrs)
        reg("fs.commit", self.h_commit,
            ledger=lambda p: self._pack_ledger(p["gfile"][0]))
        reg("fs.abort", self.h_abort)
        reg("fs.close", self.h_close, ledger=volatile)
        reg("fs.close_unsync", self.h_close_unsync)
        reg("fs.css_ss_close", self.h_css_ss_close, ledger=volatile)
        reg("fs.validate_open", self.h_validate_open)
        reg("fs.notify", self.h_notify)
        reg("fs.invalidate", self.h_invalidate)
        reg("fs.create_file", self.h_create_file,
            ledger=lambda p: self._pack_ledger(p["gfs"]))
        reg("fs.delete_seen", self.h_delete_seen)
        reg("fs.fetch_attrs", self.h_fetch_attrs)
        reg("fs.dir_version", self.h_dir_version)
        reg("fs.css_rebuild", self.h_css_rebuild)
        reg("fs.invalidate_file", self.h_invalidate_file)
        reg("fs.reap", self.h_reap)
        reg("fs.walk_path", self.h_walk_path)
        reg("fs.scrub_orphan", self.h_scrub_orphan)

    def reset_volatile(self) -> None:
        """Crash: incore inodes and synchronization state vanish."""
        self.us.clear()
        self.ss.clear()
        self.css_entries.clear()
        self.known_latest.clear()
        for fut in self._inflight.values():
            fut.fail(SiteDown(self.sid))
        self._inflight.clear()
        self._delete_acks.clear()
        self._vv_probe_epoch.clear()
        self.op_ledger = IdempotencyLedger()
        for pack in self.site.packs.values():
            if pack.ledger is not None:
                # Memoized replies are disk state and survive; in-flight
                # execution markers died with their handler tasks.
                pack.ledger.reset_running()
        self.propagator.reset()

    def on_restart(self) -> None:
        self.propagator.start()

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------

    def local_pack(self, gfs: int) -> Optional[Pack]:
        return self.site.packs.get(gfs)

    def local_inode(self, gfile: Gfile):
        pack = self.site.packs.get(gfile[0])
        return pack.get_inode(gfile[1]) if pack else None

    def stores_locally(self, gfile: Gfile) -> bool:
        pack = self.site.packs.get(gfile[0])
        return bool(pack and pack.stores(gfile[1]))

    def _page_key(self, gfile: Gfile, page: int) -> Tuple[int, int, int]:
        return (gfile[0], gfile[1], page)

    def _n_pages(self, size: int) -> int:
        psz = self.cost.page_size
        return (size + psz - 1) // psz

    # ------------------------------------------------------------------
    # Exactly-once execution (idempotency ledger)
    # ------------------------------------------------------------------

    def _pack_ledger(self, gfs: int) -> Optional[IdempotencyLedger]:
        """The durable ledger of the local pack (created lazily)."""
        pack = self.local_pack(gfs)
        if pack is None:
            return None
        if pack.ledger is None:
            pack.ledger = IdempotencyLedger()
        return pack.ledger

    # ------------------------------------------------------------------
    # US: open
    # ------------------------------------------------------------------

    def open_gfile(self, gfile: Gfile, mode: Mode,
                   allow_conflict: bool = False,
                   reopen: bool = False,
                   known_vv: Optional[VersionVector] = None) -> Generator:
        """Open by low-level name; returns a :class:`UsHandle`.

        Unsynchronized reads of locally stored, propagation-clean files are
        served without informing the CSS (section 2.3.4).
        """
        tracer = self.site.tracer
        span = prev = None
        if tracer is not None and tracer.enabled and mode.synchronized:
            # Internal unsynchronized opens (pathname searching) stay
            # inside the enclosing syscall span; real opens get their own.
            span, prev = tracer.begin("fs.open", "fs", self.sid,
                                      attrs={"gfile": list(gfile),
                                             "mode": mode.name})
        status_label = "ok"
        start = self.site.sim.now
        try:
            handle = yield from self._open_gfile(gfile, mode, allow_conflict,
                                                 reopen, known_vv)
            if span is not None:
                tracer.annotate(span, "ss", handle.ss_site)
            return handle
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
            status_label = type(exc).__name__
            raise
        finally:
            if mode.synchronized:
                self.site.metrics.observe("fs.open",
                                          self.site.sim.now - start)
            if span is not None:
                tracer.finish(span, prev, status=status_label)

    def _open_gfile(self, gfile: Gfile, mode: Mode,
                    allow_conflict: bool = False,
                    reopen: bool = False,
                    known_vv: Optional[VersionVector] = None) -> Generator:
        if mode.synchronized:
            yield from self.site.cpu(self.cost.cpu_syscall)
        else:
            # Internal unsynchronized opens (pathname searching) are part
            # of an enclosing system call, not syscalls of their own.
            yield from self.site.cpu(self.cost.buffer_hit)
        recovery = self.site.recovery
        needs_recovery = recovery is not None and recovery.needs(gfile)
        if mode is Mode.UNSYNC and not needs_recovery:
            inode = self.local_inode(gfile)
            if (inode is not None and inode.has_data and not inode.deleted
                    and not inode.conflict
                    and not self.propagator.is_pending(gfile)):
                attrs = yield from self._ss_open_local(gfile, mode, self.sid)
                return self._make_handle(gfile, mode, self.sid, attrs,
                                         sync=False)
        us_vv = None
        if self.stores_locally(gfile):
            us_vv = self.local_inode(gfile).version
        # Supervised: the dst callable re-resolves the CSS before every
        # attempt, so a retry after a CSS crash chases the re-elected one.
        # Stamped (exactly-once): css_open mutates CSS bookkeeping, so a
        # retried request must replay the recorded grant, not register a
        # second open.
        payload = {
            "gfile": gfile,
            "mode": mode,
            "us_vv": us_vv,
            "allow_conflict": allow_conflict,
        }
        if reopen:
            # Write-path failover: let the CSS re-home our own write token
            # instead of refusing it as a second writer.
            payload["reopen"] = True
        if known_vv is not None:
            # The caller (a re-homing writer) has seen this committed
            # version; a freshly re-elected CSS whose own copy is older
            # must not grant a stale replica — it merges this floor into
            # its latest-version knowledge before selecting a storage
            # site.
            payload["known_vv"] = known_vv
        resp = yield from self.site.supervised_rpc(
            lambda: self.mount.css_for(gfile[0]), "fs.css_open", payload,
            once=True)
        ss_site, attrs = resp["ss"], resp["attrs"]
        if ss_site == self.sid:
            # CSS selected this site as SS; set up the storage-site state
            # with a procedure call (no messages).
            attrs = yield from self._ss_open_local(gfile, mode, self.sid)
        else:
            # A stale local copy may have left its pages in the buffer
            # cache (unsynchronized reads); they must not be mixed with
            # pages of the newer version the remote SS will supply.
            local = self.local_inode(gfile)
            if local is not None and local.version != attrs["version"]:
                self.site.cache.invalidate_file(*gfile)
        return self._make_handle(gfile, mode, ss_site, attrs,
                                 sync=mode.synchronized)

    def _make_handle(self, gfile: Gfile, mode: Mode, ss_site: int,
                     attrs: dict, sync: bool) -> UsHandle:
        handle = UsHandle(hid=next(self._hids), gfile=gfile, mode=mode,
                          ss_site=ss_site, attrs=dict(attrs), sync=sync)
        self.us[handle.hid] = handle
        return handle

    # ------------------------------------------------------------------
    # CSS: open
    # ------------------------------------------------------------------

    def h_css_open(self, src: int, p: dict) -> Generator:
        gfile: Gfile = p["gfile"]
        mode: Mode = p["mode"]
        us_vv: Optional[VersionVector] = p.get("us_vv")
        # Write-path failover: the US re-homing its own open-for-write may
        # reclaim the write token it already holds.
        prior = self.css_entries.get(gfile)
        reclaiming = (bool(p.get("reopen")) and mode.writable
                      and prior is not None and prior.writer == src)
        # Demand recovery: an unreconciled file is reconciled out of order
        # so this access proceeds with only a small delay (section 4.4).
        recovery = self.site.recovery
        if recovery is not None and recovery.needs(gfile):
            if (mode.writable and not reclaiming
                    and self.cost.supervise_remote_ops):
                # Conflict-window retirement: no write token while copies
                # await reconciliation — a writer admitted here could race
                # the heal into a divergent commit.  Schedule the merge
                # and refuse; the supervised open retries until it clears.
                recovery.demand_soon(gfile)
                raise EWOULDCONFLICT(
                    f"gfile {gfile} queued for reconciliation")
            yield from recovery.demand(gfile)
        entry = yield from self._css_load_entry(gfile)
        known = p.get("known_vv")
        if known is not None:
            # A re-homing writer vouches for a committed version this CSS
            # may not have heard of (e.g. it was just re-elected from a
            # stale copy): never select a storage site older than it.
            self._note_version(gfile, known)
            entry.latest_vv = entry.latest_vv.merge(known)
        if mode.writable and self.topology_epoch \
                and self.cost.supervise_remote_ops \
                and self._vv_probe_epoch.get(gfile) != \
                self.topology_epoch:
            # First write open since a membership change: this CSS may
            # have been (re-)elected from a copy that missed commits
            # (e.g. it just restarted from an old pack).  Ask the other
            # pack sites what they committed so the storage-site selection
            # below never grants a copy older than any surviving one.
            # Epoch 0 (no change since boot) needs no probe: an unbroken
            # CSS heard every commit synchronously, so fault-free runs
            # stay protocol-identical to the paper.
            self._vv_probe_epoch[gfile] = self.topology_epoch
            yield from self._probe_peer_versions(entry)
        attrs = yield from self._css_local_attrs(gfile)
        if attrs["deleted"]:
            raise ENOENT(f"gfile {gfile} deleted")
        if attrs["conflict"] and not p.get("allow_conflict"):
            raise ECONFLICT(f"gfile {gfile} has unreconciled copies")
        if mode.writable and entry.writer is not None \
                and self.cost.enforce_single_writer \
                and not (reclaiming and entry.writer == src):
            raise EBUSY(f"gfile {gfile} already open for modification")
        if mode.writable and entry.lock_tx is not None and \
                p.get("tx") != entry.lock_tx:
            raise EBUSY(f"gfile {gfile} locked by transaction "
                        f"{entry.lock_tx}")

        # Reserve the modification slot *before* the storage-site poll: the
        # poll sleeps, and a second open racing through the check while the
        # first is mid-selection would give two writers (lost updates).
        # A reclaim keeps its existing reservation: a failed re-home must
        # not release the write token the US still holds.
        reserved = mode.writable and mode.synchronized \
            and not (reclaiming and entry.writer == src)
        if reserved:
            entry.writer = src
        try:
            ss_site, attrs = yield from self._css_select_ss(
                entry, src, mode, us_vv, attrs)
        except BaseException:
            if reserved and entry.writer == src:
                entry.writer = None
                if not entry.in_use:
                    self.css_entries.pop(gfile, None)
            raise
        if mode.synchronized:
            entry.note_open(src, mode, ss_site)
            if p.get("tx") is not None and mode.writable:
                entry.lock_tx = p["tx"]
        return {"ss": ss_site, "attrs": attrs}

    def _css_select_ss(self, entry: CssEntry, us: int, mode: Mode,
                       us_vv: Optional[VersionVector],
                       attrs: dict) -> Generator:
        """Storage-site selection with the Figure 2 optimizations."""
        latest = entry.latest_vv
        # An *active writer* pins everybody to one storage site:
        # simultaneous read and modification involve only one SS (section
        # 2.3.6 footnote).  Readers alone do not pin — they may continue on
        # an older copy while newer opens go to a current site ("this must
        # not prevent other processes from accessing the newer version",
        # section 5.2).
        writer_active = (entry.writer is not None and entry.writer != us)
        if entry.active_ss is not None and writer_active \
                and self.cost.enforce_single_writer:
            candidates = [entry.active_ss]
        else:
            candidates = []
            # Optimization 1: the US already stores the latest version.
            if us_vv is not None and us in entry.storage_sites and \
                    us_vv.dominates(latest):
                entry.latest_vv = latest = us_vv
                return us, attrs
            # Optimization 2: the CSS itself stores the latest version.
            if self.stores_locally(entry.gfile):
                local_vv = self.local_inode(entry.gfile).version
                if local_vv.dominates(latest):
                    candidates.append(self.sid)
            for s in entry.storage_sites:
                if s not in candidates and s != us:
                    candidates.append(s)
            # The US last (a remote poll of the US is never useful: if it
            # stored the latest copy the optimization above fired).
            if us in entry.storage_sites and us not in candidates:
                candidates.append(us)

        for cand in candidates:
            if cand == self.sid:
                try:
                    ss_attrs = yield from self._ss_open_local(
                        entry.gfile, mode, us, required_vv=latest)
                except ESTALE:
                    continue   # stale local copy or a pull mid-flight
                return cand, ss_attrs
            try:
                ss_attrs = yield from self.site.rpc(cand, "fs.ss_open", {
                    "gfile": entry.gfile,
                    "mode": mode,
                    "us": us,
                    "required_vv": latest,
                })
                return cand, ss_attrs
            except (ESTALE, NetworkError):
                continue
        raise ENOENT(f"no available storage site for {entry.gfile}")

    def _css_load_entry(self, gfile: Gfile) -> Generator:
        entry = self.css_entries.get(gfile)
        if entry is None:
            attrs = yield from self._css_local_attrs(gfile)
            latest = attrs["version"]
            heard = self.known_latest.get(gfile)
            if heard is not None:
                latest = latest.merge(heard)
            entry = CssEntry(gfile=gfile,
                             storage_sites=list(attrs["storage_sites"]),
                             latest_vv=latest)
            self.css_entries[gfile] = entry
        return entry

    def _probe_peer_versions(self, entry: CssEntry) -> Generator:
        """Merge the committed versions at the other reachable pack sites
        into ``entry.latest_vv`` (best effort: an unreachable peer is
        skipped — its commits resurface through reconciliation)."""
        gfile = entry.gfile
        for s in entry.storage_sites:
            if s == self.sid:
                continue
            try:
                attrs = yield from self.site.rpc(
                    s, "fs.fetch_attrs", {"gfile": gfile},
                    timeout=self.site.backstop)
            except (FsError, NetworkError):
                continue
            # Adopt only strictly-newer knowledge.  Merging an
            # *incomparable* peer version would manufacture a floor no
            # copy satisfies (every open ENOENTs); incomparable copies
            # are a conflict, and the reconciliation path owns those.
            if attrs["version"].dominates(entry.latest_vv):
                self._note_version(gfile, attrs["version"])
                entry.latest_vv = attrs["version"]
        return None

    def _note_version(self, gfile: Gfile, version: VersionVector) -> None:
        heard = self.known_latest.get(gfile)
        self.known_latest[gfile] = version if heard is None \
            else heard.merge(version)

    def _css_local_attrs(self, gfile: Gfile) -> Generator:
        """Inode attributes as known at the CSS (its pack holds a copy of
        the disk inode whether or not it stores the file; a CSS without a
        pack for this filegroup fetches from a pack site)."""
        inode = self.local_inode(gfile)
        if inode is not None:
            return inode.attrs()
        attrs = yield from self._fetch_attrs_remote(gfile)
        return attrs

    def _fetch_attrs_remote(self, gfile: Gfile) -> Generator:
        """Inode attributes from the first other pack site of the filegroup
        that knows the file."""
        unreachable = []
        for s in self.mount.pack_sites(gfile[0]):
            if s == self.sid:
                continue
            try:
                attrs = yield from self.site.rpc(s, "fs.fetch_attrs",
                                                 {"gfile": gfile})
                return attrs
            except ENOENT:
                continue
            except NetworkError:
                unreachable.append(s)
        if unreachable and self._any_believed_up(unreachable):
            # A pack site we believe is *up* didn't answer: a transient
            # transport failure, not evidence the file does not exist —
            # surface it as such so a supervised caller retries instead of
            # reporting a phantom ENOENT.  Sites the partition protocol
            # already declared gone stay ENOENT (the paper's answer for a
            # filegroup isolated in another partition).
            raise NetworkError(f"no pack site for {gfile} reachable")
        raise ENOENT(f"gfile {gfile}: no reachable pack site knows it")

    def _any_believed_up(self, sites) -> bool:
        """True when current membership still contains any of ``sites``."""
        topology = self.site.topology
        if topology is None:
            return True
        members = topology.partition_set
        return any(s in members for s in sites)

    def h_fetch_attrs(self, src: int, p: dict) -> Generator:
        inode = self.local_inode(p["gfile"])
        if inode is None:
            raise ENOENT(f"gfile {p['gfile']} not at site {self.sid}")
        yield from self.site.cpu(self.cost.buffer_hit)
        return inode.attrs()

    # ------------------------------------------------------------------
    # SS: open
    # ------------------------------------------------------------------

    def h_ss_open(self, src: int, p: dict) -> Generator:
        """``src`` is the CSS (or this site); ``p['us']`` the using site."""
        return (yield from self._ss_open_local(p["gfile"], p["mode"],
                                               p["us"], p.get("required_vv")))

    def _ss_open_local(self, gfile: Gfile, mode: Mode, us: int,
                       required_vv: Optional[VersionVector] = None
                       ) -> Generator:
        pack = self.local_pack(gfile[0])
        if pack is None or not pack.stores(gfile[1]):
            raise ESTALE(f"site {self.sid} does not store {gfile}")
        if self.propagator.is_pulling(gfile) and gfile not in self.ss:
            # A propagation pull is mid-flight: this pack is about to
            # change under any snapshot taken now.  Refuse; the CSS will
            # pick a site that already holds the latest version.
            raise ESTALE(f"site {self.sid} is propagating {gfile}")
        inode = pack.get_inode(gfile[1])
        if required_vv is not None and not inode.version.dominates(
                required_vv):
            # "If they do not yet store the latest version, they refuse to
            # act as a storage site."
            raise ESTALE(f"site {self.sid} stores an old version of {gfile}")
        so = self.ss.get(gfile)
        if so is None:
            so = SsOpen(gfile=gfile, shadow=ShadowFile(pack, gfile[1]))
            self.ss[gfile] = so
        elif not so.shadow.dirty and \
                so.shadow.incore.version != inode.version:
            # The disk inode moved under an idle incore copy (propagation
            # or a recovery install landed): a stale snapshot must never
            # serve — or worse, commit — old state.
            so.shadow = ShadowFile(pack, gfile[1])
        so.add_user(us, mode)
        yield from self.site.cpu(self.cost.buffer_hit)  # incore inode setup
        if not mode.synchronized:
            # Interrogation sees the committed state, not a concurrent
            # writer's staged incore inode (section 2.3.4).
            return pack.get_inode(gfile[1]).attrs()
        return so.shadow.incore.attrs()

    # ------------------------------------------------------------------
    # US: replica failover (sections 2.3.2, 5.2, 5.6)
    # ------------------------------------------------------------------

    def rehome(self, handle: UsHandle) -> Generator:
        """Internal close + reopen at another pack copy, adopting the
        replacement under the old handle id so the process never notices
        (section 5.2 principle 3: "the system substitutes a different copy
        of the same version if possible").

        Shared by the mid-call retries below and reconfiguration cleanup
        (:mod:`repro.reconfig.cleanup`).  A reader gets :class:`ESTALE`
        when the only reachable copies are older than what it was reading
        (substituting one would run time backwards).  A writer also
        carries uncommitted state — shadow pages, a staged truncate,
        staged attribute patches — that died with the old SS: it reopens
        with the reopen flag (so its own write token is re-homed, not
        refused as a second writer) and replays that state at the new SS.
        Either raises whatever the reopen raises when no copy remains.
        """
        if handle.failover_busy is not None and not handle.failover_busy.done:
            # Another task (e.g. reconfiguration cleanup racing a mid-call
            # retry) is already substituting a copy; a second reopen would
            # leak a CSS registration.  Wait for it and adopt its outcome.
            yield handle.failover_busy
            return None
        writer = handle.mode.writable
        kind = "write_failover" if writer else "failover"
        busy = self.site.sim.create_future(f"rehome:{handle.gfile}")
        handle.failover_busy = busy
        self.site.metrics.count(f"fs.{kind}s")
        tracer = self.site.tracer
        failed_ss = handle.ss_site
        span = prev = None
        status_label = "ok"
        if tracer is not None and tracer.enabled:
            # Annotate the span whose work is being failed over (the
            # enclosing syscall/recovery span carried by the task)...
            tracer.event(tracer.current_ctx(), kind,
                         {"gfile": list(handle.gfile),
                          "failed_ss": failed_ss})
            # ...and give the substitution itself a span, so storm traces
            # show the re-home instead of an anonymous rpc:fs.css_open.
            span, prev = tracer.begin(f"fs.{kind}", "fs", self.sid,
                                      attrs={"gfile": list(handle.gfile),
                                             "failed_ss": failed_ss})
        try:
            old_version = handle.attrs["version"]
            if writer:
                replacement = yield from self.open_gfile(
                    handle.gfile, handle.mode, reopen=True,
                    known_vv=old_version)
                # Keep our staged view of the attributes (size, patches);
                # only the committed base version comes from the
                # replacement — it may already include the lost SS's
                # commit if the replica pulled it before the failure.
                handle.attrs["version"] = replacement.attrs["version"]
                handle.attrs["storage_sites"] = \
                    replacement.attrs["storage_sites"]
            else:
                replacement = yield from self.open_gfile(handle.gfile,
                                                         handle.mode)
                if not replacement.attrs["version"].dominates(old_version):
                    yield from self.close(replacement)
                    raise ESTALE(f"remaining copies of {handle.gfile} are "
                                 f"older than the open version")
                if replacement.attrs["version"] != old_version:
                    # A strictly newer version: locally cached pages of
                    # the old one must not serve alongside it.
                    self.site.cache.invalidate_file(*handle.gfile)
                handle.attrs = replacement.attrs
            self.us.pop(replacement.hid, None)
            handle.ss_site = replacement.ss_site
            handle.last_page = -2
            handle.run_len = 0
            outcome = {"gfile": list(handle.gfile), "failed_ss": failed_ss,
                       "new_ss": handle.ss_site}
            if writer:
                outcome["restaged"] = yield from self._replay_staged(handle)
            if tracer is not None and tracer.enabled:
                tracer.event(tracer.current_ctx(), f"{kind}_complete",
                             outcome)
                tracer.annotate(span, "new_ss", handle.ss_site)
                if writer:
                    tracer.annotate(span, "restaged", outcome["restaged"])
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
            status_label = type(exc).__name__
            raise
        finally:
            handle.failover_busy = None
            busy.resolve(None)
            if span is not None:
                tracer.finish(span, prev, status=status_label)
        return None

    def _replay_staged(self, handle: UsHandle) -> Generator:
        """Replay the open's uncommitted operations against its (possibly
        re-homed) SS in protocol order: truncate first, then attribute
        patches, then every retained page image.  Used after a writer
        re-home and after a commit refused for lost page writes — in both
        cases the SS holds none of the staged state any more.  Returns the
        replayed page count."""
        handle.pages_sent = 0
        handle.pending_writes = {}
        handle.pending_size = 0
        if handle.staged_truncate:
            yield from self.site.rpc(handle.ss_site, "fs.truncate",
                                     {"gfile": handle.gfile})
        if handle.staged_attrs:
            if handle.ss_site == self.sid:
                self.ss[handle.gfile].shadow.set_attrs(
                    **handle.staged_attrs)
            else:
                yield from self.site.rpc(
                    handle.ss_site, "fs.set_attrs",
                    {"gfile": handle.gfile,
                     "patch": dict(handle.staged_attrs)})
        staged = dict(handle.staged_pages)
        for page in sorted(staged):
            yield from self._put_page(handle, page, staged[page],
                                      handle.size)
        return len(staged)

    def _read_rpc(self, handle: UsHandle, op: str, payload: dict) -> Generator:
        """Supervised RPC to the handle's storage site.

        When the SS crashes or the circuit closes mid-call (also: the SS
        restarted and lost its open state, or refuses as stale), fail over
        to the next available pack copy and retry — bounded by
        ``RPC_RETRIES`` with deterministic exponential backoff.  A
        reader substitutes another copy of the same version; a writer
        re-homes its write token and re-stages its shadow pages
        (``rehome``), which is also what makes the idempotent
        handle operations of the write path (truncate, attribute change)
        safe to send through here.  With supervision off this is a plain
        unsupervised call, the paper's behaviour.
        """
        attempt = 0
        while True:
            try:
                result = yield from self.site.rpc(
                    handle.ss_site, op, payload, timeout=self.site.backstop)
                return result
            except (NetworkError, EBADF, ESTALE) as exc:
                writable = handle.mode.writable
                # A writer's budget mirrors the commit one: re-home and
                # replay make its retries safe, so it should ride out a
                # whole loss burst rather than fail the syscall.
                budget = PATIENT_RETRIES if writable else RPC_RETRIES
                if not self.cost.supervise_remote_ops or handle.closed \
                        or attempt >= budget:
                    raise
                attempt += 1
                failed_ss = handle.ss_site
                self.site.metrics.count("fs.read_retries")
                tracer = self.site.tracer
                if tracer is not None and tracer.enabled:
                    tracer.event(tracer.current_ctx(), "read_retry",
                                 {"attempt": attempt, "op": op,
                                  "failed_ss": failed_ss,
                                  "error": type(exc).__name__})
                # Backoff first: gives the partition protocol time to agree
                # on the new membership before the reopen picks a copy.
                yield patient_backoff(attempt - 1)
                if handle.closed:
                    raise   # reconfiguration cleanup closed it meanwhile
                if handle.ss_site == failed_ss:
                    # Cleanup may have substituted a copy during the
                    # backoff; only reopen if the handle still points at
                    # the site that just failed.
                    try:
                        yield from self.rehome(handle)
                    except (NetworkError, ESTALE):
                        if not writable:
                            raise
                        # Nobody reachable right now; keep burning the
                        # budget — the next lap retries the reopen.

    # ------------------------------------------------------------------
    # US: read
    # ------------------------------------------------------------------

    def read(self, handle: UsHandle, offset: int, nbytes: int) -> Generator:
        if handle.closed:
            raise EBADF("read on closed handle")
        if offset < 0 or nbytes < 0:
            raise EINVAL("negative offset or length")
        size = handle.size
        end = min(offset + nbytes, size)
        if offset >= end:
            return b""
        psz = self.cost.page_size
        first, last = offset // psz, (end - 1) // psz
        if (last > first and self.cost.batch_pages > 1
                and handle.ss_site != self.sid):
            # Batched transfer: pull the whole span across the wire in
            # ceil(n / batch_pages) messages instead of one per page.
            yield from self._prefetch_pages(handle, range(first, last + 1))
        chunks: List[bytes] = []
        for page in range(first, last + 1):
            data = yield from self._get_page(handle, page)
            data = data.ljust(psz, b"\x00")
            lo = max(offset, page * psz) - page * psz
            hi = min(end, (page + 1) * psz) - page * psz
            chunks.append(data[lo:hi])
            yield from self.site.cpu(self.cost.cpu_page_copy)
        return b"".join(chunks)

    def _prefetch_pages(self, handle: UsHandle, pages) -> Generator:
        """Fetch the missing pages of a multi-page read from a remote SS
        with batched ``fs.read_pages`` requests (up to ``batch_pages`` pages
        per message).  Fills the same cache keyspace the per-page path uses,
        so ``_get_page`` then serves every page as a buffer hit."""
        gfile = handle.gfile
        committed = not handle.sync

        def key_of(page: int):
            if committed:
                return (gfile[0], gfile[1], page, "c")
            return self._page_key(gfile, page)

        missing = [p for p in pages if key_of(p) not in self.site.cache
                   and (committed or key_of(p) not in self._inflight)]
        batch = self.cost.batch_pages
        for i in range(0, len(missing), batch):
            chunk = missing[i:i + batch]
            futs = {}
            if not committed:
                # Register in-flight buffers so concurrent demand reads
                # and readaheads share these fetches instead of re-asking.
                for p in chunk:
                    fut = self.site.sim.create_future(f"fetch:{key_of(p)}")
                    self._inflight[key_of(p)] = fut
                    futs[p] = fut
            try:
                resp = yield from self._read_rpc(
                    handle, "fs.read_pages", {
                        "gfile": gfile, "pages": list(chunk),
                        "committed": committed,
                    })
            except BaseException as exc:
                for p, fut in futs.items():
                    self._inflight.pop(key_of(p), None)
                    fut.fail(exc)
                raise
            for p in chunk:
                data = resp["pages"][p]
                if not committed:
                    self._inflight.pop(key_of(p), None)
                if key_of(p) not in self.site.cache:
                    # Never overwrite newer content a concurrent local
                    # write may have produced while we were in flight.
                    self.site.cache.put(key_of(p), data)
                if p in futs:
                    futs[p].resolve(data)
        return None

    def _get_page(self, handle: UsHandle, page: int) -> Generator:
        gfile = handle.gfile
        if not handle.sync:
            # Unsynchronized interrogation reads the last *committed* state:
            # a concurrent writer's staged pages must never be seen, so
            # "directory interrogation never sees an inconsistent picture"
            # (section 2.3.4).
            data = yield from self._get_page_committed(handle, page)
            return data
        if handle.ss_site == self.sid:
            so = self.ss.get(gfile)
            if so is None:
                raise EBADF(f"no storage-site state for {gfile}")
            data = yield from self._ss_read_block(so, page)
            return data
        staged = handle.pending_writes.get(page)
        if staged is not None:
            # Write-behind (batch_writes): the handle's own staged page is
            # the newest content; it may already have been evicted from the
            # buffer cache, and the SS has not seen it yet.
            yield from self.site.cpu(self.cost.buffer_hit)
            handle.note_read(page)
            return staged
        key = self._page_key(gfile, page)
        cached = self.site.cache.get(key)
        if cached is not None:
            yield from self.site.cpu(self.cost.buffer_hit)
            if handle.note_read(page) and self.cost.readahead_max:
                self._maybe_readahead(handle, page + 1)
            return cached
        inflight = self._inflight.get(key)
        if inflight is not None:
            # A readahead already asked the SS for this page: sleep on the
            # same buffer instead of issuing a duplicate network read.
            data = yield inflight
            handle.note_read(page)
            return data
        fut = self.site.sim.create_future(f"fetch:{key}")
        self._inflight[key] = fut
        try:
            data = yield from self._read_rpc(handle, "fs.read_page", {
                "gfile": gfile, "page": page,
            })
        except BaseException as exc:
            fut.fail(exc)
            raise
        finally:
            self._inflight.pop(key, None)
        if key not in self.site.cache:
            # A concurrent local write may have refreshed the page while
            # our response was in flight; never overwrite newer content.
            self.site.cache.put(key, data)
        fut.resolve(data)
        if handle.note_read(page) and self.cost.readahead_max:
            self._maybe_readahead(handle, page + 1)
        return data

    def _maybe_readahead(self, handle: UsHandle, page: int) -> None:
        """Start fetching the adaptive readahead window from ``page`` on.

        The paper's protocol reads one page ahead; we widen the window with
        the observed sequential run length of this handle (1, 2, 3, ...)
        up to ``cost.readahead_max``, so long remote scans stream instead
        of stalling every page while random access never over-fetches.
        ``cost.readahead_window`` remains the floor: configuring it to the
        cap reproduces the old fixed-window behaviour exactly."""
        limit = self._n_pages(handle.size)
        cost = self.cost
        window = max(max(1, cost.readahead_window),
                     min(handle.run_len, cost.readahead_max))
        targets = []
        for p in range(page, min(page + window, limit)):
            key = self._page_key(handle.gfile, p)
            if key in self.site.cache or key in self._inflight:
                continue
            fut = self.site.sim.create_future(f"readahead:{key}")
            self._inflight[key] = fut
            targets.append((p, key, fut))
        if not targets:
            return
        if self.cost.batch_pages > 1 and len(targets) > 1:
            self.site.spawn(self._readahead_batch(handle, targets),
                            name=f"readahead:{handle.gfile}:{page}+")
        else:
            for p, key, fut in targets:
                self.site.spawn(self._readahead(handle, p, key, fut),
                                name=f"readahead:{handle.gfile}:{p}")

    def _readahead(self, handle: UsHandle, page: int, key, fut) -> Generator:
        try:
            data = yield from self.site.rpc(handle.ss_site, "fs.read_page", {
                "gfile": handle.gfile, "page": page,
            })
        except (NetworkError, EBADF, ESTALE, ENOENT) as exc:
            self._inflight.pop(key, None)
            fut.fail(exc)
            return
        self._inflight.pop(key, None)
        if key not in self.site.cache:   # never clobber a newer write
            self.site.cache.put(key, data)
        fut.resolve(data)

    def _readahead_batch(self, handle: UsHandle, targets) -> Generator:
        """Readahead for several pages with fs.read_pages messages."""
        batch = self.cost.batch_pages
        for i in range(0, len(targets), batch):
            chunk = targets[i:i + batch]
            try:
                resp = yield from self.site.rpc(
                    handle.ss_site, "fs.read_pages", {
                        "gfile": handle.gfile,
                        "pages": [p for p, __, __ in chunk],
                    })
            except (NetworkError, EBADF, ESTALE, ENOENT) as exc:
                for __, key, fut in chunk:
                    self._inflight.pop(key, None)
                    fut.fail(exc)
                continue
            for p, key, fut in chunk:
                data = resp["pages"][p]
                self._inflight.pop(key, None)
                if key not in self.site.cache:   # never clobber a newer write
                    self.site.cache.put(key, data)
                fut.resolve(data)

    def _get_page_committed(self, handle: UsHandle, page: int) -> Generator:
        gfile = handle.gfile
        if handle.ss_site == self.sid:
            data = yield from self._committed_block(gfile, page)
            return data
        key = (gfile[0], gfile[1], page, "c")
        cached = self.site.cache.get(key)
        if cached is not None:
            yield from self.site.cpu(self.cost.buffer_hit)
            return cached
        data = yield from self._read_rpc(handle, "fs.read_page", {
            "gfile": gfile, "page": page, "committed": True,
        })
        self.site.cache.put(key, data)
        return data

    def _committed_block(self, gfile: Gfile, page: int) -> Generator:
        """Read one last-committed page at a pack site, through the
        committed-view buffer cache (separate keyspace from the incore
        view, which may hold staged shadow pages)."""
        pack = self.local_pack(gfile[0])
        inode = pack.get_inode(gfile[1]) if pack else None
        if inode is None or not inode.has_data:
            raise ENOENT(f"{gfile} has no data at site {self.sid}")
        key = (gfile[0], gfile[1], page, "c")
        cached = self.site.cache.get(key)
        if cached is not None:
            yield from self.site.cpu(self.cost.buffer_hit)
            return cached
        blockno = inode.pages[page] if page < len(inode.pages) else None
        data = pack.read_block(blockno) if blockno is not None else b""
        self.site.cache.put(key, data)
        yield from self.site.cpu(self.cost.disk_read)
        return data

    def _ss_read_block(self, so: SsOpen, page: int) -> Generator:
        """SS-side page read through the buffer cache (section 2.3.3 steps
        a-c: find incore inode, translate logical page, read the block)."""
        key = self._page_key(so.gfile, page)
        cached = self.site.cache.get(key)
        if cached is not None:
            yield from self.site.cpu(self.cost.buffer_hit)
            return cached
        data = so.shadow.read_page(page)
        self.site.cache.put(key, data)   # atomic with the read (see apply)
        yield from self.site.cpu(self.cost.disk_read)
        return data

    def _ss_view(self, p: dict) -> Optional[SsOpen]:
        """The view a read request addresses: None for the last committed
        state, else the incore (possibly staged) view of the open file."""
        if p.get("committed"):
            return None
        so = self.ss.get(p["gfile"])
        if so is None:
            raise EBADF(f"{p['gfile']} not open at storage site {self.sid}")
        return so

    def _ss_page(self, src: int, gfile: Gfile, page: int,
                 so: Optional[SsOpen]) -> Generator:
        """Serve one page to using site ``src`` from the view ``_ss_view``
        chose; an incore read makes ``src`` a holder of the page."""
        if so is None:
            data = yield from self._committed_block(gfile, page)
            return data
        data = yield from self._ss_read_block(so, page)
        so.page_holders.setdefault(page, set()).add(src)
        return data

    def h_read_page(self, src: int, p: dict) -> Generator:
        data = yield from self._ss_page(src, p["gfile"], p["page"],
                                        self._ss_view(p))
        if src != self.sid:
            self.site.net.stats.record_pages("fs.read_page", 1)
        return data

    def h_read_pages(self, src: int, p: dict) -> Generator:
        """Batched network read: up to ``batch_pages`` pages in one
        request/response pair instead of a pair per page.  Page semantics
        match N ``fs.read_page`` calls exactly (same cache paths, same
        page-holder registration); only the message count changes — the
        response's wire size is still the sum of all payload bytes."""
        so = self._ss_view(p)
        out: Dict[int, bytes] = {}
        for page in p["pages"]:
            out[page] = yield from self._ss_page(src, p["gfile"], page, so)
        if src != self.sid:
            self.site.net.stats.record_pages("fs.read_pages", len(out))
        return {"pages": out}

    # ------------------------------------------------------------------
    # US: write
    # ------------------------------------------------------------------

    def write(self, handle: UsHandle, offset: int, data: bytes) -> Generator:
        if handle.closed:
            raise EBADF("write on closed handle")
        if not handle.mode.writable:
            raise EBADF("handle not open for modification")
        if offset < 0:
            raise EINVAL("negative offset")
        if not data:
            return 0
        psz = self.cost.page_size
        end = offset + len(data)
        old_size = handle.size
        for page in range(offset // psz, (end - 1) // psz + 1):
            page_lo = page * psz
            page_hi = page_lo + psz
            lo = max(offset, page_lo)
            hi = min(end, page_hi)
            whole_page = (lo == page_lo and
                          (hi == page_hi or hi >= old_size))
            if whole_page:
                old = b""
            else:
                # Partial page: "the old page is read from the SS using the
                # read protocol" (section 2.3.5).
                old = yield from self._get_page(handle, page)
            buf = bytearray(old.ljust(psz, b"\x00"))
            buf[lo - page_lo:hi - page_lo] = data[lo - offset:hi - offset]
            page_data = bytes(buf[:max(hi - page_lo, len(old))])
            new_size = max(old_size, hi)
            yield from self._put_page(handle, page, page_data, new_size)
            yield from self.site.cpu(self.cost.cpu_page_copy)
        handle.size = max(old_size, end)
        handle.dirty = True
        return len(data)

    def _put_page(self, handle: UsHandle, page: int, data: bytes,
                  new_size: int) -> Generator:
        gfile = handle.gfile
        if handle.ss_site == self.sid:
            so = self.ss.get(gfile)
            if so is None:
                raise EBADF(f"no storage-site state for {gfile}")
            yield from self._ss_apply_writes(so, {page: data}, new_size,
                                             writer=self.sid)
            return
        # Retain the image beyond the flush: write failover re-stages it
        # at the surviving replica.
        handle.staged_pages[page] = data
        self.site.cache.put(self._page_key(gfile, page), data)
        if self.cost.batch_writes:
            # Write-behind: stage the page and ship a full batch at once.
            # FIFO circuits keep delivery order, and every ordering point
            # (commit, truncate, attribute change, close) flushes first, so
            # the SS sees the same operation sequence as the per-page
            # protocol — just in fewer messages.
            handle.pending_writes[page] = data
            handle.pending_size = max(handle.pending_size, new_size)
            if len(handle.pending_writes) >= max(1, self.cost.batch_pages):
                yield from self._flush_writes(handle)
            return
        # The write protocol is a single one-way message (section 2.3.5).
        yield from self.site.oneway(handle.ss_site, "fs.write_page", {
            "gfile": gfile, "page": page, "data": data, "size": new_size,
        })
        # Sender-side delivery accounting, mirroring the batched path: the
        # commit carries this count so a page lost to a closed circuit
        # fails the commit instead of silently committing a hole.
        handle.pages_sent += 1

    def _flush_writes(self, handle: UsHandle) -> Generator:
        """Ship the handle's staged pages to its remote SS in one-way
        ``fs.write_pages`` chunks of up to ``batch_pages`` pages.  A chunk
        of one page keeps the paper-exact ``fs.write_page`` message.  The
        shipped count accumulates in ``handle.pages_sent``; the batched
        commit carries it so a lost chunk can never half-commit."""
        while handle.flush_done is not None and not handle.flush_done.done:
            # Another task sharing the handle has a flush still on the
            # wire: ordering points must queue behind it so a commit never
            # overtakes staged pages.
            yield handle.flush_done
        pending = handle.pending_writes
        if not pending:
            return None
        flush_done = self.site.sim.create_future(f"flush:{handle.gfile}")
        handle.flush_done = flush_done
        pages = sorted(pending)
        size = handle.pending_size
        handle.pending_writes = {}
        handle.pending_size = 0
        batch = max(1, self.cost.batch_pages)
        try:
            for i in range(0, len(pages), batch):
                chunk = pages[i:i + batch]
                if len(chunk) == 1:
                    yield from self.site.oneway(
                        handle.ss_site, "fs.write_page", {
                            "gfile": handle.gfile, "page": chunk[0],
                            "data": pending[chunk[0]], "size": size,
                        })
                else:
                    yield from self.site.oneway(
                        handle.ss_site, "fs.write_pages", {
                            "gfile": handle.gfile,
                            "pages": {p: pending[p] for p in chunk},
                            "size": size,
                        })
                    # Sender-side accounting: one-way messages have no
                    # response to carry the count back, and the receive
                    # handler runs after the sender's measurement window
                    # has closed.
                    self.site.net.stats.record_pages("fs.write_pages",
                                                     len(chunk))
                handle.pages_sent += len(chunk)
        finally:
            if handle.flush_done is flush_done:
                handle.flush_done = None
            flush_done.resolve(None)
        return None

    def h_write_page(self, src: int, p: dict) -> Generator:
        so = self.ss.get(p["gfile"])
        if so is None:
            return None  # stale write after close; drop (low-level ack only)
        so.pages_received += 1      # see h_write_pages
        yield from self._ss_apply_writes(so, {p["page"]: p["data"]},
                                         p["size"], writer=src)
        return None

    def h_write_pages(self, src: int, p: dict) -> Generator:
        """Batched one-way write: up to ``batch_pages`` staged page images
        in one message (the write-behind flush of the batched commit path).
        Page semantics match N ``fs.write_page`` messages exactly — same
        shadow writes, same per-page disk cost, same cache updates, same
        token revocations — only the per-message fixed costs (header,
        latency, packet assembly) are paid once; the wire still charges for
        the summed payload."""
        so = self.ss.get(p["gfile"])
        if so is None:
            return None  # stale write after close; drop (low-level ack only)
        # Count before the cost yields inside _ss_apply_writes so the
        # counter and the shadow state move in the same atomic step; a
        # commit handler task starting later (FIFO delivery) sees both.
        so.pages_received += len(p["pages"])
        yield from self._ss_apply_writes(so, p["pages"], p["size"],
                                         writer=src)
        return None

    def _ss_apply_writes(self, so: SsOpen, pages: Dict[int, bytes],
                         new_size: int, writer: int) -> Generator:
        """Apply page writes at the SS: one page of the per-page protocol
        or a whole ``fs.write_pages`` run.

        Every state change — shadow pages, cache, size — lands in one
        atomic step (no yields): a commit or abort handler interleaving at
        the cost yields below sees the entire run applied, never a prefix
        of it, and never the cache repopulated with a discarded page.
        """
        order = sorted(pages)
        for page in order:
            try:
                so.shadow.write_page(page, pages[page])
            except FsError as exc:
                # The write protocol is one-way (no reply for the error to
                # ride back on, section 2.3.5): poison the open so the
                # commit fails instead of silently committing a hole.
                so.io_error = str(exc)
                raise
            self.site.cache.put(self._page_key(so.gfile, page), pages[page])
        so.shadow.set_size(max(so.shadow.incore.size, new_size))
        for page in order:
            yield from self.site.cpu(self.cost.disk_write)
            # Page-valid tokens: revoke every other using site's cached copy.
            holders = so.page_holders.setdefault(page, set())
            for us in list(holders):
                if us not in (writer, self.sid):
                    yield from self.site.oneway_quiet(us, "fs.invalidate", {
                        "gfile": so.gfile, "page": page,
                    })
            holders.clear()
            holders.add(writer)

    def h_invalidate(self, src: int, p: dict) -> Generator:
        self.site.cache.invalidate(self._page_key(p["gfile"], p["page"]))
        return None
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # US: truncate / attribute change
    # ------------------------------------------------------------------

    def truncate(self, handle: UsHandle) -> Generator:
        if not handle.mode.writable:
            raise EBADF("truncate needs a write open")
        if handle.pending_writes:
            # Staged write-behind pages are about to be dropped by the
            # truncate anyway; discarding them unsent leaves exactly the
            # post-state the per-page protocol reaches.
            handle.pending_writes.clear()
            handle.pending_size = 0
        # Earlier page images are dropped by the truncate; a failover
        # replay starts from the truncate instead.
        handle.staged_pages.clear()
        handle.staged_truncate = True
        if handle.ss_site == self.sid:
            so = self.ss[handle.gfile]
            yield from self._ss_truncate(so)
        else:
            # Failover-aware: an SS that dropped our open state after an
            # asymmetric partition answers EBADF — re-home the handle (the
            # staged truncate replays there) and retry.  Truncating twice
            # is truncating once, so duplicate delivery is safe too.
            yield from self._read_rpc(handle, "fs.truncate",
                                      {"gfile": handle.gfile})
        self.site.cache.invalidate_file(*handle.gfile)
        handle.size = 0
        handle.dirty = True
        return None

    def h_truncate(self, src: int, p: dict) -> Generator:
        so = self.ss.get(p["gfile"])
        if so is None:
            raise EBADF(f"{p['gfile']} not open at {self.sid}")
        yield from self._ss_truncate(so)
        return None

    def _ss_truncate(self, so: SsOpen) -> Generator:
        so.shadow.truncate()
        yield from self.site.cpu(self.cost.disk_write)
        self.site.cache.invalidate_file(*so.gfile)
        # Snapshot: concurrent readers may register page holders while the
        # invalidations below are in flight.
        holders_snapshot = {us for holders in so.page_holders.values()
                            for us in holders}
        so.page_holders.clear()
        for us in sorted(holders_snapshot):
            if us != self.sid:
                yield from self.site.oneway_quiet(us, "fs.invalidate_file",
                                                  {"gfile": so.gfile})

    def set_attrs(self, handle: UsHandle, **patch) -> Generator:
        """Stage inode-only changes (ownership, permissions...)."""
        if not handle.mode.writable:
            raise EBADF("attribute change needs a write open")
        handle.staged_attrs.update(patch)
        if handle.ss_site == self.sid:
            self.ss[handle.gfile].shadow.set_attrs(**patch)
        else:
            # Keep the SS-side operation order of the per-page protocol:
            # staged pages precede the attribute change on the wire.
            yield from self._flush_writes(handle)
            # Absolute patches are idempotent against duplicate delivery,
            # and failover-aware like truncate: EBADF from an SS that lost
            # our open re-homes the handle and replays staged state.
            yield from self._read_rpc(handle, "fs.set_attrs",
                                      {"gfile": handle.gfile, "patch": patch})
        handle.attrs.update(patch)
        handle.dirty = True
        return None

    def h_set_attrs(self, src: int, p: dict) -> Generator:
        so = self.ss.get(p["gfile"])
        if so is None:
            raise EBADF(f"{p['gfile']} not open at {self.sid}")
        so.shadow.set_attrs(**p["patch"])
        yield from self.site.cpu(self.cost.buffer_hit)
        return None

    # ------------------------------------------------------------------
    # Commit / abort (section 2.3.6)
    # ------------------------------------------------------------------

    def commit(self, handle: UsHandle) -> Generator:
        """Make this open's changes permanent, atomically."""
        if handle.closed:
            raise EBADF("commit on closed handle")
        if not handle.mode.writable:
            raise EBADF("commit needs a write open")
        tracer = self.site.tracer
        span = prev = None
        if tracer is not None and tracer.enabled:
            span, prev = tracer.begin("fs.commit", "fs", self.sid,
                                      attrs={"gfile": list(handle.gfile),
                                             "ss": handle.ss_site})
        status_label = "ok"
        start = self.site.sim.now
        try:
            if handle.ss_site == self.sid:
                vv = yield from self._ss_commit(handle.gfile)
            else:
                vv = yield from self._commit_remote(handle)
            handle.clear_staged()
            handle.dirty = False
            handle.attrs["version"] = vv
            return vv
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
            status_label = type(exc).__name__
            raise
        finally:
            self.site.metrics.observe("fs.commit", self.site.sim.now - start)
            if span is not None:
                tracer.finish(span, prev, status=status_label)

    def _commit_remote(self, handle: UsHandle) -> Generator:
        """Commit at a remote SS, exactly once.

        With supervision off this is the paper's single unsupervised
        ``fs.commit``.  With it on, the request is stamped and retried under a
        timeout: a retry reaching the same SS replays the memoized result
        from its durable ledger (the first attempt's reply was lost, not
        its effect), and when the SS itself is gone the handle re-homes to
        a surviving replica (``rehome``) and commits there.  A
        timed-out attempt is *ambiguous* — it may have applied before the
        circuit closed — so the re-homed commit carries a version-vector
        floor bumped for every SS an ambiguous attempt reached: whichever
        way the ambiguity resolves, the surviving replica's version
        strictly dominates the lost one instead of diverging from it.
        """
        payload = {"gfile": handle.gfile}
        yield from self._expect_pages(handle, payload)
        if not self.cost.supervise_remote_ops:
            vv = yield from self.site.rpc(handle.ss_site, "fs.commit",
                                          payload)
            return vv
        stamp = self.site.next_stamp()
        payload["_stamp"] = stamp
        ambiguous: Set[int] = set()
        attempt = 0
        try:
            while True:
                payload["_ack"] = self.site.stamp_ack()
                target = handle.ss_site
                try:
                    vv = yield from self.site.rpc(
                        target, "fs.commit", payload,
                        timeout=self.site.backstop)
                    return vv
                except (EWRITELOST, NetworkError, EBADF) as exc:
                    # The patient budget: with replay and re-home making
                    # retries safe, the commit should ride out a whole
                    # loss burst rather than surface a transient as a
                    # failed write.
                    if handle.closed or attempt >= PATIENT_RETRIES:
                        raise
                    attempt += 1
                    if isinstance(exc, NetworkError):
                        # The attempt may have applied before the circuit
                        # closed; only a ledger replay or the vv floor can
                        # disambiguate.
                        ambiguous.add(target)
                    self.site.metrics.count("fs.commit_retries")
                    yield patient_backoff(attempt - 1)
                    if handle.closed:
                        raise
                    if isinstance(exc, EWRITELOST):
                        # The SS received fewer page writes than we
                        # shipped (lost one-ways) and dropped its staged
                        # state.  Not ambiguous — the commit definitively
                        # did not apply.  Replay the retained staged
                        # operations and try again.
                        yield from self._replay_staged(handle)
                        yield from self._expect_pages(handle, payload)
                        continue
                    same_site = handle.ss_site == target
                    if same_site and isinstance(exc, NetworkError) \
                            and attempt < 2:
                        # First retry goes back to the same SS: if it is
                        # reachable again its ledger replays the result.
                        continue
                    if same_site:
                        yield from self.rehome(handle)
                    yield from self._expect_pages(handle, payload)
                    floor = handle.attrs["version"]
                    for s in sorted(ambiguous):
                        floor = floor.bump(s)
                    payload["vv_floor"] = floor
        finally:
            self.site.stamp_done(stamp[1])

    def _expect_pages(self, handle: UsHandle, payload: dict) -> Generator:
        """Put into a commit request the number of page writes the SS must
        have received, so a write lost to a closed circuit fails the
        commit instead of half-applying or silently committing a hole."""
        if self.cost.batch_writes:
            # Flush the write-behind remainder first: the count covers it.
            yield from self._flush_writes(handle)
            payload["expected_pages"] = handle.pages_sent
        else:
            # The per-page protocol's writes are one-way with no delivery
            # guarantee either; the same commit guard applies.  The count
            # rides the header (underscore key, excluded from the wire-size
            # model) so fault-free message timing matches the paper's
            # protocol exactly.
            payload["_expected"] = handle.pages_sent

    def abort(self, handle: UsHandle) -> Generator:
        """Undo changes back to the previous commit point."""
        if handle.closed:
            raise EBADF("abort on closed handle")
        handle.pending_writes.clear()
        handle.pending_size = 0
        handle.clear_staged()
        yield from self.site.rpc(handle.ss_site, "fs.abort",
                                 {"gfile": handle.gfile})
        self.site.cache.invalidate_file(*handle.gfile)
        handle.dirty = False
        inode_attrs = yield from self._fetch_attrs_anywhere(handle.gfile)
        handle.attrs = dict(inode_attrs)
        return None

    def h_commit(self, src: int, p: dict) -> Generator:
        expected = p.get("expected_pages")
        if expected is None:
            expected = p.get("_expected")
        so = self.ss.get(p["gfile"])
        # A physical write failure mid-chunk also stops the staged count;
        # that case is left to _ss_commit, which reports the root cause
        # (EIO), not the count mismatch it produced.
        if (expected is not None and so is not None and so.io_error is None
                and so.pages_received != expected):
            # One-way page writes were partially delivered (a lost
            # fs.write_page/fs.write_pages closed the circuit, and this
            # commit reopened it).  Never half-commit: drop the staged
            # state and fail the commit back to the US, which replays its
            # retained page images and retries.
            received = so.pages_received
            yield from self._ss_abort(p["gfile"])
            raise EWRITELOST(
                f"commit of {p['gfile']} expected {expected} staged "
                f"page writes, storage site received {received}")
        vv = yield from self._ss_commit(p["gfile"], stamp=p.get("_stamp"),
                                        vv_floor=p.get("vv_floor"))
        return vv

    def h_abort(self, src: int, p: dict) -> Generator:
        yield from self._ss_abort(p["gfile"])
        return None

    def _ss_commit(self, gfile: Gfile, stamp: Optional[tuple] = None,
                   vv_floor: Optional[VersionVector] = None) -> Generator:
        so = self.ss.get(gfile)
        if so is None:
            raise EBADF(f"{gfile} not open at storage site {self.sid}")
        if so.io_error is not None:
            # A page write failed at the disk after its one-way message was
            # acknowledged; committing would make the hole permanent.
            detail = so.io_error
            yield from self._ss_abort(gfile)
            raise EIO(f"commit refused, staged write failed: {detail}")
        pages_changed = so.shadow.shadowed_pages
        if vv_floor is not None:
            # A re-homed commit after failover: the new version must
            # dominate every copy an ambiguous earlier attempt may have
            # committed, so the retry supersedes the lost attempt instead
            # of diverging from it.
            new_version = so.shadow.incore.version.merge(vv_floor) \
                .bump(self.sid)
            vv = so.shadow.commit(new_version=new_version,
                                  mtime=self.site.sim.now)
        else:
            vv = so.shadow.commit(mtime=self.site.sim.now)
        if stamp is not None:
            # Same atomic step as the commit itself (no yields since): the
            # durable reply memo and the applied-ops audit shadow move
            # with the inode write, so a crash can never separate "applied"
            # from "recorded" in a way that re-executes on retry.
            pack_ = self.local_pack(gfile[0])
            key = tuple(stamp)
            pack_.applied_ops[key] = pack_.applied_ops.get(key, 0) + 1
            self._pack_ledger(gfile[0]).commit(stamp[0], stamp[1], vv)
        so.pages_received = 0
        yield from self.site.cpu(self.cost.disk_write)  # the inode write
        # Committed-view pages cached before this commit are now stale.
        self.site.cache.invalidate_committed(*gfile)
        pack = self.local_pack(gfile[0])
        attrs = pack.get_inode(gfile[1]).attrs()
        yield from self._after_commit(gfile, attrs, pages_changed)
        return vv

    def _ss_abort(self, gfile: Gfile) -> Generator:
        so = self.ss.get(gfile)
        if so is None:
            raise EBADF(f"{gfile} not open at storage site {self.sid}")
        so.shadow.abort()
        so.pages_received = 0
        so.io_error = None
        self.site.cache.invalidate_file(*gfile)
        yield from self.site.cpu(self.cost.buffer_hit)
        return None

    def _after_commit(self, gfile: Gfile, attrs: dict,
                      pages: List[int]) -> Generator:
        """Notify the CSS and the other storage sites (section 2.3.6: 'As
        part of the commit operation, the SS sends messages to all the other
        SSs of that file as well as the CSS')."""
        gfs = gfile[0]
        css = self.mount.css_for(gfs)
        self._note_version(gfile, attrs["version"])
        payload = {"gfile": gfile, "attrs": attrs, "pages": pages,
                   "origin": self.sid}
        # Synchronous to the CSS so its latest-version knowledge is
        # current before the committing call returns.
        try:
            yield from self.site.rpc(css, "fs.notify", payload)
        except NetworkError:
            pass
        for target in self.mount.pack_sites(gfs):
            if target in (self.sid, css):
                continue
            yield from self.site.oneway_quiet(target, "fs.notify", payload)
        if attrs["deleted"]:
            yield from self._local_delete_seen(gfile, attrs)
        return None

    # ------------------------------------------------------------------
    # Commit notification / propagation intake
    # ------------------------------------------------------------------

    def h_notify(self, src: int, p: dict) -> Generator:
        gfile: Gfile = p["gfile"]
        attrs: dict = p["attrs"]
        self._note_version(gfile, attrs["version"])
        if self.mount.css.get(gfile[0]) == self.sid:
            entry = self.css_entries.get(gfile)
            if entry is not None:
                if attrs["version"].dominates(entry.latest_vv):
                    entry.latest_vv = attrs["version"]
                entry.storage_sites = list(attrs["storage_sites"])
        if p.get("_recovery_reply"):
            # A holder superseded what our recovery sweep pushed: the
            # sweep's inventory snapshot went stale mid-run (a commit
            # landed between the inventory and the propagation).
            # Re-reconcile against fresh inventories so every behind copy
            # learns the real best, not just the site the answer reached
            # (and fall through — this site may be behind too).
            recovery = getattr(self.site, "recovery", None)
            if recovery is not None:
                recovery.request(gfile)
        pack = self.local_pack(gfile[0])
        if pack is None or p["origin"] == self.sid:
            # No pack here, or the commit originated at this very site (the
            # SS already holds the data).  Note: recovery sends itself
            # notifies with origin = the winning site, which must proceed.
            return None
        inode = pack.get_inode(gfile[1])
        if p.get("_scrub_placement"):
            # Anti-entropy placement repair: this pack stores data the
            # inode no longer advertises here.  The normal path below
            # returns "already current" on an equal version before ever
            # reaching the replica-drop branch, so the scrub's retire
            # request is honoured explicitly (and only when the pushed
            # attributes are at least as new as the local copy).
            if inode is not None and inode.has_data \
                    and self.sid not in attrs["storage_sites"] \
                    and attrs["version"].dominates(inode.version):
                self._drop_copy(gfile, pack, inode, attrs)
            return None
        if inode is not None and inode.version.dominates(attrs["version"]):
            if p.get("_recovery") and inode.version != attrs["version"]:
                # A recovery sweep pushed a version this copy strictly
                # supersedes — its inventory raced a commit.  Answer with
                # our attributes so the sweep re-runs on fresh state;
                # dropping the stale push silently would strand every
                # other behind replica until the next membership change.
                yield from self.site.oneway_quiet(src, "fs.notify", {
                    "gfile": gfile, "attrs": inode.attrs(), "pages": None,
                    "origin": self.sid, "_recovery_reply": True})
            return None  # already current
        if attrs["deleted"]:
            yield from self._apply_remote_delete(gfile, attrs)
            return None
        if (inode is not None and inode.has_data
                and self.sid not in attrs["storage_sites"]):
            # This pack's copy was dropped (a replica move is an add
            # followed by a delete of a copy, section 2.2.1).
            self._drop_copy(gfile, pack, inode, attrs)
            return None
        if inode is not None and inode.has_data \
                and not attrs["version"].dominates(inode.version):
            # Neither copy dominates (a dominant local copy returned
            # above): normal commit traffic just revealed concurrent
            # lineages — e.g. a merge installed while a writer was still
            # in flight.  A pull could only lose one side; hand the file
            # to recovery, whose merge machinery folds both lineages into
            # one dominating version or marks the file in conflict.
            recovery = getattr(self.site, "recovery", None)
            if recovery is not None:
                recovery.request(gfile)
            return None
        if inode is not None and inode.has_data:
            # pages=None means "origin did not say what changed": full pull.
            self.propagator.enqueue(gfile, attrs, p.get("pages"),
                                    hint=p["origin"])
        elif self.sid in attrs["storage_sites"]:
            # A new file this pack should store: install and pull.
            pack.install_inode(dict(attrs, ino=gfile[1]), has_data=True)
            inode = pack.get_inode(gfile[1])
            inode.version = VersionVector()  # we have no pages yet
            inode.pages = []
            self.propagator.enqueue(gfile, attrs, None, hint=p["origin"])
        else:
            pack.install_inode(dict(attrs, ino=gfile[1]), has_data=False)
        return None

    def _apply_remote_delete(self, gfile: Gfile, attrs: dict) -> Generator:
        pack = self.local_pack(gfile[0])
        inode = pack.get_inode(gfile[1])
        had_data = inode is not None and inode.has_data
        if inode is None:
            inode = pack.install_inode(dict(attrs, ino=gfile[1]),
                                       has_data=False)
        self._drop_copy(gfile, pack, inode, attrs)
        yield from self.site.cpu(self.cost.disk_write)
        if had_data:
            yield from self._send_delete_seen(gfile, attrs)
        return None

    def _drop_copy(self, gfile: Gfile, pack: Pack, inode,
                   attrs: dict) -> None:
        """This pack stops storing the file: free its pages, take the
        pushed attributes and forget any cached pages."""
        pack.drop_data(gfile[1])
        inode.apply_attrs(attrs)
        inode.has_data = False
        self.site.cache.invalidate_file(*gfile)

    def _send_delete_seen(self, gfile: Gfile, attrs: dict) -> Generator:
        """Tell the inode's controlling pack this site has seen the delete."""
        owner = self._ino_owner_site(gfile)
        if owner is None:
            return None
        payload = {"gfile": gfile, "seen_at": self.sid,
                   "storage_sites": attrs["storage_sites"]}
        yield from self.site.oneway_quiet(owner, "fs.delete_seen", payload)
        return None

    def _local_delete_seen(self, gfile: Gfile, attrs: dict) -> Generator:
        pack = self.local_pack(gfile[0])
        if pack is not None:
            pack.drop_data(gfile[1])
        yield from self._send_delete_seen(gfile, attrs)
        return None

    def _ino_owner_site(self, gfile: Gfile) -> Optional[int]:
        sites = self.mount.pack_sites(gfile[0])
        idx = pack_index_of(gfile[1])
        if idx < len(sites):
            return sites[idx]
        return None

    def h_delete_seen(self, src: int, p: dict) -> Generator:
        """At the inode's controlling pack: 'when all the storage sites have
        seen the delete, the inode can be reallocated' (section 2.3.7).

        Numbers are never reallocated here (``Pack.alloc_inode``); the
        round only collects garbage: once every storage site has seen the
        delete, every pack's tombstone for the inode is reaped.
        """
        gfile: Gfile = p["gfile"]
        acks = self._delete_acks.setdefault(gfile, set())
        acks.add(p["seen_at"])
        acks.add(self.sid)
        if set(p["storage_sites"]) <= acks:
            for s in self.mount.pack_sites(gfile[0]):
                if s == self.sid:
                    self._reap_local(gfile)
                else:
                    yield from self.site.oneway_quiet(s, "fs.reap",
                                                      {"gfile": gfile})
            self._delete_acks.pop(gfile, None)
        return None

    def h_scrub_orphan(self, src: int, p: dict) -> Generator:
        """Retire an inode that never became (or is no longer) referenced
        by any directory entry: create-compensation and fsck repair.

        Fans out to every pack site so data-holding replicas are retired
        too, not just the copy at the site that noticed the orphan.
        """
        gfile: Gfile = p["gfile"]
        pack = self.local_pack(gfile[0])
        inode = pack.get_inode(gfile[1]) if pack else None
        if inode is not None:
            inode.deleted = True
            pack.drop_data(gfile[1])
            self._reap_local(gfile)
        if p.get("fanout", True):
            for s in self.mount.pack_sites(gfile[0]):
                if s != self.sid:
                    yield from self.site.oneway_quiet(
                        s, "fs.scrub_orphan",
                        {"gfile": gfile, "fanout": False})
        return None

    def h_reap(self, src: int, p: dict) -> Generator:
        self._reap_local(p["gfile"])
        return None
        yield  # pragma: no cover

    def _reap_local(self, gfile: Gfile) -> None:
        pack = self.local_pack(gfile[0])
        if pack is not None:
            inode = pack.get_inode(gfile[1])
            if inode is not None and inode.deleted:
                pack.release_inode(gfile[1])
        self.known_latest.pop(gfile, None)
        self.css_entries.pop(gfile, None)
        so = self.ss.get(gfile)
        if so is not None and so.total_users == 0:
            self.ss.pop(gfile, None)   # the file is gone: drop idle state
        self.site.cache.invalidate_file(*gfile)

    # ------------------------------------------------------------------
    # Close (section 2.3.3)
    # ------------------------------------------------------------------

    def close(self, handle: UsHandle) -> Generator:
        if handle.closed:
            raise EBADF("double close")
        # "Closing a file commits it" (section 2.3.6).
        commit_error = None
        if handle.mode.writable and handle.dirty:
            try:
                yield from self.commit(handle)
            except FsError as exc:
                # The SS refused (e.g. a staged page hit a disk write
                # error): undo to the previous commit point — which also
                # drops locally cached pages of the never-committed data —
                # finish the close, and surface the failure through the
                # close like Unix's deferred write error.  Communication
                # failures are NOT caught: reconfiguration cleanup owns
                # those (the descriptor is marked in error instead).
                commit_error = exc
                yield from self.abort(handle)
        handle.closed = True
        self.us.pop(handle.hid, None)
        gfile = handle.gfile
        if handle.ss_site == self.sid:
            yield from self._ss_close_local(gfile, handle.mode, self.sid)
        elif handle.sync:
            if self.cost.supervise_remote_ops:
                # Stamped: fs.close decrements open counts, so a duplicate
                # delivery must replay, not double-close.  If the SS is
                # gone for good, release the CSS registration directly —
                # the commit (if any) is already durable, and leaving the
                # write token claimed would starve every later writer
                # until reconfiguration cleanup notices.
                try:
                    yield from self.site.supervised_rpc(
                        handle.ss_site, "fs.close",
                        {"gfile": gfile, "mode": handle.mode}, once=True)
                except NetworkError:
                    self.site.metrics.count("fs.close_rescues")
                    css = self.mount.css_for(gfile[0])
                    payload = {"gfile": gfile, "us": self.sid,
                               "mode": handle.mode}
                    if css == self.sid:
                        yield from self.h_css_ss_close(self.sid, payload)
                    else:
                        # The release must actually land: a leaked write
                        # token starves every later writer with EBUSY
                        # until reconfiguration notices.  Supervised and
                        # stamped (note_close decrements reader counts),
                        # best-effort beyond that.
                        try:
                            yield from self.site.supervised_rpc(
                                lambda: self.mount.css_for(gfile[0]),
                                "fs.css_ss_close", payload, once=True)
                        except (NetworkError, FsError):
                            yield from self.site.oneway_quiet(
                                css, "fs.css_ss_close", payload)
            else:
                yield from self.site.rpc(handle.ss_site, "fs.close", {
                    "gfile": gfile, "mode": handle.mode,
                })
            self.site.cache.invalidate_file(*gfile)
        else:
            yield from self.site.oneway_quiet(handle.ss_site,
                                              "fs.close_unsync",
                                              {"gfile": gfile})
            self.site.cache.invalidate_file(*gfile)
        if commit_error is not None:
            raise commit_error
        return None

    def h_close(self, src: int, p: dict) -> Generator:
        yield from self._ss_close_local(p["gfile"], p["mode"], src)
        return None

    def h_close_unsync(self, src: int, p: dict) -> Generator:
        so = self.ss.get(p["gfile"])
        if so is not None:
            so.drop_user(src, Mode.UNSYNC)
            self._maybe_drop_ss(p["gfile"], so)
        return None
        yield  # pragma: no cover

    def _ss_close_local(self, gfile: Gfile, mode: Mode, us: int) -> Generator:
        so = self.ss.get(gfile)
        if so is None:
            return None
        so.drop_user(us, mode)
        if mode.synchronized:
            css = self.mount.css_for(gfile[0])
            payload = {"gfile": gfile, "us": us, "mode": mode}
            if css == self.sid:
                yield from self.h_css_ss_close(self.sid, payload)
            elif self.cost.supervise_remote_ops:
                # Stamped so a duplicate delivery replays instead of
                # double-decrementing open counts; the fault-free path
                # stays the paper's synchronous one-pair notification.
                payload["_stamp"] = self.site.next_stamp()
                payload["_ack"] = self.site.stamp_ack()
                try:
                    yield from self.site.rpc(
                        css, "fs.css_ss_close", payload,
                        timeout=self.site.backstop)
                    self.site.stamp_done(payload["_stamp"][1])
                except NetworkError:
                    # The release must land or the writer token leaks
                    # and every later open gets EBUSY until
                    # reconfiguration.  Spawned: the close reply must
                    # not wait out a loss burst's worth of retries.
                    self.site.spawn(
                        self._notify_css_close(gfile, payload),
                        name=f"css-close:{gfile}@{self.sid}")
            else:
                try:
                    yield from self.site.rpc(css, "fs.css_ss_close", payload)
                except NetworkError:
                    pass  # reconfiguration will rebuild the CSS state
        self._maybe_drop_ss(gfile, so)
        return None

    def _notify_css_close(self, gfile: Gfile, payload: dict) -> Generator:
        """Background retry of a close notification whose first attempt
        timed out; reuses the caller's stamp so the CSS replays rather
        than re-executes if the first attempt actually landed."""
        try:
            yield from self.site.supervised_rpc(
                lambda: self.mount.css_for(gfile[0]),
                "fs.css_ss_close", payload, once=True)
        except (NetworkError, FsError):
            pass  # reconfiguration will rebuild the CSS state
        finally:
            self.site.stamp_done(payload["_stamp"][1])
        return None

    def h_css_ss_close(self, src: int, p: dict) -> Generator:
        entry = self.css_entries.get(p["gfile"])
        if entry is not None:
            entry.note_close(p["us"], p["mode"])
            if not entry.in_use:
                # State data that "might affect its next synchronization
                # policy decision" is updated; idle entries may be dropped.
                self.css_entries.pop(p["gfile"], None)
        return None
        yield  # pragma: no cover

    def _maybe_drop_ss(self, gfile: Gfile, so: SsOpen) -> None:
        if so.total_users == 0:
            if so.shadow.dirty:
                so.shadow.abort()
            self.ss.pop(gfile, None)

    def h_validate_open(self, src: int, p: dict) -> Generator:
        """US side of leaked-handle detection: does this site still hold
        open handles for the file?"""
        gfile = tuple(p["gfile"])
        n = sum(1 for h in self.us.values()
                if tuple(h.gfile) == gfile and not h.closed)
        return {"open": n}
        yield  # pragma: no cover

    def validate_ss_entry(self, gfile: Gfile) -> Generator:
        """A propagation pull has been deferring on a local SS entry for a
        long time: verify each registered using site still holds the file
        open, and drop registrations whose US does not.

        The close protocol tolerates a lost ``fs.close``: the US falls
        back to releasing the CSS write token directly, so later opens
        proceed — but the SS's own open entry stays counted, and while it
        exists every propagation pull into this replica defers.  With
        unchanged membership nothing else ever collects it (section 5.6
        cleanup only reaps entries whose US left the partition), so the
        replica would stay stale forever."""
        so = self.ss.get(gfile)
        if so is None:
            return None
        for us in sorted(set(list(so.users) + list(so.unsync_users))):
            if self.ss.get(gfile) is not so:
                return None   # closed/reaped while we were validating
            try:
                reply = yield from self.site.rpc(
                    us, "fs.validate_open", {"gfile": gfile},
                    timeout=self.site.backstop)
            except (NetworkError, FsError):
                continue   # unreachable: membership cleanup owns that
            if not reply["open"]:
                if so.writer == us and so.shadow.dirty:
                    so.shadow.abort()
                    self.site.cache.invalidate_file(*gfile)
                so.drop_site(us)
                self.site.metrics.count("fs.ss_leak_repairs")
        self._maybe_drop_ss(gfile, so)
        return None

    # ------------------------------------------------------------------
    # File creation (section 2.3.7)
    # ------------------------------------------------------------------

    def h_create_file(self, src: int, p: dict) -> Generator:
        """At the primary storage site: allocate an inode from the local
        pack's pool (the placeholder protocol) and commit version 1."""
        pack = self.local_pack(p["gfs"])
        if pack is None:
            raise ESTALE(f"site {self.sid} holds no pack of fg {p['gfs']}")
        inode = pack.alloc_inode(ftype=p["ftype"], owner=p["owner"],
                                 perms=p["perms"],
                                 storage_sites=p["storage_sites"])
        inode.version = VersionVector().bump(self.sid)
        inode.mtime = self.site.sim.now
        gfile = (p["gfs"], inode.ino)
        attrs = inode.attrs()
        stamp = p.get("_stamp")
        if stamp is not None:
            # Recorded in the same atomic step as the allocation: a retry
            # arriving after a crash replays these attrs instead of
            # allocating a second (orphan) inode.
            key = tuple(stamp)
            pack.applied_ops[key] = pack.applied_ops.get(key, 0) + 1
            self._pack_ledger(p["gfs"]).commit(stamp[0], stamp[1], attrs)
        yield from self.site.cpu(self.cost.disk_write)
        # Let the other packs learn of the new file.
        yield from self._after_commit(gfile, attrs, [])
        return attrs

    # ------------------------------------------------------------------
    # Reconfiguration support
    # ------------------------------------------------------------------

    def h_invalidate_file(self, src: int, p: dict) -> Generator:
        self.site.cache.invalidate_file(*p["gfile"])
        return None
        yield  # pragma: no cover

    def h_css_rebuild(self, src: int, p: dict) -> Generator:
        """Report local open-file state so a new CSS can reconstruct its
        lock table after reconfiguration (section 5.6)."""
        gfs = p["gfs"]
        report = []
        for handle in self.us.values():
            if handle.gfile[0] == gfs and handle.sync and not handle.closed:
                report.append({"gfile": handle.gfile,
                               "mode": handle.mode,
                               "us": self.sid,
                               "ss": handle.ss_site})
        yield from self.site.cpu(self.cost.buffer_hit)
        return report
