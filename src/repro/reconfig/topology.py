"""Site tables, the partition protocol, and the merge protocol.

Partition protocol (section 5.4): "the sites must reach a consensus on the
state of the network ... for every a,b in P, Pa == Pb.  This state can be
reached from any initial condition by taking successive intersections of the
partition sets of a group of sites."  A single communications failure must
not split the network into three or more parts, so the active site polls and
intersects iteratively until its partition set and new-partition set agree.

Merge protocol (section 5.5): centralized and asynchronous — "the site
initiating the protocol sends a request for information to all sites in the
network ... after a suitable time, the initiating site gives up on the other
sites, declares a new partition, and broadcasts its composition to the
world."  Contention between concurrent initiators is resolved with the
paper's actsite/fsite arbitration pseudocode; the timeout is two-level (long
while sites believed up by some respondent are still missing, short after).

Synchronization (section 5.7): no ACK lock-stepping; passive sites
periodically check on the active site and restart the protocol if it died.
Waits are ordered by protocol stage then site number, so no circular waits.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Set

from repro.errors import EBUSY, NetworkError, TaskCancelled
from repro.reconfig.cleanup import run_cleanup

# Reconfiguration timers (virtual time).  No experiment varies them, so
# they sit beside the protocols that read them.
POLL_TIMEOUT = 50.0         # RPC poll timeout of both protocols
MERGE_LONG_TIMEOUT = 200.0  # merge: while expected sites are missing
MERGE_SHORT_TIMEOUT = 40.0  # merge: after all believed-up sites replied
WATCHDOG_INTERVAL = 100.0   # passive-site check on the active site


class TopologyService:
    """Per-site membership state and reconfiguration protocols."""

    # Protocol stage ordering for the section 5.7 wait rule.
    STAGE_IDLE = 0
    STAGE_PARTITION = 1
    STAGE_MERGE = 2

    def __init__(self, site, n_sites: int):
        self.site = site
        self.all_sites: Set[int] = set(range(n_sites))
        self.partition_set: Set[int] = {site.site_id}
        self.epoch = 0
        self.stage = self.STAGE_IDLE
        self.actsite: Optional[int] = None   # merge arbitration state
        self._merge_task = None
        self._partition_task = None
        self._partition_requested = False
        self._rejoin_requested = False
        # A virtual circuit closed since the last reconciliation: some
        # message — possibly a commit notification — was lost.  The next
        # merge must run filegroup recovery even if the membership tables
        # never changed (transient loss repairs itself before the
        # partition becomes official, but the dropped update does not).
        self._lossy = False
        self.stats = {"partition_runs": 0, "merge_runs": 0,
                      "announces_received": 0}
        site.sim.idle_hooks.append(self._on_idle)
        reg = site.register_handler
        reg("topo.part_poll", self.h_part_poll)
        reg("topo.part_announce", self.h_part_announce)
        reg("topo.merge_poll", self.h_merge_poll)
        reg("topo.merge_announce", self.h_merge_announce)
        reg("topo.status", self.h_status)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def sid(self) -> int:
        return self.site.site_id

    def boot(self, all_sites: Set[int]) -> None:
        """Cold boot with pre-agreed tables (every site comes up together)."""
        self.all_sites = set(all_sites)
        self.partition_set = set(all_sites)
        self.epoch = 1

    def reset_volatile(self) -> None:
        self.partition_set = {self.sid}
        self.stage = self.STAGE_IDLE
        self.actsite = None
        self._merge_task = None
        self._partition_task = None
        self._partition_requested = False
        self._rejoin_requested = False

    def on_restart(self) -> None:
        self.epoch += 1

    # ------------------------------------------------------------------
    # Failure detection entry point
    # ------------------------------------------------------------------

    def on_circuit_closed(self, peer: int, reason: str) -> None:
        """A virtual circuit failed: the peer must leave the partition."""
        self._lossy = True
        if reason == "removed from partition":
            # The peer deliberately reconfigured without us while still able
            # to deliver the close notification: our membership belief is
            # stale, not the wire.  Running the partition protocol here can
            # livelock — successive intersections only poll sites we already
            # believe in, so a member both halves share keeps answering and
            # being re-included while the halves exclude each other forever.
            # Rejoin through the merge protocol instead (section 5.5), which
            # polls *all* sites and declares a partition from whoever
            # actually answers.
            self._schedule_rejoin(peer)
            return
        if peer not in self.partition_set:
            return
        # React immediately and locally (conservative single-site removal),
        # then run the partition protocol to reach network-wide consensus.
        if not self._partition_requested:
            self._partition_requested = True
            self._partition_task = self.site.spawn(
                self._run_partition(), name=f"partition@{self.sid}")

    def _on_idle(self) -> None:
        """Quiescence with a circuit loss not yet reconciled: a partition
        run that kept every member leaves the flag for the next merge, and
        with the network whole no other event may ever request one, so a
        commit notification the loss dropped would stay lost.  Merge now;
        its recovery sweep re-seeds the stale replica.  A site missing
        from the partition leaves the flag to the merge that brings it
        back."""
        if self._lossy and self.site.up \
                and self.partition_set == self.all_sites:
            self.request_merge()

    def _schedule_rejoin(self, peer: int) -> None:
        if self._rejoin_requested:
            return
        self._rejoin_requested = True
        self.site.spawn(self._rejoin(peer), name=f"rejoin@{self.sid}")

    def _rejoin(self, peer: int) -> Generator:
        """Bounded rejoin loop: while the excluding peer stays physically
        reachable but outside our partition, keep initiating merges — a
        single attempt's polls can all be eaten by a loss burst, and with
        every site in a singleton partition no other protocol ever fires
        again.  Stops as soon as the peer is back in the tables, the
        moment it becomes genuinely unreachable (the heal-time merge owns
        that case), or after a handful of attempts (sustained loss; the
        next close notification re-arms us).  One loop runs at a time:
        the merges it starts re-arm nothing while it runs."""
        yield 2.0  # debounce a burst of removal notifications
        try:
            for attempt in range(6):
                if not self.site.up or peer in self.partition_set:
                    return None
                if not self.site.net.reachable(self.sid, peer):
                    return None
                if self.stage == self.STAGE_IDLE:
                    self.request_merge()
                yield POLL_TIMEOUT * (attempt + 1)
        finally:
            self._rejoin_requested = False
        return None

    def _rejoin_strays(self) -> None:
        """A site outside our partition that is up and on our segment was
        left out by lost messages, not by a failure: rejoin it."""
        for peer in sorted(self.all_sites - self.partition_set):
            if self.site.net.reachable(self.sid, peer):
                self._schedule_rejoin(peer)
                return

    def request_merge(self) -> None:
        if self.stage == self.STAGE_IDLE:
            self._merge_task = self.site.spawn(
                self._run_merge(), name=f"merge@{self.sid}")

    # ------------------------------------------------------------------
    # The partition protocol (section 5.4)
    # ------------------------------------------------------------------

    def _run_partition(self) -> Generator:
        yield 1.0  # debounce: batch multiple circuit failures
        self._partition_requested = False
        if self.stage != self.STAGE_IDLE:
            return None
        self.stage = self.STAGE_PARTITION
        self.stats["partition_runs"] += 1
        try:
            p_a: Set[int] = set(self.partition_set)
            p_new: Set[int] = {self.sid}
            while p_a != p_new:
                pending = sorted(p_a - p_new)
                target = pending[0]
                try:
                    reply = yield from self.site.rpc(
                        target, "topo.part_poll",
                        {"active": self.sid},
                        timeout=POLL_TIMEOUT)
                    p_target = set(reply["partition"])
                except NetworkError:
                    p_a.discard(target)
                    continue
                except TaskCancelled:
                    raise
                p_a &= p_target
                p_a.add(self.sid)
                p_new = (p_new | {target}) & p_a
                p_new.add(self.sid)
            yield from self._announce_partition(p_a)
        finally:
            self.stage = self.STAGE_IDLE
        return None

    def _announce_partition(self, members: Set[int]) -> Generator:
        self.epoch += 1
        payload = {"members": sorted(members), "epoch": self.epoch,
                   "active": self.sid}
        for s in sorted(members - {self.sid}):
            try:
                yield from self.site.rpc(s, "topo.part_announce", payload,
                                         timeout=POLL_TIMEOUT)
            except NetworkError:
                # It will re-run the protocol on its own; consensus converges.
                pass
        yield from self._apply_membership(members)
        return None

    def h_part_poll(self, src: int, p: dict) -> Generator:
        # Stage-and-site ordering (section 5.7): a lower-ordered active site
        # wins; if we are also actively partitioning with a higher site
        # number, our run will discover the result via the announce.
        if self.stage == self.STAGE_PARTITION and src > self.sid:
            raise EBUSY(f"site {self.sid} is the lower-numbered active site")
        self._watch_active(src)
        return {"partition": sorted(self.partition_set)}
        yield  # pragma: no cover

    def h_part_announce(self, src: int, p: dict) -> Generator:
        self.stats["announces_received"] += 1
        self.epoch = max(self.epoch, p["epoch"])
        yield from self._apply_membership(set(p["members"]))
        return None

    def _watch_active(self, active: int) -> None:
        """Passive-site failure detection: check on the active site later;
        restart the protocol if it died before announcing."""
        epoch_then = self.epoch

        def _check() -> None:
            if self.epoch != epoch_then or not self.site.up:
                return  # an announce arrived; nothing to do
            if not self.site.net.reachable(self.sid, active):
                self.on_circuit_closed(active, "active site died")

        self.site.sim.schedule(WATCHDOG_INTERVAL, _check)

    # ------------------------------------------------------------------
    # The merge protocol (section 5.5)
    # ------------------------------------------------------------------

    def _run_merge(self) -> Generator:
        if self.stage != self.STAGE_IDLE:
            return None
        self.stage = self.STAGE_MERGE
        self.actsite = self.sid
        self.stats["merge_runs"] += 1
        try:
            targets = sorted(self.all_sites - {self.sid})
            replies: Dict[int, dict] = {}
            if self.site.cost.merge_sequential_poll:
                # Ablation: "in a large network, sequential polling results
                # in a large additive delay because of the timeouts and
                # retransmissions" (section 5.5).
                for s in targets:
                    reply = yield from self._poll_one(s)
                    if reply:
                        replies[s] = reply
                yield from self._merge_conclude(replies)
                return None
            tasks = {s: self.site.spawn(self._poll_one(s),
                                        name=f"merge-poll:{s}")
                     for s in targets}
            # Two-level timeout: wait long while some site believed up by a
            # respondent has not answered, then only a short grace period.
            deadline = self.site.sim.now + MERGE_LONG_TIMEOUT
            while True:
                pending = {s: t for s, t in tasks.items() if not t.finished}
                for s, t in tasks.items():
                    if t.finished and s not in replies:
                        result = t.done.exception() is None and t.result()
                        if result:
                            replies[s] = result
                if not pending:
                    break
                expected = set()
                for r in replies.values():
                    expected |= set(r["partition"])
                expected &= set(pending)
                if not expected:
                    deadline = min(deadline,
                                   self.site.sim.now + MERGE_SHORT_TIMEOUT)
                if self.site.sim.now >= deadline:
                    break
                yield 5.0
            yield from self._merge_conclude(replies)
        finally:
            self.stage = self.STAGE_IDLE
            self.actsite = None
        return None

    def _merge_conclude(self, replies: Dict[int, dict]) -> Generator:
        """Declare the new partition and broadcast its composition."""
        if self.actsite != self.sid:
            return None  # we ceded to a lower-numbered initiator
        members = {self.sid} | set(replies)
        lossy = self._lossy or any(r.get("lossy")
                                   for r in replies.values())
        if members == self.partition_set:
            # Membership is unchanged, but circuits closed since the last
            # reconciliation: a lost message may have dropped a commit
            # notification on the floor, leaving a replica silently
            # stale.  Run recovery anyway — it is read-only when every
            # copy already converged.
            if lossy:
                self._lossy = False
                self._recovery_sweep()
            self._rejoin_strays()
            return None  # nothing changed
        max_epoch = max([self.epoch] + [r["epoch"]
                                        for r in replies.values()])
        self.epoch = max_epoch + 1
        payload = {"members": sorted(members), "epoch": self.epoch,
                   "active": self.sid}
        for s in sorted(members - {self.sid}):
            try:
                yield from self.site.rpc(s, "topo.merge_announce", payload,
                                         timeout=POLL_TIMEOUT)
            except NetworkError:
                pass
        yield from self._apply_membership(members)
        return None

    def _poll_one(self, target: int) -> Generator:
        try:
            reply = yield from self.site.rpc(
                target, "topo.merge_poll", {"fsite": self.sid},
                timeout=POLL_TIMEOUT)
            return reply
        except (NetworkError, EBUSY):
            return None

    def h_merge_poll(self, src: int, p: dict) -> Generator:
        """The paper's arbitration pseudocode, verbatim in structure."""
        fsite = p["fsite"]
        if self.stage == self.STAGE_IDLE or self.actsite is None:
            self.actsite = fsite
        elif self.actsite == self.sid:              # we are actively merging
            if fsite < self.sid:
                self.actsite = fsite                # cede to the lower site
                if self._merge_task is not None:
                    self._merge_task.cancel("ceding merge to lower site")
                    self._merge_task = None
                self.stage = self.STAGE_IDLE
            else:
                raise EBUSY("decline to merge")     # it will retry or cede
        else:
            self.actsite = fsite
        self._watch_active(fsite)
        # Report (and hand off) local circuit-loss state: the initiator
        # takes responsibility for running recovery after it concludes.
        lossy, self._lossy = self._lossy, False
        return {"partition": sorted(self.partition_set),
                "epoch": self.epoch, "lossy": lossy}
        yield  # pragma: no cover

    def h_merge_announce(self, src: int, p: dict) -> Generator:
        self.stats["announces_received"] += 1
        self.epoch = max(self.epoch, p["epoch"])
        self.actsite = None
        yield from self._apply_membership(set(p["members"]))
        return None

    def h_status(self, src: int, p: dict) -> Generator:
        return {"stage": self.stage, "epoch": self.epoch,
                "partition": sorted(self.partition_set)}
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Applying a new membership: cleanup, CSS re-election, recovery
    # ------------------------------------------------------------------

    def _apply_membership(self, members: Set[int]) -> Generator:
        old = set(self.partition_set)
        if members == old:
            # Note: a pending circuit-loss flag is NOT acted on here — a
            # re-announce can arrive mid-disturbance, and a recovery sweep
            # racing live traffic creates avoidable residue.  The flag
            # survives until an explicit merge concludes at quiescence.
            return None
        lost = old - members
        gained = members - old
        lossy = self._lossy
        if gained:
            # Sites joined: the merge-time recovery below accounts for any
            # earlier loss.  On a pure shrink the flag is preserved — the
            # lost message's peer is gone, and the sweep runs when it
            # rejoins.
            self._lossy = False
        self.partition_set = set(members)
        self._rejoin_strays()
        if lost:
            self.site.net.close_circuits_to(
                self.sid, lost, "removed from partition")
        yield from run_cleanup(self.site, lost, members)
        self._reelect_css(members)
        # "Finally, the recovery procedure described in section 4 is run for
        # each filegroup to which it is necessary" — at that filegroup's CSS,
        # whenever sites joined (their packs may hold divergent copies); a
        # pending circuit-loss flag widens the sweep to every local-CSS
        # filegroup (a lost message may have dropped a commit notification
        # for a filegroup whose packs did not change hands).
        if gained and self.site.recovery is not None:
            for gfs, info in self.site.fs.mount.groups.items():
                if self.site.fs.mount.css_for(gfs) == self.sid and \
                        (lossy or set(info.pack_sites) & gained):
                    self.site.recovery.schedule_filegroup(gfs)
                    if self.site.scrub is not None:
                        # Anti-entropy backstop: delayed digest rounds
                        # catch divergence the one-shot sweep races past.
                        self.site.scrub.schedule(gfs)
        return None

    def _recovery_sweep(self) -> None:
        """Schedule filegroup recovery for every filegroup this site
        synchronizes.  Used after a merge that followed circuit loss with
        unchanged membership: the sweep is read-only when every copy
        already converged, and re-seeds any replica whose commit
        notification was lost."""
        if self.site.recovery is None:
            return
        mount = self.site.fs.mount
        for gfs in list(mount.groups):
            if mount.css_for(gfs) == self.sid:
                self.site.recovery.schedule_filegroup(gfs)
                if self.site.scrub is not None:
                    self.site.scrub.schedule(gfs)

    def _reelect_css(self, members: Set[int]) -> None:
        """Select a synchronization site for each filegroup (section 5.6),
        then rebuild its lock table from the partition's open files."""
        mount = self.site.fs.mount
        for gfs in list(mount.groups):
            new_css = mount.elect_css(gfs, members)
            if new_css is None:
                continue
            old_css = mount.css.get(gfs)
            mount.set_css(gfs, new_css)
            if new_css == self.sid and old_css != self.sid:
                self.site.spawn(self._rebuild_css(gfs, members),
                                name=f"css-rebuild:{gfs}@{self.sid}")

    def _rebuild_css(self, gfs: int, members: Set[int]) -> Generator:
        """New CSS reconstructs the lock table "from the information
        remaining in the partition" (section 5.6)."""
        from repro.fs.handles import CssEntry
        fs = self.site.fs
        for s in sorted(members):
            try:
                report = yield from self.site.rpc(
                    s, "fs.css_rebuild", {"gfs": gfs}, timeout=POLL_TIMEOUT)
            except NetworkError:
                continue
            for item in report:
                if item["ss"] not in members:
                    # The open was routed through a storage site that left
                    # the partition.  Its US is closing or substituting the
                    # handle in cleanup; resurrecting the lock would pin
                    # future opens to the departed SS.
                    continue
                gfile = item["gfile"]
                entry = fs.css_entries.get(gfile)
                if entry is None:
                    try:
                        attrs = yield from fs._css_local_attrs(gfile)
                    except Exception:  # noqa: BLE001
                        continue
                    entry = CssEntry(
                        gfile=gfile,
                        storage_sites=list(attrs["storage_sites"]),
                        latest_vv=attrs["version"])
                    fs.css_entries[gfile] = entry
                entry.note_open(item["us"], item["mode"], item["ss"])
        return None
