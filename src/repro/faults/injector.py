"""The fault injector: arms a :class:`FaultPlan` against a live cluster.

Virtual-time events ride the simulator's own heap; message-count triggers
ride a network tap.  Either way the action itself runs from a scheduled
event (never from inside ``Network.send``), so injection can never reenter
the protocol mid-message.

Everything the injector does is recorded in ``trace`` — a list of
``(vtime, kind, detail)`` tuples — and because all randomness flows from
the simulator's seed, replaying the same seed and plan yields a
byte-identical trace.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.faults.invariants import InvariantChecker, Violation
from repro.faults.plan import FaultEvent, FaultPlan


class FaultInjector:

    def __init__(self, cluster, plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.checker = InvariantChecker(cluster, plan)
        self.trace: List[Tuple[float, str, str]] = []
        self.violations: List[Violation] = []
        self.messages_seen = 0
        self._per_mtype: Dict[str, int] = {}
        self._msg_triggers: List[FaultEvent] = []
        # Loss bursts in force, oldest first, and the rate before them.
        self._bursts: List[FaultEvent] = []
        self._base_loss = 0.0
        self._pending_checks = 0
        self._armed = False

    # -- arming ----------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Schedule every event of the plan; install the counting tap and
        the quiescence hook for post-heal invariant checks."""
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        sim = self.cluster.sim
        for ev in self.plan.events:
            if ev.after_messages is not None:
                self._msg_triggers.append(ev)
            else:
                delay = max(0.0, ev.at - sim.now)
                sim.schedule(delay, self._fire, ev)
        self.cluster.net.taps.append(self._tap)
        sim.idle_hooks.append(self._on_idle)
        return self

    # -- triggers --------------------------------------------------------

    def _tap(self, msg) -> None:
        self.messages_seen += 1
        self._per_mtype[msg.mtype] = self._per_mtype.get(msg.mtype, 0) + 1
        ready = []
        for ev in self._msg_triggers:
            seen = (self._per_mtype.get(ev.mtype, 0) if ev.mtype
                    else self.messages_seen)
            if seen >= ev.after_messages:
                ready.append(ev)
        for ev in ready:
            self._msg_triggers.remove(ev)
            # Fire from the event queue, not from inside send().
            self.cluster.sim.call_soon(self._fire, ev)

    def _on_idle(self) -> None:
        """Quiescence: the moment a post-heal check is safe (no in-flight
        protocol activity left to race with)."""
        if not self._pending_checks:
            return
        self._pending_checks = 0
        found = self.checker.check()
        self.violations.extend(found)
        self._note("invariant_check", f"violations={len(found)}")

    # -- actions ---------------------------------------------------------

    def _fire(self, ev: FaultEvent) -> None:
        self._note(ev.kind, json.dumps(ev.to_dict(), sort_keys=True))
        getattr(self, f"_do_{ev.kind}")(ev)

    def _do_crash(self, ev: FaultEvent) -> None:
        self.cluster.site(ev.site).crash()

    def _do_restart(self, ev: FaultEvent) -> None:
        site = self.cluster.site(ev.site)
        site.restart()
        if ev.merge:
            site.topology.request_merge()

    def _do_partition(self, ev: FaultEvent) -> None:
        self.cluster.net.set_partitions([set(g) for g in ev.groups])

    def _do_heal(self, ev: FaultEvent) -> None:
        self.cluster.net.heal()
        if ev.merge:
            up = [s.site_id for s in self.cluster.sites if s.up]
            if up:
                self.cluster.site(min(up)).topology.request_merge()
        if self.plan.check_after_heal:
            self._pending_checks += 1

    def _do_loss_burst(self, ev: FaultEvent) -> None:
        """Overlapping bursts stack: the newest one in force sets the
        rate, and the rate from before the first returns with the last."""
        net = self.cluster.net
        if not self._bursts:
            self._base_loss = net.loss_rate
        self._bursts.append(ev)
        net.loss_rate = ev.rate

        def _restore() -> None:
            self._bursts.remove(ev)
            net.loss_rate = (self._bursts[-1].rate if self._bursts
                             else self._base_loss)
            self._note("loss_restore", f"rate={net.loss_rate}")

        self.cluster.sim.schedule(ev.duration, _restore)

    def _latency_pairs(self, ev: FaultEvent) -> List[tuple]:
        if ev.src is not None and ev.dst is not None:
            return [(ev.src, ev.dst)]
        ids = self.cluster.net.site_ids
        if ev.src is not None:
            return [(ev.src, d) for d in ids if d != ev.src]
        if ev.dst is not None:
            return [(s, ev.dst) for s in ids if s != ev.dst]
        return [(s, d) for s in ids for d in ids if s != d]

    def _do_latency_spike(self, ev: FaultEvent) -> None:
        net = self.cluster.net
        pairs = self._latency_pairs(ev)
        for pair in pairs:
            net.extra_latency[pair] = net.extra_latency.get(pair, 0.0) \
                + ev.delta

        def _restore() -> None:
            for pair in pairs:
                left = net.extra_latency.get(pair, 0.0) - ev.delta
                if left <= 0:
                    net.extra_latency.pop(pair, None)
                else:
                    net.extra_latency[pair] = left
            self._note("latency_restore", f"delta={ev.delta}")

        self.cluster.sim.schedule(ev.duration, _restore)

    def _do_disk_errors(self, ev: FaultEvent) -> None:
        site = self.cluster.site(ev.site)
        packs = ([site.packs[ev.gfs]] if ev.gfs is not None
                 else list(site.packs.values()))
        for pack in packs:
            pack.write_faults += ev.count or 1

    def _do_drop(self, ev: FaultEvent) -> None:
        net = self.cluster.net
        remaining = [ev.count or 1]

        def _filter(msg) -> bool:
            if ev.mtype is not None and msg.mtype != ev.mtype:
                return False
            if remaining[0] <= 0:
                return False
            remaining[0] -= 1
            self._note("dropped", msg.mtype)
            if remaining[0] == 0:
                # Remove from the event queue, not mid-iteration of send().
                self.cluster.sim.call_soon(self._remove_filter, _filter)
            return True

        net.drop_filters.append(_filter)

    def _remove_filter(self, fn) -> None:
        try:
            self.cluster.net.drop_filters.remove(fn)
        except ValueError:
            pass

    # -- reporting -------------------------------------------------------

    def _note(self, kind: str, detail: str) -> None:
        self.trace.append((self.cluster.sim.now, kind, detail))
        # Mirror every injector action onto the flight-recorder timeline so
        # an exported trace shows faults alongside the spans they perturb;
        # detection latency is measured from the damaging ones
        # (``convergence`` in repro.obs.load).
        self.cluster.tracer.instant(f"fault.{kind}", attrs={"detail": detail})

    def report(self) -> str:
        lines = [f"plan {self.plan.name!r} seed={self.plan.seed}: "
                 f"{len(self.trace)} events, "
                 f"{len(self.violations)} violations"]
        lines += [f"  t={t:10.3f}  {kind:16s} {detail}"
                  for t, kind, detail in self.trace]
        lines += [f"  VIOLATION {v}" for v in self.violations]
        return "\n".join(lines)
