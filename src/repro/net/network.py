"""Partitionable message transport with virtual circuits.

Physical connectivity (who *can* exchange packets) lives here; logical
partition membership (who each kernel *believes* is up — the site tables of
paper section 5.4) lives in each site's topology service.  The merge protocol
relies on this distinction: it polls sites "thought to be down" and succeeds
once the physical fault heals.

The send path is built for throughput: when no fault hook, loss rate or
per-pair extra latency is armed — the overwhelmingly common case in large
storms — a message goes from ``send`` to a scheduled
delivery with a handful of dict operations on tuple keys and no
intermediate allocations beyond the delivery event.  Arming a hook adds
one call that runs the taps and loss draws before the same tail, so both
cases charge identical virtual time and record identical statistics.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple  # noqa: F401

from repro.config import CostModel
from repro.errors import SiteDown, Unreachable
from repro.net.message import Message, MsgKind, payload_size
from repro.net.stats import NetStats
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.simulator import Simulator

DeliverFn = Callable[[Message], None]
CircuitClosedFn = Callable[[int, str], None]

Pair = Tuple[int, int]          # canonical (low, high) site pair


def _pair_key(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


class _Circuit:
    """A virtual circuit between two sites.

    The circuits deliver messages in the order sent; if a message is lost the
    circuit is closed (section 5.1 footnote).  We track only open/closed
    state — ordering is guaranteed because per-pair latency is constant and
    the event queue is FIFO at equal timestamps.
    """

    __slots__ = ("pair", "open")

    def __init__(self, pair: Pair):
        self.pair = pair
        self.open = True


class Network:
    """All sites, their physical connectivity, and in-flight messages."""

    def __init__(self, sim: Simulator, tracer: Tracer,
                 cost: Optional[CostModel] = None):
        self.sim = sim
        self.cost = cost or CostModel()
        self.stats = NetStats()
        self._deliver_fns: Dict[int, DeliverFn] = {}
        self._closed_fns: Dict[int, CircuitClosedFn] = {}
        self._up: Set[int] = set()
        self._group: Dict[int, int] = {}     # site -> physical segment id
        self._circuits: Dict[Pair, _Circuit] = {}
        # Virtual circuits deliver in the order sent (section 5.1): a small
        # message must never overtake a large one on the same circuit.
        self._last_delivery: Dict[tuple, float] = {}
        # Extra one-way latency per (src, dst) pair, for asymmetric topologies.
        self.extra_latency: Dict[tuple, float] = {}
        # Random per-message loss probability.  A lost message closes the
        # virtual circuit (section 5.1 footnote: "If a message is lost, the
        # circuit is closed"), so loss surfaces as failure detection, never
        # as silent reordering.
        self.loss_rate: float = 0.0
        # Fault-engine hooks (repro.faults).  Taps observe every send
        # attempt (message-count triggers); drop filters may claim a message
        # as scripted loss — the circuit closes exactly as for random loss.
        self.taps: List[Callable[[Message], None]] = []
        self.drop_filters: List[Callable[[Message], bool]] = []
        # Flight recorder (repro.obs): the cluster's shared tracer, and a
        # registry of the wire-time vs queue-wait split per message.  Both
        # are observational only.
        self.tracer = tracer
        self.metrics = MetricsRegistry("net")
        # Hot-path handles: the wire-time histogram is resolved once, and
        # deliveries go through the slab-recycled scheduling path.
        self._wire_hist = self.metrics.hist("net.wire")

    # -- membership -----------------------------------------------------

    def register_site(self, site_id: int, deliver: DeliverFn,
                      circuit_closed: CircuitClosedFn) -> None:
        if site_id in self._deliver_fns:
            raise ValueError(f"site {site_id} already registered")
        self._deliver_fns[site_id] = deliver
        self._closed_fns[site_id] = circuit_closed
        self._up.add(site_id)
        self._group[site_id] = 0

    @property
    def site_ids(self) -> List[int]:
        return sorted(self._deliver_fns)

    def reachable(self, a: int, b: int) -> bool:
        """Physical reachability: both up and on the same segment."""
        if a == b:
            return a in self._up
        return (a in self._up and b in self._up
                and self._group.get(a) == self._group.get(b))

    # -- topology control (test/benchmark harness API) -------------------

    def set_partitions(self, groups: Iterable[Iterable[int]]) -> None:
        """Physically split the network into the given segments.

        Sites not mentioned keep their current segment.  Every previously
        reachable pair that the split separates is notified at both ends
        (kernels notice broken connectivity promptly: LOCUS sites exchange
        traffic constantly, so a break surfaces as a failed circuit).
        """
        old_pairs = self._reachable_pairs()
        for gid, members in enumerate(groups, start=1 + max(
                self._group.values(), default=0)):
            for site in members:
                if site not in self._deliver_fns:
                    raise ValueError(f"unknown site {site}")
                self._group[site] = gid
        self.tracer.instant("net.partition", attrs={
            "groups": sorted(sorted(g) for g in
                             self._segment_members().values())})
        self._notify_broken(old_pairs, "network partitioned")

    def heal(self) -> None:
        """Rejoin every site onto one physical segment (cable repaired).

        Kernels do not learn about this directly — the merge protocol
        discovers it by polling (section 5.5).
        """
        for site in self._group:
            self._group[site] = 0
        self.tracer.instant("net.heal")

    def _segment_members(self) -> Dict[int, list]:
        members: Dict[int, list] = {}
        for site, gid in self._group.items():
            members.setdefault(gid, []).append(site)
        return members

    def fail_site(self, site_id: int) -> None:
        """Crash a site: it stops receiving and all its circuits close."""
        old_pairs = self._reachable_pairs()
        self._up.discard(site_id)
        self._notify_broken(old_pairs, f"site {site_id} failed")

    def restore_site(self, site_id: int) -> None:
        """Power the site back on (its storage survived the crash)."""
        if site_id not in self._deliver_fns:
            raise ValueError(f"unknown site {site_id}")
        self._up.add(site_id)

    # -- sending ----------------------------------------------------------

    def latency(self, src: int, dst: int, size: int) -> float:
        return (self.cost.message_delay(size)
                + self.extra_latency.get((src, dst), 0.0))

    def send(self, src: int, dst: int, msg: Message) -> None:
        """Send a message over the (auto-opened) virtual circuit.

        Raises :class:`Unreachable` immediately when no circuit can be opened
        — this models the sender-side circuit failure the kernel would see.
        """
        if src == dst:
            raise ValueError("local operations must not use the network")
        up = self._up
        if src not in up:
            raise SiteDown(src)
        if src != dst and not (dst in up
                               and self._group[src] == self._group[dst]):
            raise Unreachable(src, dst)
        circuit = self._circuits.get((src, dst) if src < dst else (dst, src))
        if circuit is None:
            self._ensure_circuit(src, dst)
        elif not circuit.open:
            circuit.open = True
            self.stats.circuits_opened += 1
        stats = self.stats
        key = msg.stat_key()
        stats.sent[key] += 1
        stats.bytes_sent[key] += msg.size
        if (self.taps or self.drop_filters or self.loss_rate
                or self.extra_latency):
            if self._lost_to_fault(src, dst, msg):
                return
            wire = self.latency(src, dst, msg.size)
        else:
            wire = self.cost.message_delay(msg.size)
        now = self.sim.now
        arrival = now + wire
        dkey = (src, dst)
        last = self._last_delivery
        floor = last.get(dkey)
        if floor is not None and arrival <= floor:
            # FIFO: queue behind the predecessor.  Rare, so this is also
            # where the flight recorder's one need from the network lives:
            # the transit split into pure wire time and queue wait, pinned
            # on the rpc span the message serves (observational only).
            arrival = floor + 1e-9
            queue_wait = arrival - now - wire
            if queue_wait > 0.0:
                self.metrics.observe("net.queue_wait", queue_wait)
                self.tracer.event(msg.trace_ctx, "queue_wait",
                                  {"delay": queue_wait, "mtype": key})
        last[dkey] = arrival
        self._wire_hist.observe(wire)
        self.sim._schedule_recycled(arrival - now, self._deliver, (msg,))

    def _lost_to_fault(self, src: int, dst: int, msg: Message) -> bool:
        """Run the armed fault hooks — taps, then scripted and random loss
        — on one send; True when the message was lost (circuit closed)."""
        for tap in self.taps:
            tap(msg)
        if self.drop_filters and any(f(msg) for f in self.drop_filters):
            reason = "message lost (fault)"
        elif self.loss_rate and self.sim.rng.random() < self.loss_rate:
            reason = "message lost"
        else:
            return False
        self.stats.dropped += 1
        self._close_circuit((src, dst), reason)
        return True

    def _deliver(self, msg: Message) -> None:
        """Delivery-time reachability check: a break in flight drops the
        message and closes the circuit, which is how kernels detect the
        failure (lost message => closed circuit)."""
        src = msg.src
        dst = msg.dst
        up = self._up
        if src not in up or dst not in up \
                or self._group[src] != self._group[dst]:
            self.stats.dropped += 1
            self._close_circuit((src, dst), "message lost in flight")
            return
        self.stats.delivered += 1
        self._deliver_fns[dst](msg)

    def make_message(self, src: int, dst: int, mtype: str, kind: MsgKind,
                     payload, reqid: int = 0, trace_ctx=None) -> Message:
        return Message(src, dst, mtype, kind, payload,
                       payload_size(payload), reqid, trace_ctx)

    # -- circuits ----------------------------------------------------------

    def _ensure_circuit(self, a: int, b: int) -> _Circuit:
        pair = _pair_key(a, b)
        circuit = self._circuits.get(pair)
        if circuit is None:
            circuit = _Circuit(pair)
            self._circuits[pair] = circuit
            self.stats.circuits_opened += 1
        return circuit

    def _reachable_pairs(self) -> Set[Pair]:
        up = sorted(self._up)
        return {(a, b)
                for i, a in enumerate(up) for b in up[i + 1:]
                if self.reachable(a, b)}

    def _notify_broken(self, old_pairs: Set[Pair], reason: str) -> None:
        for pair in old_pairs:
            a, b = tuple(pair)
            if self.reachable(a, b):
                continue
            circuit = self._circuits.get(_pair_key(a, b))
            if circuit is not None and circuit.open:
                self._close_circuit(pair, reason)
                continue
            # No circuit existed; still tell both live endpoints the peer
            # became unreachable so the partition protocol runs.
            for end, peer in ((a, b), (b, a)):
                if end in self._up:
                    notify = self._closed_fns.get(end)
                    if notify is not None:
                        self.sim.call_soon(notify, peer, reason)

    def _close_circuit(self, pair: Iterable[int], reason: str) -> None:
        """Close the circuit between a site pair (any 2-iterable — ordered
        tuple or the historical frozenset — is accepted)."""
        a, b = tuple(pair)
        key = _pair_key(a, b)
        circuit = self._circuits.get(key)
        if circuit is None or not circuit.open:
            return
        circuit.open = False
        self.stats.circuits_closed += 1
        self.tracer.instant("net.circuit_closed",
                            attrs={"pair": list(key), "reason": reason})
        # The FIFO floor only orders messages within one circuit incarnation;
        # dropping it here keeps _last_delivery from growing without bound
        # across partitions and crashes (a fresh circuit starts fresh).
        self._last_delivery.pop((a, b), None)
        self._last_delivery.pop((b, a), None)
        for end, peer in ((a, b), (b, a)):
            if end in self._up:
                notify = self._closed_fns.get(end)
                if notify is not None:
                    # Notify asynchronously: kernels react on their own clock.
                    self.sim.call_soon(notify, peer, reason)

    def close_circuits_to(self, site_id: int, peers: Iterable[int],
                          reason: str) -> None:
        """Explicitly close circuits (logical partition removal, section 5.1:
        "removal from a partition closes all relevant virtual circuits")."""
        for peer in peers:
            self._close_circuit((site_id, peer), reason)
