"""The T16 availability storm: one fault plan, one cluster, one client pair.

A diskless using site (0) reads a two-copy file at a steady pace while both
storage sites (1, 2) crash and restart in turn, a loss burst and a latency
spike hit the wire, and a message-count trigger drops read traffic; a light
writer rewrites a second file throughout.  T16 measures availability through
it, T17 the recorder's percentiles and parity, and ``repro.cli trace
--workload storm`` dumps its flight recording.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import CostModel
from repro.core.cluster import LocusCluster
from repro.errors import LocusError
from repro.faults import FaultPlan

PAGE = 1024
CONTENT = bytes((i * 13) % 256 for i in range(4 * PAGE))    # 4 pages
READS = 150                 # the benchmarks' run length
WRITES = 30
READ_INTERVAL = 15.0
WRITE_INTERVAL = 150.0


def storm_plan(seed: int, t0: float) -> FaultPlan:
    """Crash/restart both storage sites, one loss burst, one latency
    spike, a message-count-triggered read drop, and two audited heals."""
    return (FaultPlan(seed=seed, name="t16-storm")
            .crash(t0 + 300.0, site=1)
            .loss_burst(t0 + 1200.0, rate=0.08, duration=300.0)
            .restart(t0 + 2000.0, site=1)
            .heal(t0 + 2600.0)
            .crash(t0 + 3200.0, site=2)
            .latency_spike(t0 + 3600.0, delta=5.0, duration=400.0,
                           src=0, dst=1)
            .restart(t0 + 4800.0, site=2)
            .heal(t0 + 5400.0)
            .drop("fs.read_page", count=2, after_messages=600))


def populate(cluster: LocusCluster, copies: int = 2) -> None:
    """Write the read target ``/hot`` and the write target ``/w`` from
    site 0 with ``copies`` replicas each, and let propagation settle."""
    setup = cluster.shell(0)
    setup.setcopies(copies)
    setup.write_file("/hot", CONTENT)
    setup.write_file("/w", b"w" * 256)
    cluster.settle()


def storm_cluster(seed: int, cost: Optional[CostModel] = None,
                  n_sites: int = 3) -> LocusCluster:
    """The storm's cluster: packs on sites 1 and 2 only, files in place.
    ``cluster.sim.now`` on return is the plan's ``t0``."""
    cluster = LocusCluster(n_sites=n_sites, seed=seed,
                           root_pack_sites=[1, 2], cost=cost)
    populate(cluster)
    return cluster


def drive(cluster: LocusCluster, reads: int = READS, writes: int = WRITES,
          on_read: Optional[Callable] = None,
          on_write: Optional[Callable] = None) -> None:
    """Run the paced reader and writer at site 0 until both finish.

    ``on_read(started, data)`` sees each read as it completes (``data`` is
    ``None`` when the syscall failed); ``on_write(ok)`` each write.
    """
    api = cluster.shell(0).api

    def reader():
        for __ in range(reads):
            started = cluster.sim.now
            try:
                data = yield from api.read_file("/hot")
            except LocusError:
                data = None
            if on_read is not None:
                on_read(started, data)
            yield READ_INTERVAL

    def writer():
        for i in range(writes):
            try:
                yield from api.write_file("/w", bytes([i % 251]) * 256)
                ok = True
            except LocusError:
                ok = False
            if on_write is not None:
                on_write(ok)
            yield WRITE_INTERVAL

    cluster.spawn(0, reader())
    cluster.spawn(0, writer())
    cluster.settle(max_time=40_000.0)
