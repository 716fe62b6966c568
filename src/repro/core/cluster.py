"""Cluster builder: sites, network, filegroups, and the boot sequence."""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Optional, Union

from repro.config import ClusterConfig, CostModel
from repro.core.site import Site
from repro.errors import EINVAL, ENOTDIR
from repro.fs.directory import DirEntry, encode_entries
from repro.fs.manager import FsManager
from repro.fs.mount import FilegroupInfo, MountTable
from repro.fs.types import Gfile, Mode, ROOT_GFS
from repro.net.network import Network
from repro.obs.load import ConvergenceMonitor
from repro.obs.tracer import Tracer
from repro.sim.simulator import Simulator
from repro.storage.inode import DiskInode, FileType
from repro.storage.pack import Pack, ROOT_INO
from repro.storage.version_vector import VersionVector

SiteRef = Union[int, Site]


class LocusCluster:
    """A simulated LOCUS network.

    >>> cluster = LocusCluster(n_sites=3)
    >>> sh = cluster.shell(0)
    >>> sh.mkdir("/tmp")
    >>> fd = sh.open("/tmp/hello", "w", create=True)
    >>> sh.write(fd, b"hi"); sh.close(fd)
    """

    def __init__(self, n_sites: int = 3, seed: int = 0,
                 cost: Optional[CostModel] = None,
                 config: Optional[ClusterConfig] = None,
                 root_pack_sites: Optional[List[int]] = None):
        if config is None:
            config = ClusterConfig(n_sites=n_sites, seed=seed,
                                   cost=cost or CostModel(),
                                   root_pack_sites=root_pack_sites)
        self.config = config
        if config.sim_kernel == "reference":
            from repro.sim.legacy import LegacySimulator
            self.sim = LegacySimulator(seed=config.seed)
        elif config.sim_kernel == "fast":
            self.sim = Simulator(seed=config.seed)
        else:
            raise ValueError(f"unknown sim_kernel {config.sim_kernel!r}")
        self.net = Network(self.sim, config.cost)
        self.sites: List[Site] = [Site(i, self.sim, self.net, config)
                                  for i in range(config.n_sites)]
        # One flight recorder for the whole cluster: spans from every site
        # land in one tree, ids flow from one counter (deterministic).
        self.tracer = Tracer(self.sim, enabled=config.cost.trace_enabled)
        self.net.tracer = self.tracer
        # One convergence monitor for the whole cluster (same pattern):
        # the fault injector notes fault vtimes, scrub/recovery note the
        # detection and repair vtimes — the difference is the divergence
        # detection-latency metric (ISSUE 10).
        self.convergence = ConvergenceMonitor(self.sim)
        for site in self.sites:
            site.tracer = self.tracer
            site.convergence = self.convergence
        # The program table stands in for compiled load-module bodies; the
        # load modules themselves are real files in the filesystem.
        self.programs: Dict[str, object] = {}
        for site in self.sites:
            site.programs = self.programs
        self._next_gfs = ROOT_GFS
        self._master_mount = MountTable()
        self._build_filesystem()
        self._attach_subsystems()
        self._boot()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_filesystem(self) -> None:
        root_packs = self.config.resolved_root_packs()
        bad = [s for s in root_packs if not 0 <= s < len(self.sites)]
        if bad:
            raise EINVAL(f"root pack sites {bad} out of range")
        self._format_filegroup(ROOT_GFS, "root", root_packs, mounted_on=None)
        self._next_gfs = ROOT_GFS + 1
        for site in self.sites:
            site.fs = FsManager(site, self._master_mount.clone())

    def _format_filegroup(self, gfs: int, name: str, pack_sites: List[int],
                          mounted_on: Optional[Gfile]) -> None:
        """mkfs: create one pack per listed site and an identical root
        directory inode (version vectors equal) on each."""
        if not pack_sites:
            raise EINVAL("a filegroup needs at least one pack site")
        info = FilegroupInfo(gfs=gfs, name=name,
                             pack_sites=list(pack_sites),
                             mounted_on=mounted_on)
        self._master_mount.add_filegroup(info)
        self._master_mount.set_css(gfs, min(pack_sites))
        root_vv = VersionVector().bump(pack_sites[0])
        seed = encode_entries([
            DirEntry(".", ROOT_INO, FileType.DIRECTORY),
            DirEntry("..", ROOT_INO, FileType.DIRECTORY),
        ])
        for index, site_id in enumerate(pack_sites):
            pack = Pack(gfs=gfs, site_id=site_id, pack_index=index)
            if index == 0:
                inode = pack.alloc_inode(ftype=FileType.DIRECTORY,
                                         perms=0o755,
                                         storage_sites=list(pack_sites))
                assert inode.ino == ROOT_INO
            else:
                inode = DiskInode(ino=ROOT_INO, ftype=FileType.DIRECTORY,
                                  perms=0o755,
                                  storage_sites=list(pack_sites))
                pack.inodes[ROOT_INO] = inode
            block = pack.alloc_block()
            pack.write_block(block, seed)
            inode.pages = [block]
            inode.size = len(seed)
            inode.version = root_vv
            self.sites[site_id].packs[gfs] = pack

    def _attach_subsystems(self) -> None:
        # Imported here to keep module dependencies one-directional.
        from repro.fs.scrub import ScrubManager
        from repro.proc.manager import ProcManager
        from repro.recovery.manager import RecoveryManager
        from repro.reconfig.topology import TopologyService
        from repro.tx.manager import TxManager
        for site in self.sites:
            site.proc = ProcManager(site)
            site.tx = TxManager(site)
            site.recovery = RecoveryManager(site)
            site.scrub = ScrubManager(site)
            site.topology = TopologyService(site, n_sites=len(self.sites))

    def _boot(self) -> None:
        for site in self.sites:
            site.fs.propagator.start()
            site.topology.boot(all_sites=set(range(len(self.sites))))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def site(self, ref: SiteRef) -> Site:
        if isinstance(ref, Site):
            return ref
        return self.sites[ref]

    @property
    def scheduler(self):
        """Execution-site selection policies (lazy; see
        :class:`repro.proc.scheduler.Scheduler`)."""
        if not hasattr(self, "_scheduler"):
            from repro.proc.scheduler import Scheduler
            self._scheduler = Scheduler(self)
        return self._scheduler

    def register_program(self, name: str, fn) -> None:
        """Register an executable body: ``fn(api, *args)`` is a kernel
        procedure run when a process execs a load module naming it."""
        self.programs[name] = fn

    def set_cpu_type(self, ref: SiteRef, cpu: str) -> None:
        """Declare a site's machine type (heterogeneous networks)."""
        self.site(ref).cpu_type = cpu

    def shell(self, ref: SiteRef, user: str = "root"):
        """A synchronous per-site syscall facade (see :class:`Shell`)."""
        from repro.core.syscalls import Shell
        return Shell(self, self.site(ref), user=user)

    @property
    def stats(self):
        return self.net.stats

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def call(self, ref: SiteRef, gen: Generator, name: str = ""):
        """Run one kernel procedure at a site to completion, driving the
        whole simulation (background kernel processes included)."""
        site = self.site(ref)
        task = site.spawn(gen, name=name or f"call@{site.site_id}")
        while not task.finished:
            if not self.sim.step():
                from repro.errors import DeadlockError
                raise DeadlockError(f"{task!r} blocked with no events left")
        return task.result()

    def spawn(self, ref: SiteRef, gen: Generator, name: str = ""):
        return self.site(ref).spawn(gen, name=name)

    def settle(self, max_time: float = 100000.0) -> None:
        """Run until the event queue drains (propagation, reconfiguration
        chatter...) or the time budget passes.  The clock advances only
        as far as actual events, never to the horizon.  Quiescence fires
        the simulator's idle hooks (post-heal invariant checks live
        there); the loop continues if a hook scheduled new work."""
        horizon = self.sim.now + max_time
        while True:
            self.sim.drain(horizon)
            if not self.sim.fire_idle_hooks():
                break

    def inject(self, plan):
        """Arm a scripted fault plan (see :mod:`repro.faults`) against this
        cluster; returns the armed :class:`FaultInjector`."""
        from repro.faults.injector import FaultInjector
        injector = FaultInjector(self, plan)
        injector.arm()
        return injector

    # ------------------------------------------------------------------
    # Topology control (the experiment harness's hand on the cables)
    # ------------------------------------------------------------------

    def partition(self, *groups: Iterable[int], settle: bool = True) -> None:
        """Physically partition the network into the given site groups."""
        self.net.set_partitions([set(g) for g in groups])
        if settle:
            self.settle()

    def heal(self, settle: bool = True, merge_from: Optional[int] = None
             ) -> None:
        """Repair the network and (by default) run the merge protocol."""
        self.net.heal()
        initiator = merge_from
        if initiator is None:
            initiator = min(s.site_id for s in self.sites if s.up)
        self.site(initiator).topology.request_merge()
        if settle:
            self.settle()

    def fail_site(self, ref: SiteRef, settle: bool = True) -> None:
        self.site(ref).crash()
        if settle:
            self.settle()

    def restart_site(self, ref: SiteRef, settle: bool = True,
                     merge: bool = True) -> None:
        site = self.site(ref)
        site.restart()
        if merge:
            site.topology.request_merge()
        if settle:
            self.settle()

    # ------------------------------------------------------------------
    # Additional filegroups
    # ------------------------------------------------------------------

    def add_filegroup(self, name: str, pack_sites: List[int],
                      mount_at: str) -> int:
        """Format a new filegroup and mount it at an existing empty
        directory (must be called at boot/quiesced time: the mount hierarchy
        must be the same at all sites, section 5.1)."""
        fs0 = self.sites[0].fs
        gfile, ftype = self.call(0, fs0.resolve_gfile(None, mount_at),
                                 name="resolve-mountpoint")
        if ftype is not FileType.DIRECTORY:
            raise ENOTDIR(mount_at)
        gfs = self._next_gfs
        self._next_gfs += 1
        self._format_filegroup(gfs, name, pack_sites, mounted_on=gfile)
        info = self._master_mount.filegroup(gfs)
        css = self._master_mount.css_for(gfs)
        for site in self.sites:
            site.fs.mount.add_filegroup(FilegroupInfo(
                gfs=gfs, name=name, pack_sites=list(pack_sites),
                mounted_on=gfile))
            site.fs.mount.set_css(gfs, css)
        return gfs

    def __repr__(self) -> str:
        up = sum(1 for s in self.sites if s.up)
        return (f"<LocusCluster sites={len(self.sites)} up={up} "
                f"t={self.sim.now:.1f}>")
