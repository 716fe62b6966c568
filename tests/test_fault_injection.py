"""Fault injection: message loss, descriptor exhaustion, flaky networks.

Message loss maps to the paper's model exactly: "If a message is lost, the
circuit is closed" (section 5.1), so losses surface as failure detection
and reconfiguration churn — never as silent inconsistency.

All faults here are scripted through :class:`repro.faults.FaultPlan`, so
every scenario is replayable from its seed + plan JSON (see docs/FAULTS.md).
"""

import pytest

from repro import LocusCluster
from repro.config import CostModel
from repro.errors import EMFILE, LocusError
from repro.faults import FaultPlan
from repro.tools import fsck


def _fired(inj, kind):
    return [d for __, k, d in inj.trace if k == kind]


class TestMessageLoss:
    def test_lossy_network_never_corrupts(self):
        """5% message loss during a write workload: operations may fail,
        the membership may churn, but after the weather clears everything
        reconciles and fsck is clean."""
        cluster = LocusCluster(n_sites=3, seed=201)
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/survivor", b"gen 0")
        cluster.settle()

        t0 = cluster.sim.now
        weather = 150_000.0
        inj = cluster.inject(FaultPlan(seed=201, name="lossy-weather")
                             .loss_burst(at=t0, rate=0.05, duration=weather))
        completed = 0
        for i in range(30):
            writer = cluster.shell(i % 3)
            try:
                writer.write_file(f"/f{i % 5}", f"gen {i}".encode())
                completed += 1
            except LocusError:
                pass   # a closed circuit failed the call: acceptable
            cluster.settle(max_time=2000)
        assert completed > 0

        # Weather clears: the scripted restore fires, then merge everyone
        # back and reconcile.
        cluster.sim.run(until=t0 + weather + 1.0)
        assert _fired(inj, "loss_restore"), "burst never expired"
        assert cluster.net.loss_rate == 0.0
        cluster.heal()
        cluster.settle()
        report = fsck(cluster)
        # Conflicts cannot arise from loss alone (no partitioned writes
        # succeeded on both sides of a real split), and structures must
        # be intact.
        assert report.clean, report.summary()
        assert sh.read_file("/survivor") == b"gen 0"

    def test_loss_closes_circuits_and_counts_drops(self):
        cluster = LocusCluster(n_sites=2, seed=202)
        inj = cluster.inject(           # everything is lost
            FaultPlan(seed=202).loss_burst(at=cluster.sim.now, rate=1.0,
                                           duration=1_000_000.0))
        sh = cluster.shell(0)
        with pytest.raises(LocusError):
            # Any remote operation fails fast via the closed circuit.
            cluster.shell(1).write_file("/x", b"1")
            sh.read_file("/x")
            raise LocusError("remote op unexpectedly succeeded")
        assert _fired(inj, "loss_burst")
        assert cluster.stats.dropped >= 1
        assert cluster.stats.circuits_closed >= 1


class TestDescriptorExhaustion:
    def test_emfile_at_process_limit(self):
        cluster = LocusCluster(n_sites=1, seed=203)
        sh = cluster.shell(0)
        sh.write_file("/target", b"x")
        fds = []
        with pytest.raises(EMFILE):
            for __ in range(200):
                fds.append(sh.open("/target"))
        assert len(fds) > 32          # a sane Unix-like limit
        for fd in fds:
            sh.close(fd)
        # After closing, descriptors are available again.
        fd = sh.open("/target")
        sh.close(fd)


class TestCrashDuringProtocols:
    def test_crash_mid_directory_update_leaves_old_dir(self):
        """The directory commit is atomic: killing the storage site between
        entry staging and commit leaves the previous directory content."""
        cluster = LocusCluster(n_sites=2, seed=204, root_pack_sites=[1])
        sh0 = cluster.shell(0)
        sh0.mkdir("/d")
        sh0.write_file("/d/before", b"1")
        cluster.settle()
        # Start a create whose directory update commits at site 1; the
        # scripted crash kills site 1 at an awkward mid-protocol moment.
        inj = cluster.inject(FaultPlan(seed=204, name="mid-create-crash")
                             .crash(at=cluster.sim.now + 5.0, site=1))
        fs0 = cluster.site(0).fs
        cluster.spawn(0, fs0.create_file(sh0.proc, "/d/during"))
        cluster.settle()
        assert _fired(inj, "crash"), "crash never fired"
        cluster.restart_site(1)
        cluster.settle()
        names = set(sh0.readdir("/d"))
        # Either the update committed fully or not at all.
        assert names in ({"before"}, {"before", "during"})
        assert fsck(cluster).clean


class TestBatchedWriteFaults:
    """The write-behind flush (CostModel.batch_pages > 1) under faults: a
    staged batch that only partially reaches the storage site must abort,
    never half-commit."""

    def _batched(self, seed=301):
        return LocusCluster(
            n_sites=2, seed=seed, root_pack_sites=[0],
            cost=CostModel().with_overrides(batch_pages=4))

    def test_us_crash_mid_staged_write_aborts_cleanly(self):
        """The using site dies between flushing staged chunks and the
        commit: the storage site must discard the shadow pages and keep
        the old content."""
        cluster = self._batched()
        sh0, sh1 = cluster.shell(0), cluster.shell(1)
        old = b"old" * 1500
        sh1.write_file("/w", old)
        cluster.settle()
        fs1 = cluster.site(1).fs

        def half_op():
            from repro.fs.types import Mode
            gfile, __ = yield from fs1.resolve_gfile(None, "/w")
            handle = yield from fs1.open_gfile(gfile, Mode.WRITE)
            yield from fs1.write(handle, 0, b"NEW" * 4000)
            yield 10_000_000.0          # never reaches the commit

        inj = cluster.inject(FaultPlan(seed=301, name="writer-dies")
                             .crash(at=cluster.sim.now + 50.0, site=1))
        cluster.spawn(1, half_op())
        cluster.settle()                # the writer dies mid-protocol
        assert _fired(inj, "crash"), "crash never fired"
        assert sh0.read_file("/w") == old
        cluster.restart_site(1)
        cluster.settle()
        assert cluster.shell(1).read_file("/w") == old
        assert fsck(cluster).clean

    def test_lossy_network_with_batching_never_corrupts(self):
        """The TestMessageLoss invariant, batched edition: 5% loss with
        both batching flags on may fail individual operations but must
        never leave corruption or divergence once the weather clears."""
        cluster = LocusCluster(
            n_sites=3, seed=302,
            cost=CostModel().with_overrides(
                pull_manifest=True, batch_pages=4, pull_pipeline=4))
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/survivor", b"gen 0")
        cluster.settle()
        t0 = cluster.sim.now
        weather = 150_000.0
        inj = cluster.inject(FaultPlan(seed=302, name="lossy-batched")
                             .loss_burst(at=t0, rate=0.05, duration=weather))
        completed = 0
        for i in range(30):
            writer = cluster.shell(i % 3)
            try:
                writer.write_file(f"/f{i % 5}", (f"gen {i}" * 40).encode())
                completed += 1
            except LocusError:
                pass
            cluster.settle(max_time=2000)
        assert completed > 0
        cluster.sim.run(until=t0 + weather + 1.0)
        assert _fired(inj, "loss_restore"), "burst never expired"
        cluster.heal()
        cluster.settle()
        report = fsck(cluster)
        assert report.clean, report.summary()
        assert sh.read_file("/survivor") == b"gen 0"


class TestManifestPullFaults:
    """The manifest heal path (CostModel.pull_manifest) under faults: a
    lost manifest or a lost pull falls back / retries from the queue, and
    the cluster still converges."""

    def _diverged(self, seed, n_files=8):
        cluster = LocusCluster(
            n_sites=2, seed=seed,
            cost=CostModel().with_overrides(pull_manifest=True,
                                            pull_pipeline=4,
                                            batch_pages=4))
        sh0 = cluster.shell(0)
        sh0.setcopies(2)
        for i in range(n_files):
            sh0.write_file(f"/m{i}", b"a" * 100)
        cluster.settle()
        cluster.partition({0}, {1})
        for i in range(n_files):
            sh0.write_file(f"/m{i}", bytes([i + 1]) * 300)
        return cluster, n_files

    def test_lost_manifest_falls_back_to_per_file_pulls(self):
        """Losing the fs.pull_manifest RPC must not stall the heal: every
        file still arrives through the per-file fs.pull_open protocol."""
        cluster, n = self._diverged(seed=303)
        inj = cluster.inject(
            FaultPlan(seed=303).drop("fs.pull_manifest", count=1))
        cluster.heal()
        cluster.settle()
        assert _fired(inj, "dropped") == ["fs.pull_manifest"], \
            "fault never fired"
        sh1 = cluster.shell(1)
        for i in range(n):
            assert sh1.read_file(f"/m{i}") == bytes([i + 1]) * 300
        assert fsck(cluster).clean

    def test_lost_pull_mid_wave_retries_from_queue(self):
        """A pull-read lost inside a manifest wave closes the circuit;
        the affected file is requeued and retried — not forgotten, and
        the heal does not restart from scratch."""
        cluster, n = self._diverged(seed=304)
        inj = cluster.inject(
            FaultPlan(seed=304).drop("fs.pull_read", count=1))
        cluster.heal()
        cluster.settle()
        assert _fired(inj, "dropped") == ["fs.pull_read"], \
            "fault never fired"
        sh1 = cluster.shell(1)
        for i in range(n):
            assert sh1.read_file(f"/m{i}") == bytes([i + 1]) * 300
        prop = cluster.site(1).fs.propagator.stats
        assert prop.failed >= 1          # the loss was seen and retried
        assert fsck(cluster).clean

    def test_source_crash_mid_heal_recovers_after_restart(self):
        """The only source site dies mid-heal: pulls defer, and once it
        returns the propagation queue drains to convergence."""
        cluster, n = self._diverged(seed=305)
        inj = cluster.inject(FaultPlan(seed=305, name="source-dies")
                             .crash(at=cluster.sim.now + 30.0, site=0))
        cluster.heal(settle=False)
        cluster.settle(max_time=20000)
        assert _fired(inj, "crash"), "crash never fired"
        cluster.restart_site(0)
        cluster.settle(max_time=50000)
        sh1 = cluster.shell(1)
        for i in range(n):
            assert sh1.read_file(f"/m{i}") == bytes([i + 1]) * 300
        assert fsck(cluster).clean
