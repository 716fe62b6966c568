"""The deterministic fault-injection engine (repro.faults).

Plans are data (JSON round-trip), triggers are exact (virtual time and
message counts), traces replay byte-identically under the same seed, and
the invariant checker audits the store at quiescence after every heal.
"""

import pytest

from repro import LocusCluster
from repro.errors import EIO, NetworkError
from repro.faults import FaultEvent, FaultPlan, InvariantChecker
from repro.fs.types import ROOT_GFS
from repro.tools import fsck


def _pong(src, payload):
    """A trivial RPC handler (generators only)."""
    return "pong"
    yield   # pragma: no cover


class TestPlan:
    def test_json_round_trip(self):
        plan = (FaultPlan(seed=5, name="storm")
                .crash(at=10.0, site=1)
                .restart(at=50.0, site=1)
                .partition(60.0, [0, 1], [2])
                .heal(at=100.0)
                .loss_burst(at=120.0, rate=0.1, duration=30.0)
                .latency_spike(at=160.0, delta=5.0, duration=10.0,
                               src=0, dst=1)
                .disk_errors(at=200.0, site=2, count=3)
                .drop("fs.read_page", count=2, after_messages=7))
        text = plan.to_json()
        clone = FaultPlan.from_json(text)
        assert clone.to_json() == text
        assert clone.seed == 5
        assert clone.name == "storm"
        assert [e.kind for e in clone.events] == [
            "crash", "restart", "partition", "heal", "loss_burst",
            "latency_spike", "disk_errors", "drop"]

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("crash", site=1)        # no trigger
        with pytest.raises(ValueError):
            FaultEvent("meteor", at=1.0)       # unknown kind


class TestScriptedDrops:
    def _cluster(self):
        cluster = LocusCluster(n_sites=2, seed=41)
        cluster.sites[1].register_handler("t.ping", _pong)
        return cluster

    def test_drop_closes_circuit_and_filter_unhooks(self):
        cluster = self._cluster()
        site0 = cluster.sites[0]
        plan = FaultPlan(seed=41).drop("t.ping", count=1)
        inj = cluster.inject(plan)
        closed_before = cluster.stats.circuits_closed
        with pytest.raises(NetworkError):
            cluster.call(0, site0.rpc(1, "t.ping"))
        assert cluster.stats.circuits_closed > closed_before
        assert [d for __, k, d in inj.trace if k == "dropped"] == ["t.ping"]
        cluster.settle()
        # The exhausted filter removed itself from the network.
        assert cluster.net.drop_filters == []
        # The circuit reopens on the next send; the call goes through.
        assert cluster.call(0, site0.rpc(1, "t.ping")) == "pong"

    def test_message_count_trigger_fires_mid_protocol(self):
        cluster = self._cluster()
        site0 = cluster.sites[0]
        # Each ping is two t.ping messages (request + response): the
        # trigger arms after the first exchange, dropping the second.
        plan = FaultPlan(seed=42).add(FaultEvent(
            "drop", after_messages=2, mtype="t.ping", count=1))
        inj = cluster.inject(plan)
        assert cluster.call(0, site0.rpc(1, "t.ping")) == "pong"
        with pytest.raises(NetworkError):
            cluster.call(0, site0.rpc(1, "t.ping"))
        assert [d for __, k, d in inj.trace if k == "dropped"] == ["t.ping"]


class TestDiskFaults:
    def test_staged_write_fault_refuses_commit(self):
        """A physical write error under the shadow layer must poison the
        open: the commit is refused with EIO and the old content survives
        (the one-way write protocol has no reply to carry the error)."""
        cluster = LocusCluster(n_sites=2, seed=31, root_pack_sites=[1])
        sh0 = cluster.shell(0)
        old = b"old" * 400
        sh0.write_file("/data", old)
        cluster.settle()
        plan = FaultPlan(seed=31).disk_errors(
            at=cluster.sim.now, site=1, count=1)
        cluster.inject(plan)
        cluster.settle(max_time=1.0)        # let the event fire
        with pytest.raises(EIO):
            sh0.write_file("/data", b"new" * 400)
        cluster.settle()
        assert sh0.read_file("/data") == old
        assert fsck(cluster).clean


class TestDeterminismAndInvariants:
    def _storm(self):
        plan = (FaultPlan(seed=11, name="replay")
                .crash(at=260.0, site=2)
                .restart(at=700.0, site=2)
                .loss_burst(at=900.0, rate=0.2, duration=300.0)
                .heal(at=2200.0, merge=True))
        plan.check_after_heal = False       # workload may orphan under loss
        cluster = LocusCluster(n_sites=3, seed=plan.seed)
        sh = cluster.shell(0)
        sh.setcopies(3)
        inj = cluster.inject(plan)
        from repro.errors import LocusError
        for i in range(10):
            try:
                sh.write_file(f"/r{i % 4}", bytes([65 + i]) * 64)
            except LocusError:
                pass
            cluster.sim.run(until=max(cluster.sim.now, (i + 1) * 150.0))
        cluster.sim.run(until=2600.0)
        cluster.settle()
        return inj

    def test_same_seed_and_plan_replay_identical_traces(self):
        first, second = self._storm(), self._storm()
        assert first.trace == second.trace
        kinds = [k for __, k, __ in first.trace]
        assert {"crash", "restart", "loss_burst", "loss_restore",
                "heal"} <= set(kinds)

    def test_post_heal_invariant_check_runs_at_quiescence(self):
        cluster = LocusCluster(n_sites=3, seed=13)
        sh = cluster.shell(0)
        sh.setcopies(3)
        for i in range(4):
            sh.write_file(f"/q{i}", bytes([i]) * 128)
        cluster.settle()
        t0 = cluster.sim.now
        plan = (FaultPlan(seed=13, name="split")
                .partition(t0 + 10.0, [0, 1], [2])
                .heal(at=t0 + 800.0))
        inj = cluster.inject(plan)
        cluster.settle()
        kinds = [k for __, k, __ in inj.trace]
        assert kinds.count("invariant_check") == 1
        assert inj.violations == [], inj.report()
        # The check ran after the heal, at quiescence.
        heal_t = next(t for t, k, __ in inj.trace if k == "heal")
        check_t = next(t for t, k, __ in inj.trace
                       if k == "invariant_check")
        assert check_t >= heal_t

    def test_latency_spike_applies_and_restores(self):
        cluster = LocusCluster(n_sites=2, seed=17)
        t0 = cluster.sim.now
        plan = FaultPlan(seed=17).latency_spike(
            at=t0 + 5.0, delta=7.5, duration=50.0, src=0, dst=1)
        inj = cluster.inject(plan)
        cluster.sim.run(until=t0 + 10.0)
        assert cluster.net.extra_latency.get((0, 1)) == 7.5
        cluster.sim.run(until=t0 + 60.0)
        assert (0, 1) not in cluster.net.extra_latency
        assert any(k == "latency_restore" for __, k, __ in inj.trace)

    @pytest.mark.parametrize("second_ends_first", [False, True])
    def test_overlapping_loss_bursts_restore_the_pre_burst_rate(
            self, second_ends_first):
        cluster = LocusCluster(n_sites=2, seed=17)
        t0 = cluster.sim.now
        plan = (FaultPlan(seed=17)
                .loss_burst(at=t0 + 5.0, rate=0.1, duration=50.0)
                .loss_burst(at=t0 + 20.0, rate=0.3,
                            duration=10.0 if second_ends_first else 60.0))
        inj = cluster.inject(plan)
        cluster.sim.run(until=t0 + 25.0)
        assert cluster.net.loss_rate == 0.3     # the newest burst rules
        # Between the two ends, the burst still in force sets the rate.
        cluster.sim.run(until=t0 + (40.0 if second_ends_first else 60.0))
        survivor = 0.1 if second_ends_first else 0.3
        assert cluster.net.loss_rate == survivor
        cluster.sim.run(until=t0 + 100.0)
        assert cluster.net.loss_rate == 0.0
        restores = [d for __, k, d in inj.trace if k == "loss_restore"]
        assert restores == [f"rate={survivor}", "rate=0.0"]


class TestInvariantChecker:
    def test_detects_forged_divergent_replica(self):
        cluster = LocusCluster(n_sites=2, seed=19)
        sh = cluster.shell(0)
        sh.setcopies(2)
        sh.write_file("/d", b"same everywhere")
        cluster.settle()
        checker = InvariantChecker(cluster)
        assert checker.check() == []
        # Forge a silent divergence fsck cannot see: bump one copy's
        # version so it strictly dominates (no conflict, just stale peer).
        ino = sh.stat("/d")["ino"]
        inode = cluster.sites[0].packs[ROOT_GFS].get_inode(ino)
        inode.version = inode.version.bump(0)
        found = checker.check()
        assert any(v.kind == "replica_divergence" for v in found)
        # The violation carries everything needed to reproduce it.
        offender = next(v for v in found
                        if v.kind == "replica_divergence")
        assert offender.seed == cluster.config.seed
        assert f"({ROOT_GFS},{ino})" in offender.detail
