"""Supervised remote operations: timeouts, bounded retry, replica failover.

The supervision layer (``cost.supervise_remote_ops``, default on) gives
remote calls a per-op timeout backstop and deterministic exponential
backoff, and lets the US read path substitute another pack copy mid-call
when its storage site dies (section 5.2 principle 3).  The write path's
half of the switch — stamps, ledgers, re-homing — is covered by
tests/test_exactly_once.py.  With the flag off every path degenerates to
the paper's unsupervised calls.
"""

import pytest

from repro import LocusCluster, Mode
from repro.config import CostModel
from repro.errors import EBUSY, LocusError, NetworkError
from repro.faults import FaultPlan
from repro.fs.types import ROOT_GFS
from repro.tools import fsck


def _handler(calls, slow_first=0.0):
    def fn(src, payload):
        calls.append(src)
        if slow_first and len(calls) == 1:
            yield slow_first
        return "pong"
        yield   # pragma: no cover
    return fn


class TestSupervisedRpc:
    def test_retries_through_a_dropped_request(self):
        cluster = LocusCluster(n_sites=2, seed=71)
        calls = []
        cluster.sites[1].register_handler("t.ping", _handler(calls))
        cluster.inject(FaultPlan(seed=71).drop("t.ping", count=1))
        result = cluster.call(
            0, cluster.sites[0].supervised_rpc(1, "t.ping"))
        assert result == "pong"
        assert len(calls) == 1          # request dropped, retry arrived

    def test_timeout_is_retried_as_a_network_failure(self):
        cluster = LocusCluster(n_sites=2, seed=72)
        calls = []
        # First call sleeps far beyond cost.rpc_timeout; the timeout
        # surfaces as a NetworkError and the retry completes fast.
        cluster.sites[1].register_handler(
            "t.slow", _handler(calls, slow_first=50_000.0))
        result = cluster.call(
            0, cluster.sites[0].supervised_rpc(1, "t.slow"))
        assert result == "pong"
        assert len(calls) == 2

    def test_flag_off_is_the_papers_unsupervised_call(self):
        cost = CostModel().with_overrides(supervise_remote_ops=False)
        cluster = LocusCluster(n_sites=2, seed=74, cost=cost)
        calls = []
        cluster.sites[1].register_handler("t.ping", _handler(calls))
        cluster.inject(FaultPlan(seed=74).drop("t.ping", count=1))
        with pytest.raises(NetworkError):
            cluster.call(0, cluster.sites[0].supervised_rpc(1, "t.ping"))
        assert calls == []

    def test_callable_dst_is_reresolved_each_attempt(self):
        """A retry chases responsibility that moved during the failure
        (e.g. a CSS re-elected while the call was failing)."""
        cluster = LocusCluster(n_sites=3, seed=75)
        calls = []
        cluster.sites[2].register_handler("t.ping", _handler(calls))
        cluster.fail_site(1)
        resolutions = []

        def resolve():
            resolutions.append(1)
            return 1 if len(resolutions) == 1 else 2

        result = cluster.call(
            0, cluster.sites[0].supervised_rpc(resolve, "t.ping"))
        assert result == "pong"
        assert len(resolutions) == 2    # first aimed at the dead site
        assert calls == [0]


class TestReadFailover:
    CONTENT = bytes(range(256)) * 24            # 6 pages

    def _replicated(self, seed=51, **flags):
        cost = CostModel().with_overrides(**flags) if flags else None
        cluster = LocusCluster(n_sites=3, seed=seed,
                               root_pack_sites=[1, 2], cost=cost)
        sh0 = cluster.shell(0)
        sh0.setcopies(2)
        sh0.write_file("/hot", self.CONTENT)
        cluster.settle()
        ino = sh0.stat("/hot")["ino"]
        return cluster, (ROOT_GFS, ino)

    def test_read_survives_ss_crash_mid_call(self):
        cluster, gfile = self._replicated()
        fs0 = cluster.site(0).fs
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.READ))
        ss = handle.ss_site
        task = cluster.spawn(0, fs0.read(handle, 0, len(self.CONTENT)))
        cluster.sim.run(until=cluster.sim.now + 30.0)
        assert not task.finished        # the read is underway
        cluster.fail_site(ss)
        cluster.settle()
        assert task.finished
        assert task.result() == self.CONTENT
        # The handle was substituted onto the surviving copy.
        assert handle.ss_site != ss and cluster.site(handle.ss_site).up
        cluster.call(0, fs0.close(handle))
        cluster.restart_site(ss)
        cluster.settle()
        assert fsck(cluster).clean

    def test_unsupervised_read_fails_where_supervised_survives(self):
        cluster, gfile = self._replicated(
            seed=51, supervise_remote_ops=False)
        fs0 = cluster.site(0).fs
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.READ))
        ss = handle.ss_site
        task = cluster.spawn(0, fs0.read(handle, 0, len(self.CONTENT)))
        cluster.sim.run(until=cluster.sim.now + 30.0)
        assert not task.finished
        cluster.fail_site(ss)
        cluster.settle()
        assert task.finished
        with pytest.raises(NetworkError):
            task.result()

    def test_whole_syscall_rides_through_dropped_css_open(self):
        cluster, gfile = self._replicated(seed=52)
        inj = cluster.inject(
            FaultPlan(seed=52).drop("fs.css_open", count=1))
        assert cluster.shell(0).read_file("/hot") == self.CONTENT
        assert [d for __, k, d in inj.trace
                if k == "dropped"] == ["fs.css_open"]


class TestReopenElsewhere:
    """Reconfiguration cleanup's reader reopen (section 5.6's failure
    action for 'remote file in use locally (read)')."""

    def _open_reader(self, cluster, path="/f"):
        sh0 = cluster.shell(0)
        fs0 = cluster.site(0).fs
        ino = sh0.stat(path)["ino"]
        handle = cluster.call(
            0, fs0.open_gfile((ROOT_GFS, ino), Mode.READ))
        return fs0, handle

    def test_reader_survives_partition_via_reopen(self):
        cluster = LocusCluster(n_sites=3, seed=81, root_pack_sites=[1, 2])
        sh0 = cluster.shell(0)
        sh0.setcopies(2)
        sh0.write_file("/f", b"resilient" * 300)
        cluster.settle()
        fs0, handle = self._open_reader(cluster)
        ss = handle.ss_site
        other = 3 - ss                  # the surviving pack copy
        cluster.partition({0, other}, {ss})
        assert not handle.closed
        assert handle.ss_site == other
        data = cluster.call(0, fs0.read(handle, 0, 9 * 300))
        assert data == b"resilient" * 300
        cluster.call(0, fs0.close(handle))

    def test_reader_errors_when_no_copy_remains(self):
        cluster = LocusCluster(n_sites=2, seed=82, root_pack_sites=[1])
        sh0 = cluster.shell(0)
        sh0.write_file("/f", b"solo")
        cluster.settle()
        fs0, handle = self._open_reader(cluster)
        cluster.partition({0}, {1})
        assert handle.closed
        assert handle.attrs["error"] == "no surviving copy reachable"
        assert handle.hid not in fs0.us

    def test_reader_refuses_stale_copy(self):
        """A surviving copy older than the open version must not be
        silently substituted — time never runs backwards for a reader."""
        cluster = LocusCluster(n_sites=3, seed=83, root_pack_sites=[1, 2])
        sh0 = cluster.shell(0)
        sh0.setcopies(2)
        sh0.write_file("/f", b"generation 1")
        cluster.settle()                # both copies at v1
        cluster.fail_site(2)
        sh0.write_file("/f", b"generation 2")
        cluster.settle()                # v2 on site 1 only
        fs0, handle = self._open_reader(cluster)
        assert handle.ss_site == 1
        # Site 2 returns, stale; site 1 (the only v2 copy) dies before
        # propagation can catch 2 up.
        cluster.restart_site(2, settle=False, merge=False)
        cluster.fail_site(1, settle=False)
        cluster.settle()
        assert handle.closed
        assert handle.attrs["error"] == "remaining copies are stale"
