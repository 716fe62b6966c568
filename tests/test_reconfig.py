"""Dynamic reconfiguration protocols (paper section 5)."""

import pytest

from repro import LocusCluster
from repro.faults import FaultPlan
from repro.reconfig.topology import POLL_TIMEOUT
from repro.net.stats import StatsWindow


@pytest.fixture
def cluster():
    return LocusCluster(n_sites=5, seed=31)


class TestPartitionProtocol:
    def test_consensus_within_each_side(self, cluster):
        cluster.partition({0, 1, 2}, {3, 4})
        for s in (0, 1, 2):
            assert cluster.site(s).topology.partition_set == {0, 1, 2}
        for s in (3, 4):
            assert cluster.site(s).topology.partition_set == {3, 4}

    def test_three_way_partition(self, cluster):
        cluster.partition({0}, {1, 2}, {3, 4})
        assert cluster.site(0).topology.partition_set == {0}
        assert cluster.site(1).topology.partition_set == {1, 2}
        assert cluster.site(4).topology.partition_set == {3, 4}

    def test_site_failure_shrinks_partition(self, cluster):
        cluster.fail_site(2)
        for s in (0, 1, 3, 4):
            assert cluster.site(s).topology.partition_set == {0, 1, 3, 4}

    def test_sequential_failures(self, cluster):
        cluster.fail_site(4)
        cluster.fail_site(3)
        for s in (0, 1, 2):
            assert cluster.site(s).topology.partition_set == {0, 1, 2}

    def test_partition_sets_are_strict_partitions(self, cluster):
        """Communication in a fully-connected network is an equivalence
        relation: the partition sets must be disjoint or identical."""
        cluster.partition({0, 3}, {1, 2, 4})
        sets = [frozenset(cluster.site(s).topology.partition_set)
                for s in range(5)]
        for a in sets:
            for b in sets:
                assert a == b or not (a & b)

    def test_epoch_advances_on_reconfiguration(self, cluster):
        before = cluster.site(0).topology.epoch
        cluster.partition({0, 1, 2}, {3, 4})
        assert cluster.site(0).topology.epoch > before


class TestMergeProtocol:
    def test_merge_restores_full_membership(self, cluster):
        cluster.partition({0, 1}, {2, 3, 4})
        cluster.heal()
        for s in range(5):
            assert cluster.site(s).topology.partition_set == set(range(5))

    def test_merge_of_three_partitions(self, cluster):
        cluster.partition({0}, {1, 2}, {3, 4})
        cluster.heal()
        for s in range(5):
            assert cluster.site(s).topology.partition_set == set(range(5))

    def test_merge_initiated_from_any_site(self, cluster):
        cluster.partition({0, 1}, {2, 3, 4})
        cluster.heal(merge_from=4)
        for s in range(5):
            assert cluster.site(s).topology.partition_set == set(range(5))

    def test_concurrent_merge_initiators_converge(self, cluster):
        cluster.partition({0, 1}, {2, 3, 4})
        cluster.net.heal()
        # Two initiators race; the actsite arbitration settles it.
        cluster.site(3).topology.request_merge()
        cluster.site(0).topology.request_merge()
        cluster.settle()
        for s in range(5):
            assert cluster.site(s).topology.partition_set == set(range(5))

    def test_partial_heal_partial_merge(self, cluster):
        cluster.partition({0, 1}, {2, 3}, {4})
        # Repair only the 2-3 / 4 boundary.
        cluster.net.set_partitions([{0, 1}, {2, 3, 4}])
        cluster.site(2).topology.request_merge()
        cluster.settle()
        assert cluster.site(0).topology.partition_set == {0, 1}
        for s in (2, 3, 4):
            assert cluster.site(s).topology.partition_set == {2, 3, 4}

    def test_a_site_whose_merge_poll_is_lost_is_merged_again(self, cluster):
        """The heal's merge concludes without a site that is up and on its
        segment, because the poll to it was lost.  Alone in its partition,
        that site hears of no membership change that would make it merge:
        the initiator keeps merging (bounded) until it has it."""
        cluster.partition({0, 1, 2, 4}, {3})
        topo = cluster.site(0).topology
        poll, lost = topo._poll_one, []

        def lose_the_first_poll_of_3(target):
            if target == 3 and not lost:
                # Lost on the wire: it times out, long after the others
                # answered and the merge's short grace ran out.
                lost.append(target)
                yield POLL_TIMEOUT
                return None
            return (yield from poll(target))

        topo._poll_one = lose_the_first_poll_of_3
        merges = topo.stats["merge_runs"]
        cluster.heal()
        assert lost == [3]
        for s in range(5):
            assert cluster.site(s).topology.partition_set == set(range(5))
        assert topo.stats["merge_runs"] == merges + 2

    def test_restart_rejoins_via_merge(self, cluster):
        cluster.fail_site(1)
        assert cluster.site(0).topology.partition_set == {0, 2, 3, 4}
        cluster.restart_site(1)
        for s in range(5):
            assert cluster.site(s).topology.partition_set == set(range(5))


    def test_a_circuit_loss_left_at_quiescence_runs_a_merge(self):
        """A lost commit notification closes its circuit; the partition
        protocol keeps every member, so no membership change ever runs
        recovery.  At quiescence the unreconciled loss runs a merge whose
        sweep re-seeds the stale replica."""
        cluster = LocusCluster(n_sites=3, seed=31)
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/lost", b"v1")
        cluster.settle()
        merges = sum(cluster.site(s).topology.stats["merge_runs"]
                     for s in range(3))
        cluster.inject(FaultPlan(seed=31).drop("fs.notify"))
        sh.write_file("/lost", b"v2")
        cluster.settle()
        assert all(cluster.site(s).topology.partition_set == {0, 1, 2}
                   for s in range(3))
        assert sum(cluster.site(s).topology.stats["merge_runs"]
                   for s in range(3)) == merges + 1
        gfile = (0, sh.stat("/lost")["ino"])
        for s in range(3):
            assert cluster.site(s).fs.local_inode(gfile).version == \
                sh.stat("/lost")["version"]
            assert cluster.shell(s).read_file("/lost") == b"v2"


class TestCssReelection:
    def test_css_moves_when_old_css_unreachable(self, cluster):
        assert cluster.site(3).fs.mount.css_for(0) == 0
        cluster.partition({0, 1}, {2, 3, 4})
        assert cluster.site(3).fs.mount.css_for(0) == 2
        cluster.heal()
        assert cluster.site(3).fs.mount.css_for(0) == 0

    def test_file_operations_work_under_new_css(self, cluster):
        sh3 = cluster.shell(3)
        sh3.setcopies(5)
        sh3.write_file("/survivor", b"before")
        cluster.settle()
        cluster.partition({0, 1}, {2, 3, 4})
        # The old CSS (site 0) is on the other side; site 2 takes over.
        assert sh3.read_file("/survivor") == b"before"
        sh3.write_file("/survivor", b"after under new css")
        assert cluster.shell(4).read_file("/survivor") == \
            b"after under new css"

    def test_new_css_rebuilds_open_state(self, cluster):
        """Section 5.6: the new synchronization site reconstructs the lock
        table from the information remaining in the partition."""
        sh3 = cluster.shell(3)
        sh3.setcopies(5)
        sh3.write_file("/locked", b"x")
        cluster.settle()
        fd = sh3.open("/locked", "w")       # writer lock at CSS 0
        cluster.partition({0, 1}, {2, 3, 4})
        gfile = (0, sh3.stat("/locked")["ino"])
        entry = cluster.site(2).fs.css_entries.get(gfile)
        assert entry is not None and entry.writer == 3
        # The rebuilt lock still excludes a second writer.
        from repro.errors import EBUSY
        with pytest.raises(EBUSY):
            cluster.shell(4).open("/locked", "w")
        sh3.close(fd)


class TestCleanupTable:
    def test_remote_read_reopens_at_other_site(self, cluster):
        """'File (open for read): internal close, attempt to reopen at
        other site' — invisible to the process (section 5.2)."""
        sh0 = cluster.shell(0)
        sh0.setcopies(2)
        sh0.write_file("/dual", b"0123456789")
        cluster.settle()
        copy_sites = sh0.stat("/dual")["storage_sites"]
        reader_site = [s for s in range(5) if s not in copy_sites][0]
        rsh = cluster.shell(reader_site)
        fd = rsh.open("/dual")
        assert rsh.read(fd, 4) == b"0123"
        # Kill the storage site actually serving the reader.
        handle = next(iter(cluster.site(reader_site).fs.us.values()))
        cluster.fail_site(handle.ss_site)
        # The read continues against the substituted copy.
        assert rsh.read(fd, 4) == b"4567"
        rsh.close(fd)

    def test_remote_write_gets_error_in_descriptor(self, cluster):
        sh0 = cluster.shell(0)
        sh0.setcopies(1)
        sh0.write_file("/solo", b"data")
        cluster.settle()
        sh4 = cluster.shell(4)
        fd = sh4.open("/solo", "w")
        sh4.write(fd, b"pending")
        cluster.fail_site(0)
        from repro.errors import EBADF, FsError, NetworkError
        with pytest.raises((EBADF, FsError, NetworkError)):
            sh4.write(fd, b"more")
            sh4.close(fd)

    def test_ss_aborts_updates_of_lost_writer(self, cluster):
        """'Local file in use remotely (update): discard pages, close file
        and abort updates'."""
        sh0 = cluster.shell(0)
        sh0.setcopies(1)
        sh0.write_file("/abandon", b"committed")
        cluster.settle()
        sh4 = cluster.shell(4)
        fd = sh4.open("/abandon", "w")
        sh4.pwrite(fd, 0, b"uncommitt")
        cluster.fail_site(4)
        # The staged change was aborted at the storage site.
        assert sh0.read_file("/abandon") == b"committed"
        gfile = (0, sh0.stat("/abandon")["ino"])
        assert gfile not in cluster.site(0).fs.ss


class TestReconfigurationCost:
    def test_partition_protocol_message_count_linear(self, cluster):
        win = StatsWindow(cluster.stats)
        cluster.partition({0, 1, 2, 3}, {4})
        snap = win.close()
        polls = snap.sent.get("topo.part_poll", 0)
        announces = snap.sent.get("topo.part_announce", 0)
        assert polls >= 3            # consensus needed polling
        assert 0 < announces <= 20   # no broadcast storm

    def test_user_activity_continues_during_reconfiguration(self, cluster):
        """Section 5.2 principle 1: user activity should continue without
        adverse effect provided no resources are lost."""
        sh0 = cluster.shell(0)
        sh0.write_file("/busy", b"before")
        cluster.partition({0, 1, 2, 3}, {4}, settle=False)
        # Immediately use the filesystem while protocols run.
        assert sh0.read_file("/busy") == b"before"
        sh0.write_file("/busy", b"during reconfiguration")
        cluster.settle()
        assert sh0.read_file("/busy") == b"during reconfiguration"
