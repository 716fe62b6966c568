"""The fsck consistency checker and the cluster inspector."""

import pytest

from repro import CostModel, LocusCluster
from repro.tools import cluster_report, fsck
from repro.tools.inspect import format_report


@pytest.fixture
def cluster():
    return LocusCluster(n_sites=3, seed=88)


class TestFsck:
    def test_clean_after_normal_workload(self, cluster):
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.mkdir("/a")
        sh.write_file("/a/one", b"1")
        sh.write_file("/a/two", b"2")
        sh.link("/a/one", "/a/alias")
        sh.unlink("/a/two")
        cluster.settle()
        report = fsck(cluster)
        assert report.clean, report.summary()
        assert report.inodes_checked >= 3

    def test_clean_after_partition_merge(self, cluster):
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        sh0.setcopies(3)
        sh0.write_file("/f", b"base")
        cluster.settle()
        cluster.partition({0, 1}, {2})
        sh0.write_file("/left", b"L")
        sh2.write_file("/right", b"R")
        cluster.heal()
        cluster.settle()
        report = fsck(cluster)
        assert report.clean, report.summary()

    def test_detects_unflagged_version_conflict(self, cluster):
        sh = cluster.shell(0)
        sh.setcopies(2)
        sh.write_file("/x", b"x")
        cluster.settle()
        ino = sh.stat("/x")["ino"]
        # Corrupt by hand: bump one copy's vector without propagation.
        inode = cluster.site(1).packs[0].get_inode(ino)
        inode.version = inode.version.bump(1)
        inode0 = cluster.site(0).packs[0].get_inode(ino)
        inode0.version = inode0.version.bump(0)
        report = fsck(cluster)
        assert (0, ino) in report.version_conflicts
        assert (0, ino) in report.unflagged_conflicts
        assert not report.clean

    def test_detects_dangling_entry(self, cluster):
        sh = cluster.shell(0)
        sh.write_file("/victim", b"x")
        ino = sh.stat("/victim")["ino"]
        # Vandalize: remove the inode but leave the directory entry.
        for s in range(3):
            pack = cluster.site(s).packs.get(0)
            if pack is not None:
                pack.inodes.pop(ino, None)
        report = fsck(cluster)
        assert any(name == "victim" for __, name, __ in
                   report.dangling_entries)

    def test_detects_orphan_inode(self, cluster):
        sh = cluster.shell(0)
        sh.write_file("/orphan-to-be", b"x")
        ino = sh.stat("/orphan-to-be")["ino"]
        # Vandalize: scrub the directory entry, keep the inode.
        from repro.fs.directory import decode_entries, encode_entries
        pack = cluster.site(0).packs[0]
        root = pack.get_inode(1)
        entries = [e for e in decode_entries(
            b"".join(pack.read_block(b) for b in root.pages)[:root.size])
            if e.name != "orphan-to-be"]
        data = encode_entries(entries)
        pack.write_block(root.pages[0], data)
        root.size = len(data)
        cluster.site(0).cache.clear()
        report = fsck(cluster, gfs_list=[0])
        assert (0, ino) in report.orphan_inodes

    def test_detects_nlink_mismatch(self, cluster):
        sh = cluster.shell(0)
        sh.write_file("/linked", b"x")
        sh.link("/linked", "/alias")
        ino = sh.stat("/linked")["ino"]
        cluster.site(0).packs[0].get_inode(ino).nlink = 7
        report = fsck(cluster)
        assert ((0, ino), 7, 2) in report.nlink_errors

    def test_summary_renders(self, cluster):
        text = fsck(cluster).summary()
        assert "verdict" in text and "CLEAN" in text

    def test_skips_down_sites(self, cluster):
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/f", b"x")
        cluster.settle()
        cluster.fail_site(2)
        report = fsck(cluster)
        assert report.clean, report.summary()

    def test_reads_directories_at_the_cluster_page_size(self):
        """A multi-page directory on 512-byte pages: fsck must read the
        committed image with the cluster's page size, not assume 1024."""
        cluster = LocusCluster(n_sites=3, seed=88,
                               cost=CostModel(page_size=512))
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.mkdir("/d")
        for i in range(40):
            sh.write_file(f"/d/entry-{i:02d}", b"x")
        cluster.settle()
        report = fsck(cluster)
        assert report.clean, report.summary()


class TestInspect:
    def test_cluster_report_fields(self, cluster):
        sh = cluster.shell(1)
        sh.write_file("/probe", b"x")
        report = cluster_report(cluster)
        assert len(report["sites"]) == 3
        assert report["network"]["messages"] >= 0
        site1 = report["sites"][1]
        assert site1["partition"] == [0, 1, 2]
        assert 0 in site1["packs"]
        assert site1["processes"]      # the shell's process

    def test_format_report_is_readable(self, cluster):
        text = format_report(cluster_report(cluster))
        assert "site 0" in text and "site 2" in text
        assert "partition=[0, 1, 2]" in text

    def test_report_under_live_partition(self, cluster):
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/f", b"x")
        cluster.settle()
        cluster.partition({0, 1}, {2})
        sh.write_file("/f", b"left")    # diverge while split
        report = cluster_report(cluster)
        assert report["sites"][0]["partition"] == [0, 1]
        assert report["sites"][2]["partition"] == [2]
        # The divergent write is queued for propagation to the far side.
        assert report["sites"][0]["propagation_pending"] or \
            report["sites"][1]["propagation_pending"] is not None
        text = format_report(report)
        assert "partition=[0, 1]" in text and "partition=[2]" in text

    def test_report_survives_crashed_site(self, cluster):
        sh = cluster.shell(0)
        sh.write_file("/f", b"x")
        cluster.settle()
        cluster.fail_site(2)
        report = cluster_report(cluster)
        dead = report["sites"][2]
        # Crash resets volatile topology state: alone in its partition.
        assert dead["up"] is False
        assert dead["partition"] == [2]
        assert dead["processes"] == []
        text = format_report(report)
        assert "DOWN" in text

    def test_report_before_topology_attaches(self, cluster):
        # A site inspected before its topology service boots (or after a
        # teardown) must not crash the report: empty partition, epoch 0.
        cluster.fail_site(2)
        cluster.site(2).topology = None
        report = cluster_report(cluster)
        dead = report["sites"][2]
        assert dead["partition"] == []
        assert dead["epoch"] == 0
        assert "DOWN" in format_report(report)

    def test_report_reads_through_registry(self, cluster):
        """Inspect reports the very stores ``bench/counters.py`` reads: the
        network stats, each registry, and each subsystem's ``stats``."""
        sh = cluster.shell(0)
        sh.write_file("/f", b"payload")
        sh.read_file("/f")
        cluster.settle()
        report = cluster_report(cluster)
        stats = cluster.stats
        net = report["network"]
        assert (net["messages"], net["bytes"], net["dropped"],
                net["circuits_closed"]) == (
            stats.total_messages, stats.total_bytes, stats.dropped,
            stats.circuits_closed)
        assert net["latency"]["net.wire"]["count"] == \
            cluster.net.metrics.hist("net.wire").count
        for site, row in zip(cluster.sites, report["sites"]):
            reg = site.metrics
            assert row["counters"] == dict(reg.counters)
            assert {name: h["count"] for name, h in row["latency"].items()} \
                == {name: h.count for name, h in reg.hists.items()}
            assert row["cache"]["hits"] == site.cache.stats.hits
            assert row["cache"]["misses"] == site.cache.stats.misses
            assert row["cache"]["invalidations"] == \
                site.cache.stats.invalidations
            assert row["name_cache"]["hits"] == site.name_cache.stats.hits
            assert row["name_cache"]["misses"] == \
                site.name_cache.stats.misses
            assert row["propagation"] == vars(site.fs.propagator.stats)
            assert row["scrub"] == vars(site.scrub.stats)
            assert row["recovery"] == vars(site.recovery.stats)
            assert row["topology"] == site.topology.stats
        site0 = report["sites"][0]
        assert site0["latency"]["syscall.open"]["count"] >= 1
        assert any(row["propagation"]["pulls"] for row in report["sites"])
        assert report["trace"]["spans"] > 0
