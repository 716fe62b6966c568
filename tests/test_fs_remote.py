"""Remote file access: transparency and the exact message sequences of
paper section 2.3 / Figure 2.

The cluster has 3 sites, root filegroup packed at all of them, CSS = site 0.
"""

import pytest

from repro import LocusCluster, Mode
from repro.errors import EBADF, EBUSY
from repro.net.stats import StatsWindow


@pytest.fixture
def cluster():
    return LocusCluster(n_sites=3, seed=3)


def open_msgs(cluster, us, gfile, mode=Mode.READ):
    """Run one open at `us` and return (handle, open-protocol msg counts)."""
    site = cluster.site(us)
    win = StatsWindow(cluster.stats)
    handle = cluster.call(us, site.fs.open_gfile(gfile, mode))
    snap = win.close()
    protocol = {k: v for k, v in snap.sent.items()
                if k.startswith(("fs.css_open", "fs.ss_open"))}
    return handle, protocol, snap


def make_file(cluster, at_site, path, data=b"x", copies=1):
    shell = cluster.shell(at_site)
    shell.setcopies(copies)
    shell.write_file(path, data)
    cluster.settle()
    return shell.stat(path)


class TestFigure2OpenProtocol:
    """Message counts for the US/CSS/SS role placements (Figure 2)."""

    def test_all_roles_local_zero_messages(self, cluster):
        attrs = make_file(cluster, 0, "/f")          # stored at 0; CSS is 0
        __, protocol, snap = open_msgs(cluster, 0, (0, attrs["ino"]))
        assert snap.total_messages == 0

    def test_us_is_css_remote_ss_two_messages(self, cluster):
        attrs = make_file(cluster, 1, "/f")          # stored at 1; CSS is 0
        __, protocol, __ = open_msgs(cluster, 0, (0, attrs["ino"]))
        # CSS (local) polls the storage site: one request, one response.
        assert protocol == {"fs.ss_open": 1, "fs.ss_open.resp": 1}

    def test_css_stores_file_two_messages(self, cluster):
        attrs = make_file(cluster, 0, "/f")          # stored at CSS site 0
        __, protocol, __ = open_msgs(cluster, 1, (0, attrs["ino"]))
        # "the CSS picks itself as SS (without any message overhead)".
        assert protocol == {"fs.css_open": 1, "fs.css_open.resp": 1}

    def test_us_stores_latest_two_messages(self, cluster):
        attrs = make_file(cluster, 1, "/f")          # stored at the US itself
        __, protocol, __ = open_msgs(cluster, 1, (0, attrs["ino"]))
        # "the CSS selects the US as the SS and just responds appropriately."
        assert protocol == {"fs.css_open": 1, "fs.css_open.resp": 1}

    def test_general_case_four_messages(self, cluster):
        attrs = make_file(cluster, 2, "/f")          # US=1, CSS=0, SS=2
        __, protocol, __ = open_msgs(cluster, 1, (0, attrs["ino"]))
        # US -> CSS, CSS -> SS, SS -> CSS, CSS -> US.
        assert protocol == {"fs.css_open": 1, "fs.css_open.resp": 1,
                            "fs.ss_open": 1, "fs.ss_open.resp": 1}


class TestReadWriteCloseProtocols:
    def test_network_read_is_two_messages_per_page(self, cluster):
        attrs = make_file(cluster, 2, "/f", b"y" * 100)
        handle, __, __ = open_msgs(cluster, 1, (0, attrs["ino"]))
        fs = cluster.site(1).fs
        win = StatsWindow(cluster.stats)
        data = cluster.call(1, fs.read(handle, 0, 100))
        snap = win.close()
        assert data == b"y" * 100
        assert snap.sent["fs.read_page"] == 1
        assert snap.sent["fs.read_page.resp"] == 1

    def test_cached_page_rereads_are_free(self, cluster):
        attrs = make_file(cluster, 2, "/f", b"y" * 100)
        handle, __, __ = open_msgs(cluster, 1, (0, attrs["ino"]))
        fs = cluster.site(1).fs
        cluster.call(1, fs.read(handle, 0, 100))
        win = StatsWindow(cluster.stats)
        cluster.call(1, fs.read(handle, 0, 100))
        assert win.close().total_messages == 0

    def test_write_is_one_oneway_message_per_page(self, cluster):
        attrs = make_file(cluster, 2, "/f", b"a" * 10)
        handle, __, __ = open_msgs(cluster, 1, (0, attrs["ino"]),
                                   Mode.WRITE)
        fs = cluster.site(1).fs
        win = StatsWindow(cluster.stats)
        cluster.call(1, fs.write(handle, 0, b"b" * 10))
        snap = win.close()
        assert snap.sent["fs.write_page"] == 1
        assert "fs.write_page.resp" not in snap.sent

    def test_remote_close_four_message_chain(self, cluster):
        """US -> SS, SS -> CSS, CSS -> SS, SS -> US (the race-fix protocol
        of section 2.3.3 footnote)."""
        attrs = make_file(cluster, 2, "/f")
        handle, __, __ = open_msgs(cluster, 1, (0, attrs["ino"]))
        fs = cluster.site(1).fs
        win = StatsWindow(cluster.stats)
        cluster.call(1, fs.close(handle))
        snap = win.close()
        assert snap.sent == {"fs.close": 1, "fs.css_ss_close": 1,
                             "fs.css_ss_close.resp": 1, "fs.close.resp": 1}

    def test_remote_write_read_back_transparent(self, cluster):
        sh0 = cluster.shell(0)
        sh0.setcopies(1)
        sh0.write_file("/shared", b"from site 0")
        sh2 = cluster.shell(2)
        assert sh2.read_file("/shared") == b"from site 0"
        fd = sh2.open("/shared", "w", trunc=True)
        sh2.write(fd, b"rewritten remotely")
        sh2.close(fd)
        assert sh0.read_file("/shared") == b"rewritten remotely"


class TestSynchronization:
    def test_single_open_for_modification_policy(self, cluster):
        sh0, sh1 = cluster.shell(0), cluster.shell(1)
        sh0.write_file("/lock", b"x")
        fd = sh0.open("/lock", "w")
        with pytest.raises(EBUSY):
            sh1.open("/lock", "w")
        sh0.close(fd)
        fd2 = sh1.open("/lock", "w")   # free again after close
        sh1.close(fd2)

    def test_storage_site_refuses_a_read_of_a_file_it_has_not_open(
            self, cluster):
        """A page read of the open view reaching a storage site that holds
        no open state for the file (it restarted, or the open moved) is
        refused with ``EBADF``, which sends the using site's supervised
        read to another copy."""
        sh0 = cluster.shell(0)
        sh0.write_file("/unopened", b"x")
        gfile = (0, sh0.stat("/unopened")["ino"])
        with pytest.raises(EBADF):
            cluster.call(1, cluster.site(1).rpc(0, "fs.read_page", {
                "gfile": gfile, "page": 0}))

    def test_storage_site_refuses_a_second_writer(self, cluster):
        """Two partition views that each elected a CSS can each grant a
        write token; the storage site both writers meet admits only the
        first, unless its using site no longer holds the file open."""
        sh0 = cluster.shell(0)
        sh0.write_file("/two", b"x")
        gfile = (0, sh0.stat("/two")["ino"])
        ss = cluster.site(0).fs
        handle = cluster.call(1, cluster.site(1).fs.open_gfile(
            gfile, Mode.WRITE))
        assert ss.ss[gfile].writer == 1
        with pytest.raises(EBUSY):
            cluster.call(0, ss._ss_open_local(gfile, Mode.WRITE, us=2))
        assert ss.ss[gfile].writer == 1
        # The first writer's US forgets the open (its close was lost):
        # the registration is probed, dropped, and the writer admitted.
        cluster.site(1).fs.us.pop(handle.hid)
        cluster.call(0, ss._ss_open_local(gfile, Mode.WRITE, us=2))
        assert ss.ss[gfile].writer == 2

    def test_concurrent_readers_allowed(self, cluster):
        sh0, sh1, sh2 = (cluster.shell(i) for i in range(3))
        sh0.write_file("/shared", b"many readers")
        fds = [s.open("/shared") for s in (sh0, sh1, sh2)]
        for s, fd in zip((sh0, sh1, sh2), fds):
            assert s.read(fd, 100) == b"many readers"
        for s, fd in zip((sh0, sh1, sh2), fds):
            s.close(fd)

    def test_reader_and_writer_share_single_ss(self, cluster):
        """Simultaneous read and modification use one storage site
        (section 2.3.6 footnote)."""
        sh0 = cluster.shell(0)
        sh0.setcopies(3)
        sh0.write_file("/rw", b"base")
        cluster.settle()
        wfd = sh0.open("/rw", "w")
        sh1 = cluster.shell(1)
        rfd = sh1.open("/rw")
        fs1 = cluster.site(1).fs
        writer_handle = None
        for h in cluster.site(0).fs.us.values():
            if h.mode.writable:
                writer_handle = h
        reader_handle = next(iter(fs1.us.values()))
        assert reader_handle.ss_site == writer_handle.ss_site
        sh1.close(rfd)
        sh0.close(wfd)

    def test_page_token_invalidation(self, cluster):
        """A write invalidates other using sites' cached copies of the page
        (section 3.2: page-valid tokens)."""
        sh0 = cluster.shell(0)
        sh0.setcopies(1)
        sh0.write_file("/tok", b"version-A")
        cluster.settle()
        # Reader at site 1 caches the page; writer at site 2 rewrites it.
        sh1, sh2 = cluster.shell(1), cluster.shell(2)
        rfd = sh1.open("/tok")
        assert sh1.read(rfd, 9) == b"version-A"
        wfd = sh2.open("/tok", "w")
        sh2.pwrite(wfd, 0, b"version-B")
        cluster.settle()
        # The reader's next read refetches the new (staged) data.
        assert sh1.pread(rfd, 0, 9) == b"version-B"
        sh2.close(wfd)
        sh1.close(rfd)


class TestReadahead:
    def test_sequential_remote_read_prefetches(self, cluster):
        psz = cluster.config.cost.page_size
        sh2 = cluster.shell(2)
        sh2.setcopies(1)
        sh2.write_file("/ra", bytes(range(256)) * (4 * psz // 256))
        cluster.settle()
        sh1 = cluster.shell(1)
        fd = sh1.open("/ra")
        sh1.read(fd, psz)            # page 0 (sequential start)
        sh1.read(fd, psz)            # page 1: triggers prefetch of page 2
        cluster.settle()
        win = StatsWindow(cluster.stats)
        sh1.read(fd, psz)            # page 2 should now be cached
        assert win.close().sent.get("fs.read_page", 0) == 0
        sh1.close(fd)

    def test_no_readahead_when_disabled(self):
        from repro import CostModel
        cluster = LocusCluster(n_sites=3, seed=3,
                               cost=CostModel(readahead_max=0))
        psz = cluster.config.cost.page_size
        sh2 = cluster.shell(2)
        sh2.setcopies(1)
        sh2.write_file("/ra", b"z" * (4 * psz))
        cluster.settle()
        sh1 = cluster.shell(1)
        fd = sh1.open("/ra")
        sh1.read(fd, psz)
        sh1.read(fd, psz)
        cluster.settle()
        win = StatsWindow(cluster.stats)
        sh1.read(fd, psz)
        assert win.close().sent.get("fs.read_page", 0) == 1
        sh1.close(fd)


class TestDisklessUsingSites:
    def test_diskless_site_full_access(self):
        cluster = LocusCluster(n_sites=5, seed=3, root_pack_sites=[0, 1, 2])
        sh4 = cluster.shell(4)       # no pack of the root filegroup
        sh4.mkdir("/from4")
        sh4.write_file("/from4/f", b"diskless write")
        sh0 = cluster.shell(0)
        assert sh0.read_file("/from4/f") == b"diskless write"
        # The file's storage sites exclude the diskless creator.
        assert 4 not in sh0.stat("/from4/f")["storage_sites"]
