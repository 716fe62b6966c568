"""Edge cases of the per-process syscall surface (ProcApi / Shell)."""

import pytest

from repro import LocusCluster, Signal
from repro.errors import (EACCES, EBADF, EINVAL, EIO, EISDIR, ENOENT,
                          ESRCH)


@pytest.fixture
def cluster():
    return LocusCluster(n_sites=3, seed=71)


@pytest.fixture
def sh(cluster):
    return cluster.shell(0)


class TestOpenModes:
    def test_bad_mode_string(self, sh):
        with pytest.raises(EINVAL):
            sh.open("/whatever", "x")

    def test_open_directory_readonly_ok(self, sh):
        sh.mkdir("/d")
        fd = sh.open("/d", "r")
        sh.close(fd)

    def test_open_directory_for_write_rejected(self, sh):
        sh.mkdir("/d")
        with pytest.raises(EISDIR):
            sh.open("/d", "w")

    def test_create_without_write_mode_does_not_create(self, sh):
        with pytest.raises(ENOENT):
            sh.open("/nope", "r", create=True)


    def test_a_truncate_that_raises_closes_the_open(self, cluster, sh):
        """An open whose truncate fails hands no descriptor out, so it
        must not keep the file open: no US handle, no CSS write token,
        and a later writer gets in."""
        sh.write_file("/t", b"old content")
        fs = cluster.site(0).fs
        truncate = fs.truncate

        def failing(handle):
            raise EIO("truncate failed")
            yield  # pragma: no cover

        fs.truncate = failing
        with pytest.raises(EIO):
            sh.open("/t", "w", trunc=True)
        fs.truncate = truncate
        gfile, __ = cluster.call(0, fs.resolve_gfile(None, "/t"))
        assert not [h for h in fs.us.values() if h.gfile == gfile]
        for site in cluster.sites:
            entry = site.fs.css_entries.get(gfile)
            assert entry is None or entry.writer is None
        cluster.shell(1).write_file("/t", b"new")
        assert sh.read_file("/t") == b"new"


class TestSeekAndOffsets:
    def test_bad_whence(self, sh):
        sh.write_file("/f", b"0123")
        fd = sh.open("/f")
        with pytest.raises(EINVAL):
            sh.lseek(fd, 0, "sideways")
        sh.close(fd)

    def test_negative_position_rejected(self, sh):
        sh.write_file("/f", b"0123")
        fd = sh.open("/f")
        with pytest.raises(EINVAL):
            sh.lseek(fd, -10, "set")
        sh.close(fd)

    def test_seek_on_pipe_rejected(self, sh):
        r, w = sh.pipe()
        with pytest.raises(EBADF):
            sh.lseek(r, 0)
        sh.close(r)
        sh.close(w)

    def test_write_moves_shared_offset_past_end(self, sh):
        fd = sh.open("/grow", "w", create=True)
        sh.lseek(fd, 10)
        sh.write(fd, b"tail")
        sh.close(fd)
        assert sh.read_file("/grow") == b"\x00" * 10 + b"tail"


class TestProcessEnvironment:
    def test_advice_list_places_fork(self, cluster, sh):
        where = []

        def child(api):
            where.append(api.site.site_id)
            return 0
            yield  # pragma: no cover

        sh.set_advice([2])
        sh.fork(child)          # no explicit dest: advice decides
        sh.wait()
        assert where == [2]

    def test_setcopies_validation(self, sh):
        with pytest.raises(EINVAL):
            sh.setcopies(0)
        sh.setcopies(2)
        assert sh.api.getcopies() == 2

    def test_exec_missing_load_module(self, cluster, sh):
        with pytest.raises(ENOENT):
            sh.run("/bin/ghost")

    def test_exec_garbage_load_module(self, cluster, sh):
        sh.write_file("/bin-garbled", b"\x00\x01 not json")
        with pytest.raises(EINVAL):
            sh.run("/bin-garbled")

    def test_exec_wrong_cpu_type(self, cluster, sh):
        sh.mkdir("/bin")
        sh.install_program("/bin/pdp-only", "anything", cpu="pdp11")
        with pytest.raises(EINVAL):
            sh.run("/bin/pdp-only", dest=0)   # site 0 is a vax

    def test_kill_self_signal_queue(self, cluster, sh):
        sh.kill(sh.getpid(), Signal.SIGHUP)
        assert Signal.SIGHUP in sh.proc.pending_signals

    def test_errinfo_drains(self, cluster, sh):
        sh.proc.err_info.append({"kind": "synthetic"})
        assert sh.errinfo() == [{"kind": "synthetic"}]
        assert sh.errinfo() == []


class TestFdLifecycles:
    def test_ops_on_never_opened_fd(self, sh):
        with pytest.raises(EBADF):
            sh.read(123, 1)
        with pytest.raises(EBADF):
            sh.write(123, b"x")
        with pytest.raises(EBADF):
            sh.close(123)

    def test_commit_on_pipe_rejected(self, sh):
        r, w = sh.pipe()
        with pytest.raises(EBADF):
            sh.commit(w)
        sh.close(r)
        sh.close(w)

    def test_fstat_reflects_growth(self, sh):
        fd = sh.open("/g", "w", create=True)
        assert sh.fstat(fd)["size"] == 0
        sh.write(fd, b"grow me")
        assert sh.fstat(fd)["size"] == 7
        sh.close(fd)

    def test_two_shells_are_two_processes(self, cluster):
        a = cluster.shell(0)
        b = cluster.shell(0)
        assert a.getpid() != b.getpid()
        fd = a.open("/", "r")
        with pytest.raises(EBADF):
            b.read(fd, 1)       # descriptors are per-process
        a.close(fd)


class TestConcurrentShells:
    def test_interleaved_writers_distinct_files(self, cluster):
        shells = [cluster.shell(i) for i in range(3)]
        for i, s in enumerate(shells):
            s.write_file(f"/from{i}", f"site {i}".encode())
        for i, s in enumerate(shells):
            for j in range(3):
                assert shells[j].read_file(f"/from{i}") == \
                    f"site {i}".encode()

    def test_readdir_sees_all_creations(self, cluster):
        shells = [cluster.shell(i) for i in range(3)]
        cluster.shell(0).mkdir("/spool")
        for i, s in enumerate(shells):
            s.write_file(f"/spool/job{i}", b"j")
        assert cluster.shell(1).readdir("/spool") == \
            ["job0", "job1", "job2"]
