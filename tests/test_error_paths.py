"""Error-path coverage: remote aborts, attribute staging, misuse of the
kernel API surfaces."""

import pytest

from repro import LocusCluster, Mode
from repro.errors import EBADF, EINVAL, EIO, ENOENT, ESTALE


@pytest.fixture
def cluster():
    return LocusCluster(n_sites=3, seed=221)


class TestRemoteStagingOps:
    def test_remote_abort_discards_remote_shadow(self, cluster):
        sh2 = cluster.shell(2)
        sh2.write_file("/target", b"committed")
        cluster.settle()
        fs0 = cluster.site(0).fs
        gfile = (0, sh2.stat("/target")["ino"])
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.WRITE))
        cluster.call(0, fs0.write(handle, 0, b"DOOMED!!!"))
        cluster.call(0, fs0.abort(handle))
        cluster.call(0, fs0.close(handle))
        assert sh2.read_file("/target") == b"committed"

    def test_close_finishes_when_commit_and_abort_both_fail(
            self, cluster, monkeypatch):
        """A refused commit whose storage site also dropped the open: the
        abort's ``fs.abort`` answers EBADF, yet the close completes and
        surfaces the commit's error, so no leaked handle keeps telling
        the SS's leaked-open check that the file is still open here."""
        sh2 = cluster.shell(2)
        sh2.write_file("/target", b"committed")
        cluster.settle()
        fs0 = cluster.site(0).fs
        gfile = (0, sh2.stat("/target")["ino"])
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.WRITE))
        cluster.call(0, fs0.write(handle, 0, b"DOOMED!!!"))
        ss = cluster.site(handle.ss_site).fs
        ss_abort = ss._ss_abort

        def abort_and_drop(g):
            yield from ss_abort(g)
            ss.ss.pop(g)

        monkeypatch.setattr(ss, "_ss_abort", abort_and_drop)
        ss.ss[gfile].io_error = "disk write failed"
        with pytest.raises(EIO):
            cluster.call(0, fs0.close(handle))
        assert handle.closed
        assert handle.hid not in fs0.us
        assert cluster.call(0, fs0.h_validate_open(
            handle.ss_site, {"gfile": gfile})) == {"open": 0}
        assert sh2.read_file("/target") == b"committed"

    def test_remote_set_attrs_roundtrip(self, cluster):
        sh2 = cluster.shell(2)
        sh2.write_file("/meta", b"m")
        cluster.settle()
        fs0 = cluster.site(0).fs
        gfile = (0, sh2.stat("/meta")["ino"])
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.WRITE))
        cluster.call(0, fs0.set_attrs(handle, perms=0o600, owner="eve"))
        cluster.call(0, fs0.close(handle))
        cluster.settle()
        attrs = sh2.stat("/meta")
        assert attrs["perms"] == 0o600 and attrs["owner"] == "eve"

    def test_remote_truncate_via_handler(self, cluster):
        sh2 = cluster.shell(2)
        sh2.write_file("/trunc", b"long content stays long")
        cluster.settle()
        fs0 = cluster.site(0).fs
        gfile = (0, sh2.stat("/trunc")["ino"])
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.WRITE))
        cluster.call(0, fs0.truncate(handle))
        cluster.call(0, fs0.write(handle, 0, b"short"))
        cluster.call(0, fs0.close(handle))
        cluster.settle()
        assert sh2.read_file("/trunc") == b"short"


class TestKernelApiMisuse:
    def test_read_negative_args(self, cluster):
        sh = cluster.shell(0)
        sh.write_file("/f", b"x")
        fs = cluster.site(0).fs
        gfile = (0, sh.stat("/f")["ino"])
        handle = cluster.call(0, fs.open_gfile(gfile, Mode.READ))
        with pytest.raises(EINVAL):
            cluster.call(0, fs.read(handle, -1, 10))
        with pytest.raises(EINVAL):
            cluster.call(0, fs.read(handle, 0, -10))
        cluster.call(0, fs.close(handle))

    def test_write_on_read_handle(self, cluster):
        sh = cluster.shell(0)
        sh.write_file("/f", b"x")
        fs = cluster.site(0).fs
        gfile = (0, sh.stat("/f")["ino"])
        handle = cluster.call(0, fs.open_gfile(gfile, Mode.READ))
        for op in (fs.write(handle, 0, b"no"),
                   fs.truncate(handle),
                   fs.set_attrs(handle, perms=0o777),
                   fs.commit(handle)):
            with pytest.raises(EBADF):
                cluster.call(0, op)
        cluster.call(0, fs.close(handle))

    def test_double_close_and_use_after_close(self, cluster):
        sh = cluster.shell(0)
        sh.write_file("/f", b"x")
        fs = cluster.site(0).fs
        gfile = (0, sh.stat("/f")["ino"])
        handle = cluster.call(0, fs.open_gfile(gfile, Mode.READ))
        cluster.call(0, fs.close(handle))
        with pytest.raises(EBADF):
            cluster.call(0, fs.close(handle))
        with pytest.raises(EBADF):
            cluster.call(0, fs.read(handle, 0, 1))

    def test_open_deleted_gfile(self, cluster):
        sh = cluster.shell(0)
        sh.write_file("/gone", b"x")
        gfile = (0, sh.stat("/gone")["ino"])
        sh.unlink("/gone")
        fs = cluster.site(0).fs
        with pytest.raises(ENOENT):
            cluster.call(0, fs.open_gfile(gfile, Mode.READ))

    def test_ss_open_refuses_stale_copy(self, cluster):
        """Direct exercise of the refusal in section 2.3.3: a storage site
        that does not store the latest version refuses to serve."""
        sh = cluster.shell(0)
        sh.setcopies(2)
        sh.write_file("/staleable", b"v1")
        cluster.settle()
        gfile = (0, sh.stat("/staleable")["ino"])
        # Freeze site 1's propagation, then update at site 0.
        cluster.site(1).fs.propagator.enqueue = lambda *a, **k: None
        sh.write_file("/staleable", b"v2")
        fs1 = cluster.site(1).fs
        latest = sh.stat("/staleable")["version"]
        with pytest.raises(ESTALE):
            cluster.call(1, fs1.h_ss_open(0, {
                "gfile": gfile, "mode": Mode.READ, "us": 1,
                "required_vv": latest,
            }))

    def test_open_unknown_gfile(self, cluster):
        fs = cluster.site(0).fs
        with pytest.raises(ENOENT):
            cluster.call(0, fs.open_gfile((0, 424242), Mode.READ))
