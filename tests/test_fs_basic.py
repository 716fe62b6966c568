"""Local filesystem behaviour: the Unix-compatible surface (paper section 2).

Everything here runs where US == CSS == SS, the fully local case the paper
says costs the same as conventional Unix.
"""

import pytest

from repro import FileType, LocusCluster
from repro.errors import (EBADF, EEXIST, EINVAL, EISDIR, ENOENT, ENOTDIR,
                          ENOTEMPTY, EXDEV)


class TestCreateReadWrite:
    def test_write_then_read_roundtrip(self, sh):
        sh.write_file("/a", b"hello world")
        assert sh.read_file("/a") == b"hello world"

    def test_empty_file(self, sh):
        sh.write_file("/empty", b"")
        assert sh.read_file("/empty") == b""
        assert sh.stat("/empty")["size"] == 0

    def test_multi_page_file(self, sh, cluster):
        psz = cluster.config.cost.page_size
        data = bytes((i * 7) % 256 for i in range(3 * psz + 123))
        sh.write_file("/big", data)
        assert sh.read_file("/big") == data
        assert sh.stat("/big")["size"] == len(data)

    def test_partial_page_overwrite(self, sh):
        sh.write_file("/f", b"aaaaaaaaaa")
        fd = sh.open("/f", "w")
        sh.pwrite(fd, 3, b"XYZ")
        sh.close(fd)
        assert sh.read_file("/f") == b"aaaXYZaaaa"

    def test_write_extends_file(self, sh):
        sh.write_file("/f", b"12345")
        fd = sh.open("/f", "w")
        sh.pwrite(fd, 5, b"6789")
        sh.close(fd)
        assert sh.read_file("/f") == b"123456789"

    def test_sparse_write_zero_fills(self, sh, cluster):
        psz = cluster.config.cost.page_size
        fd = sh.open("/sparse", "w", create=True)
        sh.pwrite(fd, psz + 10, b"end")
        sh.close(fd)
        data = sh.read_file("/sparse")
        assert len(data) == psz + 13
        assert data[:psz + 10] == b"\x00" * (psz + 10)
        assert data.endswith(b"end")

    def test_sequential_read_write_via_offsets(self, sh):
        fd = sh.open("/seq", "w", create=True)
        sh.write(fd, b"one ")
        sh.write(fd, b"two ")
        sh.write(fd, b"three")
        sh.close(fd)
        fd = sh.open("/seq")
        assert sh.read(fd, 4) == b"one "
        assert sh.read(fd, 4) == b"two "
        assert sh.read(fd, 100) == b"three"
        assert sh.read(fd, 10) == b""
        sh.close(fd)

    def test_lseek(self, sh):
        sh.write_file("/s", b"0123456789")
        fd = sh.open("/s")
        sh.lseek(fd, 4)
        assert sh.read(fd, 2) == b"45"
        sh.lseek(fd, -3, "end")
        assert sh.read(fd, 3) == b"789"
        sh.lseek(fd, -5, "cur")
        assert sh.read(fd, 1) == b"5"
        sh.close(fd)
        with pytest.raises(EBADF):
            sh.read(fd, 1)

    def test_truncate_on_reopen(self, sh):
        sh.write_file("/t", b"long content here")
        sh.write_file("/t", b"x")
        assert sh.read_file("/t") == b"x"

    def test_exclusive_create_raises_eexist(self, sh):
        sh.write_file("/x", b"1")
        with pytest.raises(EEXIST):
            sh.open("/x", "w", create=True, excl=True)

    def test_open_missing_raises_enoent(self, sh):
        with pytest.raises(ENOENT):
            sh.open("/nonexistent")

    def test_double_close_raises(self, sh):
        fd = sh.open("/", "r")
        sh.close(fd)
        with pytest.raises(EBADF):
            sh.close(fd)

    def test_write_on_readonly_fd_raises(self, sh):
        sh.write_file("/ro", b"data")
        fd = sh.open("/ro", "r")
        with pytest.raises(EBADF):
            sh.write(fd, b"nope")
        sh.close(fd)


class TestCommitAbort:
    def test_changes_visible_to_later_opens_only_after_commit(self, sh):
        sh.write_file("/c", b"v1")
        fd = sh.open("/c", "w")
        sh.pwrite(fd, 0, b"v2")
        # Another synchronized open is forced to the same storage site and
        # sees the incore (staged) state there; but the committed disk state
        # is still v1 — verify via abort below.
        sh.abort(fd)
        sh.close(fd)
        assert sh.read_file("/c") == b"v1"

    def test_abort_undoes_back_to_previous_commit(self, sh):
        sh.write_file("/c", b"base")
        fd = sh.open("/c", "w")
        sh.pwrite(fd, 0, b"tmp1")
        sh.commit(fd)
        sh.pwrite(fd, 0, b"tmp2")
        sh.abort(fd)
        sh.close(fd)
        assert sh.read_file("/c") == b"tmp1"

    def test_close_commits(self, sh):
        fd = sh.open("/c", "w", create=True)
        sh.write(fd, b"committed at close")
        sh.close(fd)
        assert sh.read_file("/c") == b"committed at close"

    def test_commit_bumps_version_vector(self, sh):
        sh.write_file("/v", b"1")
        v1 = sh.stat("/v")["version"]
        sh.write_file("/v", b"2")
        v2 = sh.stat("/v")["version"]
        assert v2.dominates(v1) and v2 != v1


class TestDirectories:
    def test_mkdir_and_readdir(self, sh):
        sh.mkdir("/d")
        sh.write_file("/d/f1", b"1")
        sh.write_file("/d/f2", b"2")
        assert sh.readdir("/d") == ["f1", "f2"]

    def test_nested_directories(self, sh):
        sh.mkdir("/a")
        sh.mkdir("/a/b")
        sh.mkdir("/a/b/c")
        sh.write_file("/a/b/c/deep", b"deep")
        assert sh.read_file("/a/b/c/deep") == b"deep"
        assert sh.readdir("/a/b") == ["c"]

    def test_mkdir_existing_raises(self, sh):
        sh.mkdir("/d")
        with pytest.raises(EEXIST):
            sh.mkdir("/d")

    def test_mkdir_missing_parent_raises(self, sh):
        with pytest.raises(ENOENT):
            sh.mkdir("/no/such/parent")

    def test_rmdir_empty(self, sh):
        sh.mkdir("/d")
        sh.rmdir("/d")
        with pytest.raises(ENOENT):
            sh.readdir("/d")

    def test_rmdir_nonempty_raises(self, sh):
        sh.mkdir("/d")
        sh.write_file("/d/f", b"x")
        with pytest.raises(ENOTEMPTY):
            sh.rmdir("/d")

    def test_rmdir_file_raises_enotdir(self, sh):
        sh.write_file("/f", b"x")
        with pytest.raises(ENOTDIR):
            sh.rmdir("/f")

    def test_path_through_file_raises_enotdir(self, sh):
        sh.write_file("/f", b"x")
        with pytest.raises(ENOTDIR):
            sh.open("/f/child")

    def test_dot_and_dotdot(self, sh):
        sh.mkdir("/a")
        sh.mkdir("/a/b")
        sh.write_file("/a/b/../target", b"up")
        assert sh.read_file("/a/./b/./../target") == b"up"
        assert sh.readdir("/a/b/../..") == sh.readdir("/")

    def test_dotdot_at_root_stays_at_root(self, sh):
        assert sh.readdir("/..") == sh.readdir("/")

    def test_chdir_relative_paths(self, sh):
        sh.mkdir("/w")
        sh.chdir("/w")
        sh.write_file("rel", b"relative")
        assert sh.read_file("/w/rel") == b"relative"
        sh.chdir("..")
        assert sh.read_file("w/rel") == b"relative"

    def test_root_is_not_creatable(self, sh):
        with pytest.raises((EINVAL, EEXIST, EISDIR)):
            sh.write_file("/", b"")
        with pytest.raises((EINVAL, EEXIST, EISDIR)):
            sh.open("/", "w", create=True)

    def test_name_with_slash_rejected(self, sh):
        from repro.fs.directory import check_name
        with pytest.raises(EINVAL):
            check_name("a/b")
        with pytest.raises(EINVAL):
            check_name("")


class TestUnlinkLinkRename:
    def test_unlink_removes_name(self, sh):
        sh.write_file("/gone", b"x")
        sh.unlink("/gone")
        with pytest.raises(ENOENT):
            sh.read_file("/gone")
        assert "gone" not in sh.readdir("/")

    def test_unlink_missing_raises(self, sh):
        with pytest.raises(ENOENT):
            sh.unlink("/missing")

    def test_unlink_directory_raises_eisdir(self, sh):
        sh.mkdir("/d")
        with pytest.raises(EISDIR):
            sh.unlink("/d")

    def test_create_after_unlink_reuses_name(self, sh):
        sh.write_file("/n", b"first")
        sh.unlink("/n")
        sh.write_file("/n", b"second")
        assert sh.read_file("/n") == b"second"

    def test_hard_link_shares_content(self, sh):
        sh.write_file("/orig", b"shared")
        sh.link("/orig", "/alias")
        assert sh.read_file("/alias") == b"shared"
        assert sh.stat("/alias")["nlink"] == 2
        assert sh.stat("/orig")["ino"] == sh.stat("/alias")["ino"]

    def test_unlink_one_link_keeps_file(self, sh):
        sh.write_file("/orig", b"persist")
        sh.link("/orig", "/alias")
        sh.unlink("/orig")
        assert sh.read_file("/alias") == b"persist"
        assert sh.stat("/alias")["nlink"] == 1

    def test_link_to_directory_raises(self, sh):
        sh.mkdir("/d")
        with pytest.raises(EISDIR):
            sh.link("/d", "/dlink")

    def test_rename_same_directory(self, sh):
        sh.write_file("/old", b"data")
        sh.rename("/old", "/new")
        assert sh.read_file("/new") == b"data"
        with pytest.raises(ENOENT):
            sh.read_file("/old")

    def test_rename_across_directories(self, sh):
        sh.mkdir("/src")
        sh.mkdir("/dst")
        sh.write_file("/src/f", b"moved")
        sh.rename("/src/f", "/dst/g")
        assert sh.read_file("/dst/g") == b"moved"
        assert sh.readdir("/src") == []

    def test_rename_onto_existing_raises(self, sh):
        sh.write_file("/a", b"1")
        sh.write_file("/b", b"2")
        with pytest.raises(EEXIST):
            sh.rename("/a", "/b")


class TestAttributes:
    def test_stat_fields(self, sh):
        sh.write_file("/s", b"abc")
        attrs = sh.stat("/s")
        assert attrs["size"] == 3
        assert attrs["ftype"] is FileType.REGULAR
        assert attrs["nlink"] == 1
        assert attrs["owner"] == "root"
        assert not attrs["deleted"] and not attrs["conflict"]

    def test_chmod_chown(self, sh):
        sh.write_file("/p", b"x")
        sh.chmod("/p", 0o600)
        sh.chown("/p", "alice")
        attrs = sh.stat("/p")
        assert attrs["perms"] == 0o600
        assert attrs["owner"] == "alice"

    def test_attr_change_bumps_version(self, sh):
        """Inode-only changes commit like data changes (section 2.3.6:
        'whether it was just inode information that changed')."""
        sh.write_file("/p", b"x")
        v1 = sh.stat("/p")["version"]
        sh.chmod("/p", 0o600)
        assert sh.stat("/p")["version"].dominates(v1)

    def test_owner_inherited_from_shell_user(self, cluster):
        alice = cluster.shell(0, user="alice")
        alice.write_file("/af", b"x")
        assert alice.stat("/af")["owner"] == "alice"

    def test_dup_shares_offset(self, sh):
        sh.write_file("/d", b"0123456789")
        fd = sh.open("/d")
        fd2 = sh.dup(fd)
        assert sh.read(fd, 3) == b"012"
        assert sh.read(fd2, 3) == b"345"
        sh.close(fd)
        assert sh.read(fd2, 1) == b"6"
        sh.close(fd2)


class TestInodeNumbers:
    def test_deleted_inode_number_never_reissued(self, cluster, sh):
        """Section 2.3.7 permits reallocating a number once every storage
        site has seen the delete.  The round still runs, reaping every
        pack's tombstone, but the controlling pack hands out a fresh,
        higher number, so a version vector never restarts over new bytes."""
        sh.write_file("/r1", b"x")
        ino1 = sh.stat("/r1")["ino"]
        sh.unlink("/r1")
        cluster.settle()
        for site in cluster.sites:
            assert site.packs[0].get_inode(ino1) is None
        sh.write_file("/r2", b"y")
        assert sh.stat("/r2")["ino"] > ino1
