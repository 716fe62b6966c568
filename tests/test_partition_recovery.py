"""Partitioned operation and reconciliation (paper section 4).

These tests drive the full lifecycle: partition -> independent updates in
both subnetworks -> merge -> conflict detection by version vectors ->
type-specific reconciliation (directories, mailboxes) or conflict marking
with mail notification for untyped files.
"""

import pytest

from repro import FileType, LocusCluster
from repro.errors import ECONFLICT, ENOENT
from repro.recovery.mailbox import decode_mailbox
from repro.tools import fsck


@pytest.fixture
def cluster():
    """Four sites, root filegroup packed everywhere, CSS at site 0."""
    return LocusCluster(n_sites=4, seed=23)


def fully_replicated(cluster, sh, path, data):
    sh.setcopies(4)
    sh.write_file(path, data)
    cluster.settle()


class TestPartitionedOperation:
    def test_both_partitions_keep_working(self, cluster):
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        fully_replicated(cluster, sh0, "/shared", b"base")
        cluster.partition({0, 1}, {2, 3})
        # Both sides read and write the replicated file independently.
        assert sh0.read_file("/shared") == b"base"
        assert sh2.read_file("/shared") == b"base"
        sh0.write_file("/left-only", b"left")
        sh2.write_file("/right-only", b"right")
        assert sh0.read_file("/left-only") == b"left"
        assert sh2.read_file("/right-only") == b"right"

    def test_cross_partition_single_copy_unavailable(self, cluster):
        sh0 = cluster.shell(0)
        sh3 = cluster.shell(3)
        sh3.write_file("/only3", b"x")    # one copy, at site 3
        cluster.settle()
        cluster.partition({0, 1}, {2, 3})
        with pytest.raises(ENOENT):
            sh0.read_file("/only3")
        assert sh3.read_file("/only3") == b"x"

    def test_css_reelected_per_partition(self, cluster):
        cluster.partition({0, 1}, {2, 3})
        # Each partition has exactly one CSS for the root filegroup.
        assert cluster.site(0).fs.mount.css_for(0) == 0
        assert cluster.site(1).fs.mount.css_for(0) == 0
        assert cluster.site(2).fs.mount.css_for(0) == 2
        assert cluster.site(3).fs.mount.css_for(0) == 2

    def test_update_allowed_in_every_partition(self, cluster):
        """Section 4.1: "can a data object be updated during partition?
        In our judgment, the answer must be yes"."""
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        fully_replicated(cluster, sh0, "/both", b"base")
        cluster.partition({0, 1}, {2, 3})
        sh0.write_file("/both", b"left version")
        sh2.write_file("/both", b"right version")
        assert sh0.read_file("/both") == b"left version"
        assert sh2.read_file("/both") == b"right version"


class TestMergeWithoutConflict:
    def test_single_sided_update_propagates_after_merge(self, cluster):
        """Modified at S1 only: the copy propagates, no conflict (the
        paper's f/f1 example in section 4.2)."""
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        fully_replicated(cluster, sh0, "/f", b"original")
        cluster.partition({0, 1}, {2, 3})
        sh0.write_file("/f", b"modified on the left")
        cluster.heal()
        cluster.settle()
        assert sh2.read_file("/f") == b"modified on the left"
        # All four copies converge to one version vector.
        ino = sh0.stat("/f")["ino"]
        versions = {cluster.site(s).packs[0].get_inode(ino).version
                    for s in range(4)}
        assert len(versions) == 1

    def test_files_created_in_partition_visible_after_merge(self, cluster):
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        cluster.partition({0, 1}, {2, 3})
        sh0.write_file("/new-left", b"L")
        sh2.write_file("/new-right", b"R")
        cluster.heal()
        cluster.settle()
        # Directory merge united both partitions' inserts.
        assert sh0.read_file("/new-right") == b"R"
        assert sh2.read_file("/new-left") == b"L"
        names = set(sh0.readdir("/"))
        assert {"new-left", "new-right"} <= names

    def test_partitioned_creates_never_collide(self, cluster):
        """Per-pack inode pools (section 2.3.7) make partitioned creates
        allocate disjoint inode numbers."""
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        cluster.partition({0, 1}, {2, 3})
        for i in range(5):
            sh0.write_file(f"/L{i}", b"l")
            sh2.write_file(f"/R{i}", b"r")
        cluster.heal()
        cluster.settle()
        inos = [sh0.stat(f"/L{i}")["ino"] for i in range(5)]
        inos += [sh0.stat(f"/R{i}")["ino"] for i in range(5)]
        assert len(set(inos)) == 10


class TestDirectoryMerge:
    def test_delete_in_one_partition_propagates(self, cluster):
        """Rule (b): a deleted entry in one directory propagates unless the
        data was modified since the delete."""
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        fully_replicated(cluster, sh0, "/doomed", b"delete me")
        cluster.partition({0, 1}, {2, 3})
        sh0.unlink("/doomed")
        cluster.heal()
        cluster.settle()
        with pytest.raises(ENOENT):
            sh2.read_file("/doomed")
        assert "doomed" not in sh2.readdir("/")

    def test_delete_vs_rename_keeps_no_name_of_the_deleted_file(
            self, cluster):
        """Rule (d) per inode: one partition unlinks the file's only name
        while the other renames it.  The delete stands (the file did not
        change), so the new name goes with it instead of dangling."""
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        fully_replicated(cluster, sh0, "/gone", b"unlinked or renamed")
        cluster.partition({0, 1}, {2, 3})
        sh0.unlink("/gone")
        sh2.rename("/gone", "/moved")
        cluster.heal()
        cluster.settle()
        for sh in (sh0, sh2):
            assert not {"gone", "moved"} & set(sh.readdir("/"))
            with pytest.raises(ENOENT):
                sh.read_file("/moved")
        assert fsck(cluster).clean
        # The merge itself dropped the name: no scrub found it dangling.
        assert sum(cluster.site(s).scrub.stats.dangling_removed
                   for s in range(4)) == 0

    def test_delete_vs_modify_saves_the_file(self, cluster):
        """Rule (d) and section 4.4(b): "a file which was deleted in one
        partition while it was modified in another, wants to be saved"."""
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        fully_replicated(cluster, sh0, "/contested", b"v1")
        cluster.partition({0, 1}, {2, 3})
        sh0.unlink("/contested")
        sh2.write_file("/contested", b"v2 modified on the right")
        cluster.heal()
        cluster.settle()
        # The modification survives; the delete is undone.
        assert sh0.read_file("/contested") == b"v2 modified on the right"
        assert sh2.read_file("/contested") == b"v2 modified on the right"

    def test_name_conflict_renames_both_and_mails_owners(self, cluster):
        """Rule 1: same name bound to different inodes in two partitions:
        both names are slightly altered and the owners notified by mail."""
        sh0, sh2 = cluster.shell(0, user="alice"), cluster.shell(2,
                                                                 user="bob")
        cluster.partition({0, 1}, {2, 3})
        sh0.write_file("/clash", b"alice's file")
        sh2.write_file("/clash", b"bob's file")
        cluster.heal()
        cluster.settle()
        names = [n for n in cluster.shell(0).readdir("/")
                 if n.startswith("clash")]
        assert len(names) == 2 and "clash" not in names
        contents = {cluster.shell(1).read_file(f"/{n}") for n in names}
        assert contents == {b"alice's file", b"bob's file"}
        # Owners got mail about it.
        mail_alice = cluster.call(
            0, cluster.site(0).recovery.read_mail("alice"))
        mail_bob = cluster.call(0, cluster.site(0).recovery.read_mail("bob"))
        assert any("name conflict" in m.subject for m in mail_alice)
        assert any("name conflict" in m.subject for m in mail_bob)

    def test_an_alias_renamed_back_survives_the_next_merge(self, cluster):
        """After a name conflict the user renames one alias back to the
        plain name.  The next merge of the directory, diverged again on
        both sides, keeps that name bound to its file and leaves no name
        dangling."""
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        sh0.setcopies(4)
        cluster.partition({0, 1}, {2, 3})
        sh0.write_file("/clash", b"left")
        sh2.write_file("/clash", b"right")
        cluster.heal()
        cluster.settle()
        left = next(n for n in sh0.readdir("/")
                    if n.startswith("clash@")
                    and sh0.read_file(f"/{n}") == b"left")
        sh0.rename(f"/{left}", "/clash")
        cluster.settle()
        cluster.partition({0, 1}, {2, 3})
        sh0.write_file("/left-again", b"l")
        sh2.write_file("/right-again", b"r")
        cluster.heal()
        cluster.settle()
        for sh in (sh0, sh2):
            names = set(sh.readdir("/"))
            assert "clash" in names and left not in names
            assert sh.read_file("/clash") == b"left"
        assert fsck(cluster).clean

    def test_divergent_directory_inserts_union(self, cluster):
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        sh0.setcopies(4)
        sh0.mkdir("/proj")
        cluster.settle()
        cluster.partition({0, 1}, {2, 3})
        sh0.write_file("/proj/a", b"A")
        sh2.write_file("/proj/b", b"B")
        cluster.heal()
        cluster.settle()
        assert set(sh0.readdir("/proj")) == {"a", "b"}
        assert set(sh2.readdir("/proj")) == {"a", "b"}


class TestUntypedConflicts:
    def _make_conflict(self, cluster):
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        fully_replicated(cluster, sh0, "/data", b"base")
        cluster.partition({0, 1}, {2, 3})
        sh0.write_file("/data", b"left write")
        sh2.write_file("/data", b"right write")
        cluster.heal()
        cluster.settle()
        return sh0, sh2

    def test_conflicting_updates_detected_and_marked(self, cluster):
        sh0, __ = self._make_conflict(cluster)
        with pytest.raises(ECONFLICT):
            sh0.open("/data")

    def test_conflict_owner_notified_by_mail(self, cluster):
        self._make_conflict(cluster)
        mail = cluster.call(0, cluster.site(0).recovery.read_mail("root"))
        assert any("update conflict" in m.subject for m in mail)

    def test_conflict_access_can_be_overridden(self, cluster):
        sh0, __ = self._make_conflict(cluster)
        fd = sh0.open("/data", allow_conflict=True)
        assert sh0.read(fd, 100) in (b"left write", b"right write")
        sh0.close(fd)

    def test_resolve_conflict_picks_winner(self, cluster):
        sh0, sh2 = self._make_conflict(cluster)
        gfile = (0, sh0.stat("/data")["ino"])
        cluster.call(0, cluster.site(0).recovery.resolve_conflict(gfile, 2))
        cluster.settle()
        assert sh0.read_file("/data") == b"right write"
        assert sh2.read_file("/data") == b"right write"

    def test_split_conflict_makes_each_version_a_file(self, cluster):
        sh0, __ = self._make_conflict(cluster)
        new_names = cluster.call(
            0, cluster.site(0).recovery.split_conflict(None, "/data"))
        cluster.settle()
        assert len(new_names) == 2
        contents = {sh0.read_file(n) for n in new_names}
        assert contents == {b"left write", b"right write"}
        with pytest.raises(ENOENT):
            sh0.read_file("/data")


class TestMailboxMerge:
    def test_mailboxes_merge_by_union(self, cluster):
        """Section 4.5: mailbox merge unions messages; deletes win."""
        rec0 = cluster.site(0).recovery
        rec2 = cluster.site(2).recovery
        # Replicate /mail and the mailbox everywhere before partitioning
        # (a mailbox a partition cannot reach cannot receive mail there).
        boot = cluster.shell(0)
        boot.setcopies(4)
        boot.mkdir("/mail")
        cluster.call(0, rec0.send_mail("carol", "first", "hello"))
        for s in range(1, 4):
            boot.add_replica("/mail/carol", s)
        cluster.settle()
        cluster.partition({0, 1}, {2, 3})
        cluster.call(0, rec0.send_mail("carol", "from-left", "L"))
        cluster.call(2, rec2.send_mail("carol", "from-right", "R"))
        cluster.heal()
        cluster.settle()
        mail = cluster.call(0, rec0.read_mail("carol"))
        subjects = {m.subject for m in mail}
        assert {"first", "from-left", "from-right"} <= subjects
        mail3 = cluster.call(3, cluster.site(3).recovery.read_mail("carol"))
        assert {m.subject for m in mail3} == subjects

    def test_deleted_mail_stays_deleted_across_merge(self, cluster):
        """A message read-and-deleted in one partition must not be
        resurrected by the copy in the other (section 4.5 tombstones)."""
        boot = cluster.shell(0)
        boot.setcopies(4)
        boot.mkdir("/mail")
        rec0 = cluster.site(0).recovery
        cluster.call(0, rec0.send_mail("dave", "old-news", "stale"))
        for s in range(1, 4):
            boot.add_replica("/mail/dave", s)
        cluster.settle()
        victim_id = cluster.call(0, rec0.read_mail("dave"))[0].msg_id
        cluster.partition({0, 1}, {2, 3})
        cluster.call(0, rec0.delete_mail("dave", victim_id))
        cluster.call(2, cluster.site(2).recovery.send_mail(
            "dave", "fresh", "new"))
        cluster.heal()
        cluster.settle()
        mail = cluster.call(3, cluster.site(3).recovery.read_mail("dave"))
        assert {m.subject for m in mail} == {"fresh"}


class TestTypedMergeManagers:
    def test_registered_manager_merges_database_files(self, cluster):
        """Section 4.3: unhandled types are reflected up to a
        recovery/merge manager if one exists for the file type."""
        def line_union(copies):
            lines = set()
            for __, __, content in copies:
                lines |= {ln for ln in content.split(b"\n") if ln}
            return b"\n".join(sorted(lines)) + b"\n"

        for s in range(4):
            cluster.site(s).recovery.register_merge_manager(
                FileType.DATABASE, line_union)
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        fs0 = cluster.site(0).fs
        gfile, __ = cluster.call(0, fs0.create_file(
            sh0.proc, "/db", ftype=FileType.DATABASE,
            storage_sites=[0, 1, 2, 3]))
        sh0.write_file("/db", b"row1\n")
        cluster.settle()
        cluster.partition({0, 1}, {2, 3})
        fd = sh0.open("/db", "w")
        sh0.pwrite(fd, 5, b"row2\n")
        sh0.close(fd)
        fd = sh2.open("/db", "w")
        sh2.pwrite(fd, 5, b"row3\n")
        sh2.close(fd)
        cluster.heal()
        cluster.settle()
        merged = sh0.read_file("/db")
        assert merged == b"row1\nrow2\nrow3\n"
        assert cluster.site(0).recovery.stats.type_manager_merges >= 1


class TestDemandRecovery:
    def test_access_during_recovery_reconciles_on_demand(self, cluster):
        """Section 4.4: a particular file can be reconciled out of order to
        allow access to it with only a small delay."""
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        fully_replicated(cluster, sh0, "/hot", b"v1")
        cluster.partition({0, 1}, {2, 3})
        sh0.write_file("/hot", b"v2 from left")
        cluster.heal(settle=False)
        # Drive the merge just far enough for membership, then access the
        # file before the background sweep completes.
        cluster.sim.run(until=cluster.sim.now + 400)
        assert sh2.read_file("/hot") == b"v2 from left"
        cluster.settle()
        assert sh0.read_file("/hot") == b"v2 from left"
