"""Recovery manager internals: mail plumbing, merge-manager fallback,
demand recovery hooks, and statistics."""

import pytest

from repro import FileType, LocusCluster
from repro.errors import ECONFLICT


@pytest.fixture
def cluster():
    return LocusCluster(n_sites=3, seed=91)


class TestMail:
    def test_send_and_read(self, cluster):
        rec = cluster.site(0).recovery
        cluster.call(0, rec.send_mail("dave", "greetings", "hello dave"))
        cluster.call(0, rec.send_mail("dave", "again", "more mail"))
        mail = cluster.call(0, rec.read_mail("dave"))
        assert [m.subject for m in mail] == ["greetings", "again"]
        assert all(m.sender == "recovery-daemon" for m in mail)

    def test_read_mail_for_unknown_user_empty(self, cluster):
        rec = cluster.site(0).recovery
        assert cluster.call(0, rec.read_mail("nobody")) == []

    def test_mailbox_file_is_typed(self, cluster):
        rec = cluster.site(0).recovery
        cluster.call(0, rec.send_mail("erin", "s", "b"))
        sh = cluster.shell(0)
        assert sh.stat("/mail/erin")["ftype"] is FileType.MAILBOX

    def test_mail_from_any_site_lands_in_one_box(self, cluster):
        cluster.shell(0).setcopies(3)
        cluster.shell(0).mkdir("/mail")
        for s in range(3):
            cluster.call(s, cluster.site(s).recovery.send_mail(
                "frank", f"from-{s}", "x"))
        cluster.settle()
        mail = cluster.call(1, cluster.site(1).recovery.read_mail("frank"))
        assert {m.subject for m in mail} == {"from-0", "from-1", "from-2"}


class TestMergeManagerFallback:
    def _conflicted_db(self, cluster, manager=None):
        if manager is not None:
            for s in range(3):
                cluster.site(s).recovery.register_merge_manager(
                    FileType.DATABASE, manager)
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        fs0 = cluster.site(0).fs
        cluster.call(0, fs0.create_file(sh0.proc, "/db",
                                        ftype=FileType.DATABASE,
                                        storage_sites=[0, 1, 2]))
        sh0.write_file("/db", b"base")
        cluster.settle()
        cluster.partition({0, 1}, {2})
        sh0.write_file("/db", b"left")
        sh2.write_file("/db", b"right")
        cluster.heal()
        cluster.settle()
        return sh0

    def test_manager_declining_falls_back_to_conflict_mark(self, cluster):
        """Section 4.3: if the merge manager cannot reconcile, the problem
        is reported to the user level."""
        sh = self._conflicted_db(cluster, manager=lambda copies: None)
        with pytest.raises(ECONFLICT):
            sh.open("/db")
        assert cluster.site(0).recovery.stats.conflicts_marked == 1

    def test_no_manager_marks_conflict(self, cluster):
        sh = self._conflicted_db(cluster, manager=None)
        with pytest.raises(ECONFLICT):
            sh.open("/db")

    def test_manager_merge_counts(self, cluster):
        sh = self._conflicted_db(
            cluster, manager=lambda copies: b"|".join(
                sorted({c for __, __, c in copies})))
        assert sh.read_file("/db") == b"left|right"
        assert cluster.site(0).recovery.stats.type_manager_merges == 1


class TestDemandRecovery:
    def test_needs_and_pending_bookkeeping(self, cluster):
        rec = cluster.site(0).recovery
        assert not rec.needs((0, 99))
        rec.pending[0] = {99}
        assert rec.needs((0, 99))
        rec.pending[0].discard(99)
        assert not rec.needs((0, 99))

    def test_stats_accumulate_across_merges(self, cluster):
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        sh0.setcopies(3)
        sh0.write_file("/w", b"v1")
        cluster.settle()
        for round_no in range(2):
            cluster.partition({0, 1}, {2})
            sh0.write_file("/w", f"round {round_no}".encode())
            cluster.heal()
            cluster.settle()
        stats = cluster.site(0).recovery.stats
        assert stats.files_examined >= 2
        assert stats.propagations_scheduled >= 2
        assert cluster.shell(2).read_file("/w") == b"round 1"


class TestDeferral:
    def test_every_deferral_is_counted(self, cluster):
        """A sweep that meets an open writer defers the file (section 5.6)
        on the same retry rule as every other deferral, so the counter
        equals the deferred reconciles actually run."""
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/f", b"v1")
        cluster.settle()
        rec = cluster.site(0).recovery
        runs = []
        retry_ino = rec._retry_ino

        def counted(*args):
            runs.append(args)
            return retry_ino(*args)

        rec._retry_ino = counted
        fd = sh.open("/f", "w")
        rec.schedule_filegroup(0)
        cluster.settle()
        sh.close(fd)
        cluster.settle()
        assert runs, "the open writer should have deferred /f"
        assert rec.stats.retries_scheduled == len(runs)
