"""Recovery manager internals: mail plumbing, merge-manager fallback,
demand recovery hooks, link-count repair, and statistics."""

import os

import pytest

from repro import FileType, LocusCluster, Mode
from repro.core.site import Site
from repro.errors import (EBUSY, ECONFLICT, EWOULDCONFLICT, CircuitClosed,
                          NetworkError)
from repro.fuzz import FuzzPlan
from repro.fuzz.runner import PlanRunner
from repro.net.stats import StatsWindow
from repro.recovery.manager import SWEEP
from repro.tools import fsck

REGRESSIONS = os.path.join(os.path.dirname(__file__), "regressions")


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


class TestDirectoryMergeReads:
    def test_a_copy_that_never_decodes_is_a_transient(self, cluster):
        """A directory copy torn on every read (a writer committing under
        each attempt), with its holder not answering the attribute
        re-fetch either: after three reads the merge gives up with a
        ``NetworkError``, so the caller retries the reconcile rather than
        merge garbage."""
        rec, site = cluster.site(0).recovery, cluster.site(0)
        gfile = (0, cluster.shell(0).stat("/")["ino"])
        holders = [(s, cluster.site(s).fs.local_inode(gfile).attrs())
                   for s in range(3)]
        reads, rpc = [], site.rpc

        def torn(source, g, attrs):
            reads.append(source)
            return b'[{"n": "torn'
            yield  # pragma: no cover

        def refetch_fails(dst, op, payload, *args, **kw):
            if op == "fs.fetch_attrs":
                raise CircuitClosed(dst, "message lost")
            return (yield from rpc(dst, op, payload, *args, **kw))

        rec.read_copy, site.rpc = torn, refetch_fails
        with pytest.raises(NetworkError, match="unstable"):
            cluster.call(0, rec.merge_directory(gfile, holders, {}))
        assert reads == [0, 0, 0]

    def test_an_unreadable_directory_leaves_no_link_census(self, cluster):
        """The link census counts every directory's entries; one it cannot
        read would undercount, so there is no census (and no repair)."""
        rec = cluster.site(0).recovery

        def unreachable(source, gfile, attrs):
            raise CircuitClosed(source, "message lost")
            yield  # pragma: no cover

        rec.read_copy = unreachable
        assert cluster.call(0, rec._link_census(0)) is None


class TestDemandRecovery:
    def test_needs_and_pending_bookkeeping(self, cluster):
        """A marked file is needed, and its filegroup busy, until its
        reconcile starts."""
        rec = cluster.site(0).recovery
        assert not rec.needs((0, 99))
        rec.request((0, 99))
        assert rec.needs((0, 99)) and rec.busy(0) and rec.backlog() == 1
        cluster.settle()
        assert not rec.needs((0, 99)) and not rec.busy(0)
        assert rec.backlog() == 0

    def test_a_second_demand_waits_for_the_first(self, cluster):
        """Two accesses demanding one file run one merge: the second
        waits for the first's instead of racing its install."""
        rec = cluster.site(0).recovery
        queue = rec._queue(0)
        queue.snapshot = {}   # a batch is running
        queue.dirty[99] = 0
        merges = []

        def slow_merge(gfs, ino, inventories, attempt=0):
            merges.append(ino)
            yield 10.0

        rec._reconcile_ino = slow_merge
        ends = []

        def access():
            yield from rec.demand((0, 99))
            ends.append(cluster.sim.now)

        start = cluster.sim.now
        for __ in range(2):
            cluster.spawn(0, access())
        cluster.settle()
        assert merges == [99]
        assert ends == [start + 10.0] * 2
        assert not rec.needs((0, 99))

    def test_a_demand_with_no_sweep_leaves_a_deferred_file_pending(
            self, cluster):
        """A file pending only for its queued retry has no sweep snapshot
        to reconcile against: a demand leaves it pending, so a writer is
        still refused until the retry reconciles it from fresh
        inventories."""
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/f", b"v1")
        cluster.settle()
        fs = cluster.site(0).fs
        gfile, __ = cluster.call(0, fs.resolve_gfile(None, "/f"))
        css = cluster.site(fs.mount.css_for(gfile[0]))
        rec = css.recovery
        rec._defer(*gfile, attempt=1)
        cluster.call(css, rec.demand(gfile))
        assert rec.needs(gfile)
        with pytest.raises(EWOULDCONFLICT):
            cluster.call(css, css.fs.h_css_open(2, {
                "gfile": gfile, "mode": Mode.WRITE, "us_vv": None,
                "allow_conflict": False}))
        cluster.settle()
        assert not rec.needs(gfile)
        assert rec.stats.retries_scheduled == 1

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


class TestPushRule:
    """A reconcile pushes the best copy only to the packs it inventoried
    that lack it and to the advertised storage sites outside its
    partition, never to an in-partition pack that did not answer."""

    def _reconcile(self, cluster, edit):
        """Reconcile ``/f`` at site 0 against its inventories as
        ``edit`` leaves them; the sites sent an ``fs.notify``."""
        site = cluster.site(0)
        rec = site.recovery
        gfile, __ = cluster.call(0, site.fs.resolve_gfile(None, "/f"))
        inventories = cluster.call(0, rec.inventories(gfile[0]))
        edit(inventories)
        sent = []
        send = site.oneway_quiet

        def counted(dst, op, payload=None):
            if op == "fs.notify":
                sent.append(dst)
            return send(dst, op, payload)

        site.oneway_quiet = counted
        cluster.call(0, rec._reconcile_ino(*gfile, inventories))
        del site.oneway_quiet
        return sent

    @staticmethod
    def _no_data_at_1(inventories):
        for ino, entry in inventories[1].items():
            inventories[1][ino] = dict(entry, has_data=False)

    @pytest.fixture
    def placed(self, cluster):
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/f", b"v1")
        cluster.settle()
        return cluster

    def test_no_push_to_an_in_partition_pack_that_did_not_answer(
            self, placed):
        assert self._reconcile(placed, lambda inv: inv.pop(2)) == []

    def test_an_inventoried_storage_site_with_no_data_gets_one(
            self, placed):
        assert self._reconcile(placed, self._no_data_at_1) == [1]

    def test_a_storage_site_outside_the_partition_gets_one(self, placed):
        placed.partition({0, 1}, {2})
        assert placed.site(0).recovery.pack_sites_up(0) == [0, 1]
        assert self._reconcile(placed, self._no_data_at_1) == [1, 2]


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
        put = rec._put

        def counted(gfs, item):
            if item is not SWEEP:
                runs.append(item)
            return put(gfs, item)

        rec._put = counted
        fd = sh.open("/f", "w")
        rec.schedule_filegroup(0)
        cluster.settle()
        sh.close(fd)
        cluster.settle()
        assert runs, "the open writer should have deferred /f"
        assert rec.stats.retries_scheduled == len(runs)


def _linked_file(cluster):
    """``/f`` with a second name ``/g``, on every site, settled; returns
    its gfile."""
    sh = cluster.shell(0)
    sh.setcopies(3)
    sh.write_file("/f", b"linked")
    sh.link("/f", "/g")
    cluster.settle()
    gfile, __ = cluster.call(0, cluster.site(0).fs.resolve_gfile(None, "/f"))
    return gfile


def _nlinks(cluster, gfile):
    return {site.site_id: site.fs.local_inode(gfile).nlink
            for site in cluster.sites}


class TestPatchNlink:
    """The pack-site half of the link-count repair: a patch conditional
    on the census copy's version vector."""

    def _patch(self, cluster, site_id, gfile, version):
        rec = cluster.site(site_id).recovery
        return cluster.call(site_id, rec.h_patch_nlink(
            0, {"gfile": gfile, "nlink": 5, "version": version}))

    def test_applies_at_the_census_vector(self, cluster):
        gfile = _linked_file(cluster)
        inode = cluster.site(1).fs.local_inode(gfile)
        version = inode.version
        assert self._patch(cluster, 1, gfile, version) is True
        assert inode.nlink == 5
        assert inode.version == version     # a patch is not a commit

    def test_refuses_a_copy_that_moved(self, cluster):
        gfile = _linked_file(cluster)
        census_vv = cluster.site(1).fs.local_inode(gfile).version
        cluster.shell(0).write_file("/f", b"moved on")
        cluster.settle()
        inode = cluster.site(1).fs.local_inode(gfile)
        assert inode.version != census_vv
        assert self._patch(cluster, 1, gfile, census_vv) is False
        assert inode.nlink == 2

    def test_a_site_without_the_file_has_nothing_to_patch(self, cluster):
        gfile = _linked_file(cluster)
        version = cluster.site(1).fs.local_inode(gfile).version
        assert self._patch(cluster, 1, (gfile[0], 10_000), version) is True

    def test_refuses_a_file_open_at_this_storage_site(self, cluster):
        gfile = _linked_file(cluster)
        sh = cluster.shell(0)
        fd = sh.open("/f", "w")
        ss = next(site for site in cluster.sites if gfile in site.fs.ss)
        inode = ss.fs.local_inode(gfile)
        assert self._patch(cluster, ss.site_id, gfile,
                           inode.version) is False
        assert inode.nlink == 2
        sh.close(fd)
        cluster.settle()

    def test_probes_a_leaked_writer_registration_first(self, cluster):
        """A write open whose ``fs.close`` was lost stays registered at
        the SS: the patch asks its US, drops the registration and
        applies."""
        gfile = _linked_file(cluster)
        ss = cluster.site(1)
        cluster.call(1, ss.fs._ss_open_local(gfile, Mode.WRITE, 2))
        assert ss.fs.ss[gfile].writer == 2
        inode = ss.fs.local_inode(gfile)
        assert self._patch(cluster, 1, gfile, inode.version) is True
        assert inode.nlink == 5
        assert ss.metrics.counters["fs.ss_leak_repairs"] == 1
        assert gfile not in ss.fs.ss

    def test_applies_under_readers_and_their_incore_copy(self, cluster):
        gfile = _linked_file(cluster)
        sh = cluster.shell(0)
        fd = sh.open("/f", "r")
        ss = next(site for site in cluster.sites if gfile in site.fs.ss)
        inode = ss.fs.local_inode(gfile)
        assert self._patch(cluster, ss.site_id, gfile,
                           inode.version) is True
        assert inode.nlink == 5
        assert ss.fs.ss[gfile].shadow.incore.nlink == 5
        sh.close(fd)
        cluster.settle()


class TestInstallMerged:
    def test_refuses_a_file_open_at_this_storage_site(self, cluster):
        """A merge installed under a live writer would interleave with
        its commit: the install is refused and recovery retries."""
        gfile = _linked_file(cluster)
        sh = cluster.shell(0)
        fd = sh.open("/f", "w")
        ss = next(site for site in cluster.sites if gfile in site.fs.ss)
        base_vv = ss.fs.local_inode(gfile).version
        with pytest.raises(EBUSY):
            cluster.call(ss.site_id, ss.recovery.h_install_merged(
                0, {"gfile": gfile, "data": b"merged", "base_vv": base_vv}))
        sh.close(fd)
        cluster.settle()


    def test_probes_a_leaked_reader_registration_first(self, cluster):
        """A reader open whose ``fs.close`` was lost stays registered at
        the SS for good: the install asks its US, drops the registration
        and lands on its first try."""
        gfile = _linked_file(cluster)
        ss = cluster.site(1)
        cluster.call(1, ss.fs._ss_open_local(gfile, Mode.READ, 2))
        assert ss.fs.ss[gfile].users == {2: 1}
        attrs = ss.fs.local_inode(gfile).attrs()
        cluster.call(1, ss.recovery.h_install_merged(0, {
            "gfile": gfile, "data": b"merged",
            "base_vv": attrs["version"], "ftype": attrs["ftype"],
            "owner": attrs["owner"], "perms": attrs["perms"],
            "nlink": attrs["nlink"],
            "storage_sites": attrs["storage_sites"]}))
        assert ss.metrics.counters["fs.ss_leak_repairs"] == 1
        assert gfile not in ss.fs.ss
        cluster.settle()
        assert cluster.shell(2).read_file("/g") == b"merged"

    def test_refuses_a_writer_that_opened_during_its_page_writes(
            self, cluster):
        """An SS open born while the install stages its pages cloned the
        old blocks: the install must not commit under it, or the open's
        later commit frees those blocks a second time."""
        gfile = _linked_file(cluster)
        ss = cluster.site(1)
        attrs = ss.fs.local_inode(gfile).attrs()
        psz = cluster.config.cost.page_size
        install = cluster.spawn(1, ss.recovery.h_install_merged(0, {
            "gfile": gfile, "data": b"m" * (4 * psz),
            "base_vv": attrs["version"], "ftype": attrs["ftype"],
            "owner": attrs["owner"], "perms": attrs["perms"],
            "nlink": attrs["nlink"],
            "storage_sites": attrs["storage_sites"]}))
        cluster.call(1, ss.fs._ss_open_local(gfile, Mode.WRITE, 1))
        assert not install.finished
        cluster.settle()
        with pytest.raises(EBUSY):
            install.result()
        ss.fs.ss[gfile].shadow.write_page(0, b"writer")
        cluster.call(1, ss.fs._ss_commit(gfile))
        cluster.call(1, ss.fs._ss_close_local(gfile, Mode.WRITE, 1))
        cluster.settle()
        assert fsck(cluster).block_aliasing == []


class TestLinkCountRepair:
    def test_partitioned_link_skew_is_patched_on_every_replica(
            self, monkeypatch):
        """A rename and a link of one file in two partitions: after the
        merge every replica holds the census count, and no recovery or
        scrub task opened the file through its CSS to fix it."""
        opens = []
        rpc = Site.supervised_rpc

        def spy(self, dst, op, payload, *args, **kw):
            if op == "fs.css_open":
                task = self.sim.current_task
                opens.append((task.name if task else "",
                              tuple(payload["gfile"])))
            return rpc(self, dst, op, payload, *args, **kw)

        monkeypatch.setattr(Site, "supervised_rpc", spy)
        with open(os.path.join(REGRESSIONS,
                               "partition-rename-link-nlink-skew.json")) as fh:
            plan = FuzzPlan.from_json(fh.read())
        cluster = PlanRunner(plan).run().cluster
        fs = cluster.site(0).fs
        names = [n for n in cluster.shell(0).readdir("/w/d1")
                 if n not in (".", "..")]
        gfiles = {n: cluster.call(0, fs.resolve_gfile(None, f"/w/d1/{n}"))[0]
                  for n in names}
        gfile = gfiles["n28"]
        census = sum(1 for g in gfiles.values() if g == gfile)
        assert census >= 2
        holders = [site for site in cluster.sites
                   if site.fs.stores_locally(gfile)]
        assert len(holders) == plan.copies
        assert {site.fs.local_inode(gfile).nlink
                for site in holders} == {census}
        assert not [name for name, g in opens if g == gfile
                    and name.startswith(("recovery", "scrub"))]

    def test_patch_refused_under_a_writer_lands_after_it_closes(
            self, cluster):
        """The repair meets a writer: the open copy is left alone (its
        commit would write back the count it cloned), and once the
        writer closes the deferred recount puts every replica right."""
        gfile = _linked_file(cluster)
        for site in cluster.sites:
            site.fs.local_inode(gfile).nlink = 1
        sh = cluster.shell(0)
        fd = sh.open("/f", "w")
        ss = next(site for site in cluster.sites if gfile in site.fs.ss)
        css = cluster.site(0).fs.mount.css_for(0)
        cluster.spawn(css, cluster.site(css).recovery.repair_link_counts(0))
        cluster.sim.run(until=cluster.sim.now + 200.0)
        assert ss.fs.local_inode(gfile).nlink == 1
        sh.write(fd, b"still linked")
        sh.close(fd)
        cluster.settle()
        assert set(_nlinks(cluster, gfile).values()) == {2}
        assert cluster.shell(2).read_file("/g") == b"still linked"

    def _skew_and_repair(self, cluster, gfile):
        """Drop every replica's count to 1 and run the census at the CSS;
        returns the CSS's recovery manager."""
        for site in cluster.sites:
            site.fs.local_inode(gfile).nlink = 1
        css = cluster.site(0).fs.mount.css_for(gfile[0])
        rec = cluster.site(css).recovery
        cluster.spawn(css, rec.repair_link_counts(gfile[0]))
        return rec

    def test_a_writer_held_open_spends_a_bounded_retry_budget(
            self, cluster):
        """Every recount while the writer stays open is refused: the
        retries stop at the budget instead of recounting forever."""
        gfile = _linked_file(cluster)
        sh = cluster.shell(0)
        fd = sh.open("/f", "w")
        rec = self._skew_and_repair(cluster, gfile)
        cluster.sim.run(until=cluster.sim.now + 5000.0)
        spent = rec.stats.retries_scheduled
        assert 0 < spent <= 10
        cluster.sim.run(until=cluster.sim.now + 5000.0)
        assert rec.stats.retries_scheduled == spent
        sh.close(fd)
        cluster.settle()

    def test_a_spent_budget_is_counted_and_traced(self, cluster):
        """The refusal at attempt 10 is not a silent drop: the file is
        counted in ``retries_exhausted`` and marked on the timeline."""
        gfile = _linked_file(cluster)
        sh = cluster.shell(0)
        fd = sh.open("/f", "w")
        rec = self._skew_and_repair(cluster, gfile)
        cluster.sim.run(until=cluster.sim.now + 5000.0)
        marks = [i["attrs"]["gfile"] for i in rec.site.tracer.instants
                 if i["name"] == "recovery.retry_exhausted"]
        assert marks and {tuple(m) for m in marks} == {gfile}
        assert rec.stats.retries_exhausted == len(marks)
        sh.close(fd)
        cluster.settle()

    def test_a_lost_patch_reply_defers_the_file(self, cluster, monkeypatch):
        """A patch whose reply is lost counts as refused: the file goes
        back on the retry schedule, whose recount finishes the job."""
        gfile = _linked_file(cluster)
        rec = self._skew_and_repair(cluster, gfile)
        rpc = rec.site.rpc

        def lossy(dst, op, payload, *args, **kw):
            if op == "fs.patch_nlink":
                raise NetworkError("patch reply lost")
            return rpc(dst, op, payload, *args, **kw)

        monkeypatch.setattr(rec.site, "rpc", lossy)
        cluster.sim.run(until=cluster.sim.now + 200.0)
        assert rec.stats.retries_scheduled >= 1
        assert set(_nlinks(cluster, gfile).values()) == {1}
        monkeypatch.undo()
        cluster.settle()
        assert set(_nlinks(cluster, gfile).values()) == {2}

    def test_a_patch_that_landed_only_at_the_css_is_finished(
            self, cluster, monkeypatch):
        """Each holder is judged by its own copy's count: once the census
        copy reads right, the copies the lost patches missed still get
        one."""
        gfile = _linked_file(cluster)
        rec = self._skew_and_repair(cluster, gfile)
        rpc = rec.site.rpc

        def lossy(dst, op, payload, *args, **kw):
            if op == "fs.patch_nlink" and dst != rec.sid:
                raise NetworkError("patch reply lost")
            return rpc(dst, op, payload, *args, **kw)

        monkeypatch.setattr(rec.site, "rpc", lossy)
        cluster.sim.run(until=cluster.sim.now + 200.0)
        assert _nlinks(cluster, gfile)[rec.sid] == 2
        assert set(_nlinks(cluster, gfile).values()) == {1, 2}
        monkeypatch.undo()
        cluster.settle()
        assert set(_nlinks(cluster, gfile).values()) == {2}

    def test_a_conflicted_directory_stops_the_census(self, cluster):
        """A partial census could shrink a correct count, so a directory
        copy flagged in conflict leaves every count as it is."""
        gfile = _linked_file(cluster)
        root = cluster.call(0, cluster.site(0).fs.resolve_gfile(None, "/"))[0]
        cluster.site(1).fs.local_inode(root).conflict = True
        self._skew_and_repair(cluster, gfile)
        cluster.sim.run(until=cluster.sim.now + 200.0)
        assert set(_nlinks(cluster, gfile).values()) == {1}

    def test_readers_held_open_do_not_block_the_patch(self, cluster):
        """Readers at the storage site neither refuse the patch nor lose
        it: a writer that joins them commits the patched count."""
        gfile = _linked_file(cluster)
        sh = cluster.shell(0)
        reader = sh.open("/f", "r")
        rec = self._skew_and_repair(cluster, gfile)
        cluster.sim.run(until=cluster.sim.now + 200.0)
        assert set(_nlinks(cluster, gfile).values()) == {2}
        assert rec.stats.retries_scheduled == 0
        writer = sh.open("/f", "w")
        sh.write(writer, b"read while written")
        sh.close(writer)
        sh.close(reader)
        cluster.settle()
        assert set(_nlinks(cluster, gfile).values()) == {2}


class TestRecountGate:
    """Deferred retries share one whole-filegroup link census, run once
    their queue drains."""

    def _setup(self, cluster, names):
        """``/f`` linked as ``/g`` plus one settled file per name; returns
        the CSS's recovery manager, ``/f``'s gfile, the other files'
        gfiles, and a list that records each census run."""
        gfile = _linked_file(cluster)
        sh = cluster.shell(0)
        for name in names:
            sh.write_file(f"/{name}", name.encode())
        cluster.settle()
        fs = cluster.site(0).fs
        others = [cluster.call(0, fs.resolve_gfile(None, f"/{n}"))[0]
                  for n in names]
        rec = cluster.site(fs.mount.css_for(gfile[0])).recovery
        censuses = []
        link_census = rec._link_census

        def counted(gfs):
            censuses.append(cluster.sim.now)
            return link_census(gfs)

        rec._link_census = counted
        return rec, gfile, others, censuses

    def test_retries_firing_together_run_one_census(self, cluster):
        rec, gfile, others, censuses = self._setup(cluster, "abcd")
        for gfs, ino in [gfile] + others:
            rec._defer(gfs, ino, 1)
        cluster.settle()
        assert rec.stats.retries_scheduled == 5
        assert len(censuses) == 1
        assert not rec.busy(gfile[0])

    def test_retries_falling_due_together_share_one_inventory(
            self, cluster):
        """Five retries come due at once: one batch, one inventory for
        their five reconciles and one for the census."""
        rec, gfile, others, censuses = self._setup(cluster, "abcd")
        examined = rec.stats.files_examined
        taken = []
        inventories = rec.inventories

        def counted(gfs, *args):
            taken.append(cluster.sim.now)
            return inventories(gfs, *args)

        rec.inventories = counted
        for gfs, ino in [gfile] + others:
            rec._defer(gfs, ino, 1)
        cluster.settle()
        assert rec.stats.files_examined - examined == 5
        assert len(censuses) == 1
        assert len(taken) == 2

    def test_a_mark_during_a_reconcile_queues_the_file_once_more(
            self, cluster):
        """Two requests while ``/f``'s reconcile runs: the first marks it
        again, the second finds it marked, so it reconciles twice in
        all."""
        rec, gfile, __, censuses = self._setup(cluster, "")
        reconcile = rec._reconcile_ino
        runs = []

        def marked_twice(gfs, ino, inventories, attempt=0):
            runs.append(attempt)
            if len(runs) == 1:
                rec.request(gfile)
                rec.request(gfile)
                assert rec.needs(gfile)
            return reconcile(gfs, ino, inventories, attempt)

        rec._reconcile_ino = marked_twice
        rec._defer(*gfile, 1)
        cluster.settle()
        assert runs == [1, 1]
        assert rec.stats.retries_scheduled == 2
        assert len(censuses) == 1
        assert not rec.needs(gfile)

    def test_a_drain_killed_by_a_torn_census_is_respawned(self, cluster):
        """A sweep defers ``/f`` past its writer, and its census read
        tears: the drain dies, the next mark (``/f``'s retry coming due)
        spawns another, and ``/f`` still reconciles."""
        rec, gfile, __, censuses = self._setup(cluster, "")
        link_census = rec._link_census
        tears = []

        def torn(gfs):
            if not tears:
                tears.append(cluster.sim.now)
                raise ValueError("torn directory read")
            return link_census(gfs)

        rec._link_census = torn
        sh = cluster.shell(0)
        fd = sh.open("/f", "w")
        rec.schedule_filegroup(gfile[0])
        first = rec._queues[gfile[0]].task
        _step_until(cluster, lambda: first.finished)
        assert rec.needs(gfile)
        assert [d for d in cluster.sim.task_deaths
                if d.startswith("recovery:fg")]
        sh.close(fd)
        cluster.settle()
        assert rec._queues[gfile[0]].task is not first
        assert not rec.needs(gfile)
        assert len(tears) == 1 and len(censuses) == 1

    def test_a_drain_killed_mid_batch_leaves_the_rest_queued(self, cluster):
        """The sweep's first reconcile tears: the files its batch had not
        reached stay marked and queued, and the drain the next mark spawns
        reconciles them."""
        rec, gfile, others, __ = self._setup(cluster, "ab")
        reconcile = rec._reconcile_ino
        runs = []

        def torn_first(gfs, ino, inventories, attempt=0):
            runs.append(ino)
            if len(runs) == 1:
                raise ValueError("torn directory read")
            return reconcile(gfs, ino, inventories, attempt)

        rec._reconcile_ino = torn_first
        rec.schedule_filegroup(gfile[0])
        first = rec._queues[gfile[0]].task
        _step_until(cluster, lambda: first.finished)
        left = [(gfile[0], ino) for ino in sorted(rec._queues[0].dirty)]
        assert left and set([gfile] + others) <= set(left)
        rec.request((gfile[0], runs[0]))
        cluster.settle()
        assert not rec.busy(gfile[0])
        assert {ino for __, ino in left} <= set(runs[1:])

    def test_the_last_retry_raising_at_the_budget_still_recounts(
            self, cluster):
        rec, gfile, __, censuses = self._setup(cluster, "")
        reconcile = rec._reconcile_ino

        def failing(gfs, ino, inventories, attempt=0):
            if attempt == 10:
                raise NetworkError("install lost")
            return reconcile(gfs, ino, inventories, attempt)

        rec._reconcile_ino = failing
        rec._defer(gfile[0], gfile[1], 10)
        cluster.settle()
        assert len(censuses) == 1
        assert rec.stats.retries_exhausted == 1

    def test_a_refusal_defers_at_the_recorded_attempt_plus_one(
            self, cluster):
        """Retries at attempts 3 and 5 share the census that the second
        runs; a writer refuses its patch, and ``/f`` is deferred at 6."""
        rec, gfile, (a, b), censuses = self._setup(cluster, "ab")
        for site in cluster.sites:
            site.fs.local_inode(gfile).nlink = 1
        sh = cluster.shell(0)
        fd = sh.open("/f", "w")
        deferred = []
        defer = rec._defer

        def spy(gfs, ino, attempt):
            deferred.append(((gfs, ino), attempt))
            return defer(gfs, ino, attempt)

        rec._defer = spy
        rec._defer(*a, 3)
        rec._defer(*b, 5)
        cluster.sim.run(until=cluster.sim.now + 400.0)
        assert len(censuses) == 1
        assert deferred[2:] == [(gfile, 6)]
        sh.close(fd)
        cluster.settle()
        assert set(_nlinks(cluster, gfile).values()) == {2}


def _step_until(cluster, done):
    while not done():
        assert cluster.sim.step(), "event queue drained first"


class TestWriterProbe:
    """A retry that the CSS's registered writer blocks asks that writer's
    US whether it holds the file, instead of inventorying the
    filegroup."""

    def _setup(self, cluster):
        """``/f`` on every site; returns its gfile, its CSS, and the two
        other sites."""
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/f", b"v1")
        cluster.settle()
        fs = cluster.site(0).fs
        gfile = cluster.call(0, fs.resolve_gfile(None, "/f"))[0]
        css = fs.mount.css_for(gfile[0])
        us, other = [s.site_id for s in cluster.sites if s.site_id != css]
        return gfile, css, us, other

    def test_a_lost_grant_reply_leaks_a_token_the_first_retry_drops(
            self, cluster, monkeypatch):
        gfile, css, us, other = self._setup(cluster)
        rpc = Site.supervised_rpc

        def lost_grant(self, dst, op, payload, *args, **kw):
            reply = yield from rpc(self, dst, op, payload, *args, **kw)
            if op == "fs.css_open" and self.site_id == us \
                    and payload["mode"].writable:
                raise CircuitClosed("grant reply lost")
            return reply

        monkeypatch.setattr(Site, "supervised_rpc", lost_grant)
        with pytest.raises(CircuitClosed):
            cluster.shell(us).open("/f", "w")
        monkeypatch.undo()
        css_fs = cluster.site(css).fs
        assert css_fs.css_entries[gfile].writer == us
        rec = cluster.site(css).recovery
        rec.request(gfile)
        cluster.settle()
        assert rec.stats.retries_scheduled == 1
        assert css_fs.site.metrics.counters["fs.css_leak_repairs"] == 1
        assert gfile not in css_fs.css_entries
        cluster.shell(other).write_file("/f", b"v2")
        cluster.settle()
        assert cluster.shell(us).read_file("/f") == b"v2"

    def test_a_close_whose_commit_lost_its_circuit_drops_the_handle(
            self, cluster, monkeypatch):
        """The close's commit raises ``CircuitClosed``: the handle still
        leaves ``us``, so the writer probe finds the file unheld and the
        CSS drops the write token."""
        gfile, css, us, __ = self._setup(cluster)
        fs = cluster.site(us).fs
        sh = cluster.shell(us)
        fd = sh.open("/f", "w")
        sh.write(fd, b"lost")

        def lost(handle):
            raise CircuitClosed("removed from partition")
            yield  # pragma: no cover

        monkeypatch.setattr(fs, "commit", lost)
        with pytest.raises(CircuitClosed):
            sh.close(fd)
        monkeypatch.undo()
        assert not [h for h in fs.us.values() if h.gfile == gfile]
        css_fs = cluster.site(css).fs
        assert css_fs.css_entries[gfile].writer == us
        assert not cluster.call(css, css_fs.validate_css_writer(gfile))
        assert gfile not in css_fs.css_entries
        assert css_fs.site.metrics.counters["fs.css_leak_repairs"] == 1

    def test_a_held_token_is_probed_not_inventoried(self, cluster):
        """A writer really holds the file: its retries still stop at the
        budget, and none before the last inventories the filegroup."""
        gfile, css, us, __ = self._setup(cluster)
        sh = cluster.shell(us)
        fd = sh.open("/f", "w")
        rec = cluster.site(css).recovery
        rec.request(gfile)
        window = StatsWindow(cluster.stats)
        _step_until(cluster, lambda: rec.stats.retries_scheduled == 10)
        sent = window.close().sent
        assert sent["fs.validate_open"] == 9
        assert "fs.pack_inventory" not in sent
        cluster.sim.run(until=cluster.sim.now + 5000.0)
        assert rec.stats.retries_scheduled == 10
        assert cluster.site(css).fs.css_entries[gfile].writer == us
        sh.close(fd)
        cluster.settle()

    def test_an_unreachable_writer_keeps_its_token(self, cluster,
                                                   monkeypatch):
        """A US that cannot be asked may still hold the file: its retries
        re-defer without an inventory, and membership cleanup owns the
        token."""
        gfile, css, us, __ = self._setup(cluster)
        sh = cluster.shell(us)
        fd = sh.open("/f", "w")
        css_site = cluster.site(css)
        rpc = css_site.rpc

        def unreachable(dst, op, payload, *args, **kw):
            if op == "fs.validate_open":
                raise NetworkError("no route to the writer")
            return rpc(dst, op, payload, *args, **kw)

        monkeypatch.setattr(css_site, "rpc", unreachable)
        rec = css_site.recovery
        rec.request(gfile)
        window = StatsWindow(cluster.stats)
        _step_until(cluster, lambda: rec.stats.retries_scheduled == 3)
        assert "fs.pack_inventory" not in window.close().sent
        assert css_site.fs.css_entries[gfile].writer == us
        monkeypatch.undo()
        sh.close(fd)
        cluster.settle()

    def test_an_open_in_flight_counts_as_held(self, cluster, monkeypatch):
        """A probe served between the CSS's grant and its reply's arrival
        sees the open: dropping the token then would admit a second
        writer beside a live one."""
        gfile, css, us, __ = self._setup(cluster)
        us_fs = cluster.site(us).fs
        served = []

        def probe():
            reply = yield from cluster.site(css).rpc(
                us, "fs.validate_open", {"gfile": gfile})
            served.append(reply["open"])

        rpc = Site.supervised_rpc

        def spy(self, dst, op, payload, *args, **kw):
            if op == "fs.css_open" and self.site_id == us:
                cluster.spawn(css, probe())
            reply = yield from rpc(self, dst, op, payload, *args, **kw)
            served.append(len(us_fs.us))
            return reply

        monkeypatch.setattr(Site, "supervised_rpc", spy)
        sh = cluster.shell(us)
        fd = sh.open("/f", "w")
        monkeypatch.undo()
        assert served == [1, 0]
        sh.close(fd)
        cluster.settle()
