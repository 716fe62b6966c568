"""Update propagation behaviours (paper section 2.3.6)."""

import pytest

from repro import LocusCluster, Mode
from repro.config import CostModel
from repro.errors import EBUSY, Unreachable
from repro.faults import FaultPlan
from repro.fs.handles import SsOpen
from repro.net.stats import StatsWindow
from repro.storage.shadow import ShadowFile
from repro.storage.version_vector import VersionVector
from repro.tools import fsck


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
        sim, site1 = cluster.sim, cluster.site(1)
        fs1, prop, rpc = site1.fs, site1.fs.propagator, site1.rpc
        first_enqueue, retired, probes = [], [], []

        def retire(g, outcome):
            retired.append((sim.now, g, outcome))
            original_retire(g, outcome)

        def first_read_races_an_open(dst, op, payload, *args, **kw):
            if op == "fs.pull_read" and prop.stats.deferred == 0:
                # Fires while the first pinned read is in flight: the pull
                # finds the open only after paging, just before it would
                # commit.
                sim.schedule(0.0, open_locally)
            return (yield from rpc(dst, op, payload, *args, **kw))

        def defer(req):
            original_defer(req)
            # The open closes before the re-queued pull runs.
            sim.schedule(10.0, fs1.ss.pop, gfile)
            for delay in (0.0, 5.0, 20.0):
                sim.schedule(delay, lambda: probes.append(
                    prop.is_pending(gfile)))

        def open_locally():
            (age,) = prop.lag_ages()
            first_enqueue.append(sim.now - age)
            pack = site1.packs[0]
            fs1.ss[gfile] = SsOpen(gfile=gfile,
                                   shadow=ShadowFile(pack, gfile[1]))

        original_retire, prop._retire = prop._retire, retire
        original_defer, prop._defer = prop._defer, defer
        site1.rpc = first_read_races_an_open
        lag = site1.metrics.hist("prop.lag")
        lag_count, lag_total = lag.count, lag.total
        sh.write_file("/race", b"v2 racing an open")
        cluster.settle()
        del site1.rpc

        assert probes == [True, True, True]
        assert prop.stats.deferred == 1
        (landed, g, outcome), = retired
        assert (g, outcome) == (gfile, "pulled")
        assert not prop.is_pending(gfile)
        assert lag.count == lag_count + 1
        assert lag.total - lag_total == pytest.approx(
            landed - first_enqueue[0])
        assert site1.packs[0].get_inode(gfile[1]).version == \
            sh.stat("/race")["version"]

    def test_a_copy_dropped_mid_pull_defers_the_pull(self, cluster):
        """A copy whose pages were freed while a pull fetched (a dropped
        replica, a delete seen) must not take the pull's commit: the
        shadow cloned those pages and would free them again.  The pull
        re-queues and lands on the copy as it now stands."""
        psz = cluster.config.cost.page_size
        sh = make_replicated(cluster, "/dropped", b"old." * psz)
        gfile = (0, sh.stat("/dropped")["ino"])
        site1 = cluster.site(1)
        prop, pack, rpc = site1.fs.propagator, site1.packs[0], site1.rpc

        def drop_during_the_first_read(dst, op, payload, *args, **kw):
            result = yield from rpc(dst, op, payload, *args, **kw)
            if op == "fs.pull_read" and prop.stats.deferred == 0:
                pack.drop_data(gfile[1])
            return result

        site1.rpc = drop_during_the_first_read
        sh.write_file("/dropped", b"new!" * psz)
        cluster.settle()
        del site1.rpc
        assert prop.stats.deferred == 1
        assert fsck(cluster).block_aliasing == []
        assert pack.get_inode(gfile[1]).version == \
            sh.stat("/dropped")["version"]
        assert cluster.shell(1).read_file("/dropped") == b"new!" * psz

    def test_an_install_during_the_source_open_is_not_pulled_over(
            self, cluster):
        """A merge install that commits while the pull opens its source
        leaves a copy newer than the version the pull was asked for: the
        pull must find it current, not commit the older version over it.
        (One landing during the page reads is refused: the pull gate.)"""
        sh = make_replicated(cluster, "/raced", b"v1")
        gfile = (0, sh.stat("/raced")["ino"])
        site = cluster.site(1)
        prop = site.fs.propagator
        open_source = prop._open_source
        installed, refused = [], []

        def install(data, base_site):
            attrs = cluster.site(base_site).fs.local_inode(gfile).attrs()
            return (yield from site.recovery.h_install_merged(0, {
                "gfile": gfile, "data": data, "base_vv": attrs["version"],
                **{k: attrs[k] for k in ("ftype", "owner", "perms", "nlink",
                                         "storage_sites")}}))

        def open_after_an_install(req, manifest, waits):
            installed.append((yield from install(b"merged", req.hint)))
            return (yield from open_source(req, manifest, waits))

        def install_during_the_first_read(dst, op, payload, *args, **kw):
            if op == "fs.pull_read" and not refused:
                try:
                    yield from install(b"refused", dst)
                except EBUSY as exc:
                    refused.append(exc)
            return (yield from rpc(dst, op, payload, *args, **kw))

        prop._open_source = open_after_an_install
        sh.write_file("/raced", b"v2")
        cluster.settle()
        del prop._open_source
        merged_vv = installed[0]["version"]
        assert site.fs.local_inode(gfile).version == merged_vv
        for s in range(3):
            assert cluster.site(s).fs.local_inode(gfile).version == merged_vv
            assert cluster.shell(s).read_file("/raced") == b"merged"

        rpc, site.rpc = site.rpc, install_during_the_first_read
        sh.write_file("/raced", b"v3")
        cluster.settle()
        del site.rpc
        assert len(refused) == 1
        for s in range(3):
            assert cluster.shell(s).read_file("/raced") == b"v3"

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


class TestPinnedPull:
    """The commit notify carries the version it announces, so the pull
    opens its source implicitly and every page read names that vector
    (``vv``); a source that moved on answers with its attributes."""

    def test_one_page_update_costs_one_round_trip_per_copy(self, cluster):
        """No ``fs.pull_open``: a one-page update reaches each of the two
        other copies in its notify plus one ``fs.pull_read`` round trip,
        two messages per copy fewer than an explicit open costs."""
        sh = make_replicated(cluster, "/one", b"v1")
        win = StatsWindow(cluster.stats)
        sh.write_file("/one", b"v2")
        cluster.settle()
        sent = win.close().sent
        assert "fs.pull_open" not in sent
        assert sent["fs.pull_read"] == sent["fs.pull_read.resp"] == 2
        assert sum(sent.values()) == 6
        for s in (1, 2):
            assert cluster.shell(s).read_file("/one") == b"v2"

    def test_a_source_committing_mid_pull_restarts_it_untorn(self, cluster):
        """The source commits again between two page reads of one pull:
        its next read answers with the new attributes instead of a page
        of the newer version, and the puller restarts from them.  No copy
        ever commits a mix of two versions."""
        psz = cluster.config.cost.page_size
        v1, v2, v3 = (tag * (2 * psz // 4) for tag in (b"one.", b"two.",
                                                      b"thr."))
        sh = make_replicated(cluster, "/torn", v1)
        gfile = (0, sh.stat("/torn")["ino"])
        site1 = cluster.site(1)
        prop, rpc = site1.fs.propagator, site1.rpc
        reads, committed = [], []

        def commit_between_reads(dst, op, payload, *args, **kw):
            result = yield from rpc(dst, op, payload, *args, **kw)
            if op == "fs.pull_read" and payload["gfile"] == gfile:
                reads.append((payload["page"], payload["vv"],
                              isinstance(result, bytes)))
                if len(reads) == 1:
                    task = cluster.spawn(0, cluster.shell(0).api.write_file(
                        "/torn", v3))
                    yield task.done
            return result

        original_commit = ShadowFile.commit

        def record(shadow, *args, **kw):
            vv = original_commit(shadow, *args, **kw)
            if shadow.pack.site_id == 1 and shadow.ino == gfile[1]:
                inode = shadow.pack.get_inode(gfile[1])
                committed.append(b"".join(
                    shadow.pack.read_block(b) for b in inode.pages)
                    [:inode.size])
            return vv

        site1.rpc = commit_between_reads
        ShadowFile.commit = record
        try:
            sh.write_file("/torn", v2)
            cluster.settle()
        finally:
            ShadowFile.commit = original_commit
            del site1.rpc
        old_vv = reads[0][1]
        new_vv = sh.stat("/torn")["version"]
        assert prop.stats.restarts == 1
        assert reads == [(0, old_vv, True), (1, old_vv, False),
                         (0, new_vv, True), (1, new_vv, True)]
        assert committed == [v3]
        assert cluster.shell(1).read_file("/torn") == v3

    def test_a_range_read_finding_the_source_moved_restarts_the_pull(self):
        """With ``batch_pages`` the pages travel in ``fs.pull_read_range``
        runs; a commit at the source between two runs turns the second
        into the new attributes, checked before each page it would serve."""
        cluster = LocusCluster(n_sites=3, seed=44,
                               cost=CostModel(batch_pages=2))
        psz = cluster.config.cost.page_size
        v1, v2, v3 = (tag * psz for tag in (b"one.", b"two.", b"thr."))
        sh = make_replicated(cluster, "/runs", v1)
        gfile = (0, sh.stat("/runs")["ino"])
        site1 = cluster.site(1)
        prop, rpc = site1.fs.propagator, site1.rpc
        runs = []

        def commit_between_runs(dst, op, payload, *args, **kw):
            result = yield from rpc(dst, op, payload, *args, **kw)
            if op == "fs.pull_read_range" and payload["gfile"] == gfile:
                runs.append((payload["pages"], isinstance(result, dict)
                             and "pages" in result))
                if len(runs) == 1:
                    yield cluster.spawn(0, cluster.shell(0).api.write_file(
                        "/runs", v3)).done
            return result

        site1.rpc = commit_between_runs
        sh.write_file("/runs", v2)
        cluster.settle()
        del site1.rpc
        assert prop.stats.restarts == 1
        assert runs == [([0, 1], True), ([2, 3], False),
                        ([0, 1], True), ([2, 3], True)]
        assert cluster.shell(1).read_file("/runs") == v3

    @pytest.mark.parametrize("failure", ["unreachable", "no copy"])
    def test_an_announcer_that_cannot_serve_falls_back_to_another_copy(
            self, cluster, failure):
        """The first pinned read cannot reach the announcing site, or
        finds it without a copy (``ENOENT``): the pull opens the file
        explicitly at the next storage site holding the announced version
        and pages it from there."""
        sh = make_replicated(cluster, "/far", b"v1")
        site1 = cluster.site(1)
        prop, rpc = site1.fs.propagator, site1.rpc
        held, reads = [], []
        prop.enqueue = lambda gfile, attrs, pages, hint: held.append(
            (gfile, attrs, pages, hint))
        sh.write_file("/far", b"v2")
        cluster.settle()
        del prop.enqueue

        def announcer_fails(dst, op, payload, *args, **kw):
            if op == "fs.pull_read":
                reads.append(dst)
                if dst == 0 and failure == "unreachable":
                    raise Unreachable(1, 0)
                if dst == 0:
                    cluster.site(0).fs.local_inode(
                        payload["gfile"]).has_data = False
            return (yield from rpc(dst, op, payload, *args, **kw))

        site1.rpc = announcer_fails
        win = StatsWindow(cluster.stats)
        for args in held:
            prop.enqueue(*args)
        cluster.settle()
        del site1.rpc
        assert win.close().sent["fs.pull_open"] == 1
        assert reads == [0, 2]
        assert site1.fs.local_inode((0, sh.stat("/far")["ino"])).version \
            == sh.stat("/far")["version"]
        assert cluster.shell(1).read_file("/far") == b"v2"

    def test_an_announcer_moved_off_its_version_falls_back(self, cluster):
        """The announcing site's copy moved to a version that does not
        supersede the one it announced (here, back to the older one): its
        pinned read answers with those attributes, and the pull opens the
        file at the next storage site instead of settling for them."""
        sh = make_replicated(cluster, "/moved", b"v1")
        gfile = (0, sh.stat("/moved")["ino"])
        old_vv = sh.stat("/moved")["version"]
        site1 = cluster.site(1)
        prop, rpc = site1.fs.propagator, site1.rpc
        held, reads = [], []
        prop.enqueue = lambda gfile, attrs, pages, hint: held.append(
            (gfile, attrs, pages, hint))
        sh.write_file("/moved", b"v2")
        cluster.settle()
        del prop.enqueue
        cluster.site(0).fs.local_inode(gfile).version = old_vv

        def record(dst, op, payload, *args, **kw):
            if op == "fs.pull_read":
                reads.append(dst)
            return (yield from rpc(dst, op, payload, *args, **kw))

        site1.rpc = record
        win = StatsWindow(cluster.stats)
        for args in held:
            prop.enqueue(*args)
        cluster.settle()
        del site1.rpc
        assert win.close().sent["fs.pull_open"] == 1
        assert reads == [0, 2]
        assert site1.fs.local_inode(gfile).version == \
            cluster.site(2).fs.local_inode(gfile).version != old_vv
        assert cluster.shell(1).read_file("/moved") == b"v2"

    def test_chown_propagates_with_no_pull_message(self, cluster):
        sh = make_replicated(cluster, "/owned", b"payload" * 100)
        win = StatsWindow(cluster.stats)
        sh.chown("/owned", "alice")
        cluster.settle()
        sent = win.close().sent
        assert not [op for op in sent if op.startswith("fs.pull")]
        for s in range(3):
            inode = cluster.site(s).fs.local_inode(
                (0, sh.stat("/owned")["ino"]))
            assert (inode.owner, inode.version) == \
                ("alice", sh.stat("/owned")["version"])

    def test_a_pinned_read_during_the_commit_step_gets_new_bytes(
            self, cluster):
        """A read pinned to the vector a storage-site commit just
        installed, served while the commit waits on its inode write, must
        see the committed bytes, not the previous version's cached page."""
        sh = make_replicated(cluster, "/step", b"old bytes")
        gfile = (0, sh.stat("/step")["ino"])
        site0 = cluster.site(0)
        original_commit = ShadowFile.commit
        served = []

        def read_pinned(vv):
            served.append((yield from site0.fs.propagator.h_pull_read(
                1, {"gfile": gfile, "page": 0, "vv": vv})))

        def commit(shadow, *args, **kw):
            mine = shadow.pack.site_id == 0 and shadow.ino == gfile[1]
            if mine:
                # A committed-view read of the old version, cached while
                # the writer staged its pages.
                old = shadow.pack.get_inode(gfile[1])
                site0.cache.put((*gfile, 0, "c"),
                                shadow.pack.read_block(old.pages[0]))
            vv = original_commit(shadow, *args, **kw)
            if mine:
                cluster.spawn(0, read_pinned(vv))
            return vv

        ShadowFile.commit = commit
        try:
            sh.write_file("/step", b"new bytes")
        finally:
            ShadowFile.commit = original_commit
        cluster.settle()
        assert served == [b"new bytes"]


class TestManifestBacklog:
    """The backlog service (``CostModel.pull_manifest``): requests queued
    in one instant are drained and serviced together, with one
    ``fs.pull_manifest`` per source and up to ``pull_pipeline`` pulls per
    wave.  Each test holds site 1's notifies while site 0 writes, then
    releases them at once so they form one backlog."""

    def _cluster(self, seed, **kw):
        return LocusCluster(n_sites=3, seed=seed, cost=CostModel(
            pull_manifest=True, pull_pipeline=4), **kw)

    def _stale(self, cluster, writes):
        """Write ``{path: [content, ...]}`` at site 0 with site 1's
        propagator holding its requests; return the shell, site 1's
        propagator, each path's gfile and the held ``enqueue`` calls."""
        sh = cluster.shell(0)
        sh.setcopies(3)
        for path, contents in writes.items():
            sh.write_file(path, contents[0])
        cluster.settle()
        prop = cluster.site(1).fs.propagator
        held = []
        prop.enqueue = lambda gfile, attrs, pages, hint: held.append(
            (gfile, attrs, pages, hint))
        for path, contents in writes.items():
            for data in contents[1:]:
                sh.write_file(path, data)
                cluster.settle()
        del prop.enqueue
        gfiles = {path: (0, sh.stat(path)["ino"]) for path in writes}
        return sh, prop, gfiles, held

    def _release(self, prop, held):
        for args in held:
            prop.enqueue(*args)

    def _spy(self, prop, name):
        calls = []
        original = getattr(prop, name)

        def spy(*args):
            calls.append(args)
            return original(*args)
        setattr(prop, name, spy)
        return calls

    def _version(self, cluster, site, gfile):
        return cluster.site(site).packs[0].get_inode(gfile[1]).version

    def test_pulls_losing_their_source_mid_wave_are_requeued_and_land(self):
        """A lost page read closes the circuit to the source, so every
        pull of the wave fails with NetworkError; each is requeued, not
        given up, and lands once the circuit reopens."""
        cluster = self._cluster(seed=401)
        sh, prop, gfiles, held = self._stale(
            cluster, {"/a": [b"a1", b"a2"], "/b": [b"b1", b"b2"]})
        retried = self._spy(prop, "_retry_later")
        inj = cluster.inject(FaultPlan(seed=401).drop("fs.pull_read"))
        self._release(prop, held)
        cluster.settle()
        assert [d for __, k, d in inj.trace if k == "dropped"] == \
            ["fs.pull_read"]
        assert sorted(req.gfile for (req,) in retried) == \
            sorted(gfiles.values())
        assert prop.stats.failed == 2
        assert prop.idle
        for gfile in gfiles.values():
            assert self._version(cluster, 1, gfile) == \
                self._version(cluster, 0, gfile)
        assert cluster.shell(1).read_file("/a") == b"a2"

    def test_given_up_pull_retires_only_its_unopened_placeholder(self):
        """Every source answers ENOENT: the pull ends in FsError and is
        given up.  An empty-vector placeholder is retired, unless a local
        open slipped in while the pull was failing."""
        cluster = self._cluster(seed=402, root_pack_sites=[0, 1])
        sh = cluster.shell(0)
        sh.setcopies(2)
        for path in ("/p", "/q"):
            sh.write_file(path, b"data")
        cluster.settle()
        pack1 = cluster.site(1).packs[0]
        fs1, prop = cluster.site(1).fs, cluster.site(1).fs.propagator
        gp, gq = ((0, sh.stat(path)["ino"]) for path in ("/p", "/q"))
        requests = []
        for gfile in (gp, gq):
            inode = pack1.get_inode(gfile[1])
            inode.has_data, inode.pages = False, []
            inode.version = VersionVector()
            # Site 2 holds no pack of the filegroup: it cannot serve.
            attrs = cluster.site(0).packs[0].get_inode(gfile[1]).attrs()
            attrs["storage_sites"] = [1, 2]
            requests.append((gfile, attrs, None, 2))
        site2 = cluster.site(2)
        pull_read = site2.fs.propagator.h_pull_read

        def open_q_then_refuse(src, p):
            if p["gfile"] == gq:
                fs1.ss[gq] = SsOpen(gfile=gq, shadow=ShadowFile(pack1, gq[1]))
            return (yield from pull_read(src, p))
        site2._handlers["fs.pull_read"] = open_q_then_refuse
        given_up = self._spy(prop, "_give_up")
        # Released one at a time, each pull runs alone and opens at its
        # announcing site through its first pinned read; with no other
        # storage site to fall back to, the ENOENT ends it.
        for request in requests:
            self._release(prop, [request])
            cluster.settle()
        assert sorted(req.gfile for (req,) in given_up) == [gp, gq]
        assert prop.stats.failed == 2
        assert prop.idle
        assert pack1.get_inode(gp[1]) is None
        assert pack1.get_inode(gq[1]) is not None
        del fs1.ss[gq]

    def test_a_file_the_manifest_cannot_vouch_for_opens_elsewhere(self):
        """The announcing site has no copy of ``/b`` when its manifest is
        asked: the reply omits it, and that pull opens the file with
        ``fs.pull_open`` at the next storage site instead."""
        cluster = self._cluster(seed=405)
        sh, prop, gfiles, held = self._stale(
            cluster, {"/a": [b"a1", b"a2"], "/b": [b"b1", b"b2"]})
        site0 = cluster.site(0)
        manifest = site0.fs.propagator.h_pull_manifest
        inode_b = site0.packs[0].get_inode(gfiles["/b"][1])

        def without_b(src, p):
            inode_b.has_data = False
            reply = yield from manifest(src, p)
            inode_b.has_data = True
            return reply
        site0._handlers["fs.pull_manifest"] = without_b
        win = StatsWindow(cluster.stats)
        self._release(prop, held)
        cluster.settle()
        sent = win.close().sent
        assert sent["fs.pull_manifest"] == 1 and sent["fs.pull_open"] == 1
        assert prop.stats.manifest_hits == 1
        for path, gfile in gfiles.items():
            assert self._version(cluster, 1, gfile) == \
                self._version(cluster, 0, gfile)
        assert cluster.shell(1).read_file("/b") == b"b2"

    def test_inode_vanishing_before_its_wave_is_retired_as_skipped(self):
        cluster = self._cluster(seed=403)
        sh, prop, gfiles, held = self._stale(
            cluster, {"/a": [b"a1", b"a2"], "/b": [b"b1", b"b2"]})
        pack1 = cluster.site(1).packs[0]
        site0 = cluster.site(0)
        manifest = site0.fs.propagator.h_pull_manifest

        def drop_b_then_answer(src, p):
            pack1.inodes.pop(gfiles["/b"][1])
            return (yield from manifest(src, p))
        site0._handlers["fs.pull_manifest"] = drop_b_then_answer
        retired = self._spy(prop, "_retire")
        skipped, pulls = prop.stats.skipped, prop.stats.pulls
        self._release(prop, held)
        cluster.settle()
        assert sorted(retired) == [(gfiles["/a"], "pulled"),
                                   (gfiles["/b"], "skipped")]
        assert prop.stats.skipped == skipped + 1
        assert prop.stats.pulls == pulls + 1
        assert prop.idle
        assert pack1.get_inode(gfiles["/b"][1]) is None

    def test_duplicate_notifies_pull_the_newest_version_once(self):
        """The newer notify arrives first: the older one is counted as
        skipped and the file is pulled once.  Replaying both once the copy
        is current pulls nothing."""
        cluster = self._cluster(seed=404)
        sh, prop, gfiles, held = self._stale(
            cluster, {"/d": [b"d1", b"d2", b"d3"]})
        assert len(held) == 2
        skipped, pulls = prop.stats.skipped, prop.stats.pulls
        self._release(prop, held[::-1])
        cluster.settle()
        assert prop.stats.pulls == pulls + 1
        assert prop.stats.skipped == skipped + 1
        assert self._version(cluster, 1, gfiles["/d"]) == \
            self._version(cluster, 0, gfiles["/d"])
        assert cluster.shell(1).read_file("/d") == b"d3"
        win = StatsWindow(cluster.stats)
        self._release(prop, held)
        cluster.settle()
        assert win.close().sent == {}
        assert prop.stats.pulls == pulls + 1
        assert prop.stats.skipped == skipped + 3
        assert prop.idle

    def test_backlog_member_open_locally_is_deferred(self):
        cluster = self._cluster(seed=405)
        sh, prop, gfiles, held = self._stale(
            cluster, {"/a": [b"a1", b"a2"], "/b": [b"b1", b"b2"]})
        fs1, pack1 = cluster.site(1).fs, cluster.site(1).packs[0]
        ga = gfiles["/a"]
        fs1.ss[ga] = SsOpen(gfile=ga, shadow=ShadowFile(pack1, ga[1]))
        cluster.sim.schedule(10.0, fs1.ss.pop, ga)
        deferred = self._spy(prop, "_defer")
        self._release(prop, held)
        cluster.settle()
        assert [req.gfile for (req,) in deferred] == [ga]
        assert prop.stats.deferred == 1
        assert prop.idle
        for gfile in gfiles.values():
            assert self._version(cluster, 1, gfile) == \
                self._version(cluster, 0, gfile)
