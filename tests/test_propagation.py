"""Update propagation behaviours (paper section 2.3.6)."""

import pytest

from repro import LocusCluster, Mode
from repro.config import CostModel
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

    def test_a_copy_dropped_mid_pull_defers_the_pull(self, cluster):
        """A copy whose pages were freed while a pull fetched (a dropped
        replica, a delete seen) must not take the pull's commit: the
        shadow cloned those pages and would free them again.  The pull
        re-queues and lands on the copy as it now stands."""
        psz = cluster.config.cost.page_size
        sh = make_replicated(cluster, "/dropped", b"old." * psz)
        gfile = (0, sh.stat("/dropped")["ino"])
        prop = cluster.site(1).fs.propagator
        pack = cluster.site(1).packs[0]
        original_pull_pages = prop._pull_pages

        def pull_pages(source, g, pages, shadow, waits=None):
            yield from original_pull_pages(source, g, pages, shadow, waits)
            if prop.stats.deferred == 0:
                pack.drop_data(g[1])

        prop._pull_pages = pull_pages
        sh.write_file("/dropped", b"new!" * psz)
        cluster.settle()
        assert prop.stats.deferred == 1
        assert fsck(cluster).block_aliasing == []
        assert pack.get_inode(gfile[1]).version == \
            sh.stat("/dropped")["version"]
        assert cluster.shell(1).read_file("/dropped") == b"new!" * psz

    def test_an_install_during_the_source_open_is_not_pulled_over(
            self, cluster):
        """A merge install that commits while a pull waits on its
        ``fs.pull_open`` leaves a copy newer than the pull's source: the
        pull must find it current, not commit the older version over it."""
        sh = make_replicated(cluster, "/raced", b"v1")
        gfile = (0, sh.stat("/raced")["ino"])
        site = cluster.site(1)
        rpc = site.rpc
        installed = []

        def open_after_an_install(dst, op, payload, *args, **kw):
            if op == "fs.pull_open" and not installed:
                attrs = cluster.site(dst).fs.local_inode(gfile).attrs()
                installed.append((yield from site.recovery.h_install_merged(
                    0, {"gfile": gfile, "data": b"merged",
                        "base_vv": attrs["version"],
                        **{k: attrs[k] for k in ("ftype", "owner", "perms",
                                                 "nlink", "storage_sites")}
                        })))
            return (yield from rpc(dst, op, payload, *args, **kw))

        site.rpc = open_after_an_install
        sh.write_file("/raced", b"v2")
        cluster.settle()
        del site.rpc
        merged_vv = installed[0]["version"]
        assert site.fs.local_inode(gfile).version == merged_vv
        for s in range(3):
            assert cluster.site(s).fs.local_inode(gfile).version == merged_vv
            assert cluster.shell(s).read_file("/raced") == b"merged"

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
        pull_open = site2.fs.propagator.h_pull_open

        def open_q_then_refuse(src, p):
            if p["gfile"] == gq:
                fs1.ss[gq] = SsOpen(gfile=gq, shadow=ShadowFile(pack1, gq[1]))
            return (yield from pull_open(src, p))
        site2._handlers["fs.pull_open"] = open_q_then_refuse
        given_up = self._spy(prop, "_give_up")
        self._release(prop, requests)
        cluster.settle()
        assert sorted(req.gfile for (req,) in given_up) == [gp, gq]
        assert prop.stats.failed == 2
        assert prop.idle
        assert pack1.get_inode(gp[1]) is None
        assert pack1.get_inode(gq[1]) is not None
        del fs1.ss[gq]

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
