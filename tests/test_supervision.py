"""Supervised remote operations: timeouts, bounded retry, replica failover.

The supervision layer (``cost.supervise_remote_ops``, default on) gives
remote calls a per-op timeout backstop and deterministic exponential
backoff, and lets the US read path substitute another pack copy mid-call
when its storage site dies (section 5.2 principle 3).  The write path's
half of the switch — stamps, ledgers, re-homing — is covered by
tests/test_exactly_once.py.  With the flag off every path degenerates to
the paper's unsupervised calls.
"""

import pytest

from repro import LocusCluster, Mode
from repro.config import PATIENT_RETRIES, CostModel
from repro.errors import EBUSY, ECONFLICT, LocusError, NetworkError
from repro.faults import FaultPlan
from repro.fs.types import ROOT_GFS
from repro.net.message import MsgKind
from repro.obs.critpath import analyze
from repro.tools import fsck


def _handler(calls, slow_first=0.0):
    def fn(src, payload):
        calls.append(src)
        if slow_first and len(calls) == 1:
            yield slow_first
        return "pong"
        yield   # pragma: no cover
    return fn


class TestSupervisedRpc:
    def test_retries_through_a_dropped_request(self):
        cluster = LocusCluster(n_sites=2, seed=71)
        calls = []
        cluster.sites[1].register_handler("t.ping", _handler(calls))
        cluster.inject(FaultPlan(seed=71).drop("t.ping", count=1))
        result = cluster.call(
            0, cluster.sites[0].supervised_rpc(1, "t.ping"))
        assert result == "pong"
        assert len(calls) == 1          # request dropped, retry arrived

    def test_timeout_is_retried_as_a_network_failure(self):
        cluster = LocusCluster(n_sites=2, seed=72)
        calls = []
        # First call sleeps far beyond RPC_TIMEOUT; the timeout
        # surfaces as a NetworkError and the retry completes fast.
        cluster.sites[1].register_handler(
            "t.slow", _handler(calls, slow_first=50_000.0))
        result = cluster.call(
            0, cluster.sites[0].supervised_rpc(1, "t.slow"))
        assert result == "pong"
        assert len(calls) == 2

    def test_flag_off_is_the_papers_unsupervised_call(self):
        cost = CostModel().with_overrides(supervise_remote_ops=False)
        cluster = LocusCluster(n_sites=2, seed=74, cost=cost)
        calls = []
        cluster.sites[1].register_handler("t.ping", _handler(calls))
        cluster.inject(FaultPlan(seed=74).drop("t.ping", count=1))
        with pytest.raises(NetworkError):
            cluster.call(0, cluster.sites[0].supervised_rpc(1, "t.ping"))
        assert calls == []

    def test_callable_dst_is_reresolved_each_attempt(self):
        """A retry chases responsibility that moved during the failure
        (e.g. a CSS re-elected while the call was failing)."""
        cluster = LocusCluster(n_sites=3, seed=75)
        calls = []
        cluster.sites[2].register_handler("t.ping", _handler(calls))
        cluster.fail_site(1)
        resolutions = []

        def resolve():
            resolutions.append(1)
            return 1 if len(resolutions) == 1 else 2

        result = cluster.call(
            0, cluster.sites[0].supervised_rpc(resolve, "t.ping"))
        assert result == "pong"
        assert len(resolutions) == 2    # first aimed at the dead site
        assert calls == [0]


class TestReadFailover:
    CONTENT = bytes(range(256)) * 24            # 6 pages

    def _replicated(self, seed=51, **flags):
        cost = CostModel().with_overrides(**flags) if flags else None
        cluster = LocusCluster(n_sites=3, seed=seed,
                               root_pack_sites=[1, 2], cost=cost)
        sh0 = cluster.shell(0)
        sh0.setcopies(2)
        sh0.write_file("/hot", self.CONTENT)
        cluster.settle()
        ino = sh0.stat("/hot")["ino"]
        return cluster, (ROOT_GFS, ino)

    def test_read_survives_ss_crash_mid_call(self):
        cluster, gfile = self._replicated()
        fs0 = cluster.site(0).fs
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.READ))
        ss = handle.ss_site
        task = cluster.spawn(0, fs0.read(handle, 0, len(self.CONTENT)))
        cluster.sim.run(until=cluster.sim.now + 30.0)
        assert not task.finished        # the read is underway
        cluster.fail_site(ss)
        cluster.settle()
        assert task.finished
        assert task.result() == self.CONTENT
        # The handle was substituted onto the surviving copy.
        assert handle.ss_site != ss and cluster.site(handle.ss_site).up
        cluster.call(0, fs0.close(handle))
        cluster.restart_site(ss)
        cluster.settle()
        assert fsck(cluster).clean

    def test_read_retry_backoff_is_the_syscalls_retry_wait(self):
        """The read's retry records its backoff on the syscall's own span
        (the re-home's css_open retries record theirs on its fs.open span,
        since the crashed SS was also the CSS), so the blame table books
        every backoff as retry_wait, and the one retry loop counts each as
        an rpc retry — the read's also as a read retry."""
        cluster, gfile = self._replicated()
        sh0 = cluster.shell(0)
        fd = sh0.open("/hot")
        (handle,) = [h for h in cluster.site(0).fs.us.values()
                     if h.gfile == gfile]
        ss = handle.ss_site
        task = cluster.spawn(0, sh0.api.pread(fd, 0, len(self.CONTENT)))
        cluster.sim.run(until=cluster.sim.now + 30.0)
        assert not task.finished
        cluster.fail_site(ss)
        cluster.settle()
        assert task.result() == self.CONTENT
        spans = list(cluster.tracer.spans)
        (root,) = [s for s in spans if s.name == "syscall.pread"]
        retries = [attrs for s in spans if s.trace_id == root.trace_id
                   for __, name, attrs in s.events if name == "retry"]
        # The page-transfer rule: the read moves its pages in chunks of up
        # to batch_pages, and a one-page chunk is the paper's fs.read_page.
        cost = cluster.config.cost
        chunk = min(cost.batch_pages, len(self.CONTENT) // cost.page_size)
        read_op = "fs.read_page" if chunk == 1 else "fs.read_pages"
        assert [attrs["op"] for __, name, attrs in root.events
                if name == "retry"] == [read_op]
        blame = analyze(cluster.tracer).syscalls["syscall.pread"]
        assert blame.segments["retry_wait"] == pytest.approx(
            sum(a["backoff"] for a in retries))
        counters = cluster.site(0).metrics.counters
        assert counters["rpc.retries"] == len(retries)
        assert counters["fs.read_retries"] == 1 == len(
            [a for a in retries if a["op"] == read_op])

    def test_unsupervised_read_fails_where_supervised_survives(self):
        cluster, gfile = self._replicated(
            seed=51, supervise_remote_ops=False)
        fs0 = cluster.site(0).fs
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.READ))
        ss = handle.ss_site
        task = cluster.spawn(0, fs0.read(handle, 0, len(self.CONTENT)))
        cluster.sim.run(until=cluster.sim.now + 30.0)
        assert not task.finished
        cluster.fail_site(ss)
        cluster.settle()
        assert task.finished
        with pytest.raises(NetworkError):
            task.result()

    def test_whole_syscall_rides_through_dropped_css_open(self):
        cluster, gfile = self._replicated(seed=52)
        inj = cluster.inject(
            FaultPlan(seed=52).drop("fs.css_open", count=1))
        assert cluster.shell(0).read_file("/hot") == self.CONTENT
        assert [d for __, k, d in inj.trace
                if k == "dropped"] == ["fs.css_open"]


class TestReopenElsewhere:
    """Reconfiguration cleanup's reader reopen (section 5.6's failure
    action for 'remote file in use locally (read)')."""

    def _open_reader(self, cluster, path="/f"):
        sh0 = cluster.shell(0)
        fs0 = cluster.site(0).fs
        ino = sh0.stat(path)["ino"]
        handle = cluster.call(
            0, fs0.open_gfile((ROOT_GFS, ino), Mode.READ))
        return fs0, handle

    def test_reader_survives_partition_via_reopen(self):
        cluster = LocusCluster(n_sites=3, seed=81, root_pack_sites=[1, 2])
        sh0 = cluster.shell(0)
        sh0.setcopies(2)
        sh0.write_file("/f", b"resilient" * 300)
        cluster.settle()
        fs0, handle = self._open_reader(cluster)
        ss = handle.ss_site
        other = 3 - ss                  # the surviving pack copy
        cluster.partition({0, other}, {ss})
        assert not handle.closed
        assert handle.ss_site == other
        data = cluster.call(0, fs0.read(handle, 0, 9 * 300))
        assert data == b"resilient" * 300
        cluster.call(0, fs0.close(handle))

    def test_reader_errors_when_no_copy_remains(self):
        cluster = LocusCluster(n_sites=2, seed=82, root_pack_sites=[1])
        sh0 = cluster.shell(0)
        sh0.write_file("/f", b"solo")
        cluster.settle()
        fs0, handle = self._open_reader(cluster)
        cluster.partition({0}, {1})
        assert handle.closed
        assert handle.attrs["error"] == "no surviving copy reachable"
        assert handle.hid not in fs0.us

    def test_reader_refuses_stale_copy(self):
        """A surviving copy older than the open version must not be
        silently substituted — time never runs backwards for a reader."""
        cluster = LocusCluster(n_sites=3, seed=83, root_pack_sites=[1, 2])
        sh0 = cluster.shell(0)
        sh0.setcopies(2)
        sh0.write_file("/f", b"generation 1")
        cluster.settle()                # both copies at v1
        cluster.fail_site(2)
        sh0.write_file("/f", b"generation 2")
        cluster.settle()                # v2 on site 1 only
        fs0, handle = self._open_reader(cluster)
        assert handle.ss_site == 1
        # Site 2 returns, stale; site 1 (the only v2 copy) dies before
        # propagation can catch 2 up.
        cluster.restart_site(2, settle=False, merge=False)
        cluster.fail_site(1, settle=False)
        cluster.settle()
        assert handle.closed
        assert handle.attrs["error"] == "remaining copies are stale"


# ---------------------------------------------------------------------------
# The re-home contract: one implementation (FsManager.rehome), both modes.
# ---------------------------------------------------------------------------

V1 = b"generation 1" * 100          # 2 pages
V2 = b"generation 2, longer" * 100  # 2 pages


def _tap(site, op, seen):
    """Record every ``(src, payload)`` arriving for ``op`` at ``site``."""
    inner = site._handlers[op]

    def tapped(src, p):
        seen.append((op, src, p))
        return inner(src, p)

    site._handlers[op] = tapped


def _rehome_scene(mode, elsewhere, seed, supervised=True):
    """A handle of ``mode`` on site 0 whose storage site (1) is about to be
    lost, with ``elsewhere`` describing what the other pack site (2)
    holds: the ``same`` version, a ``newer`` one, only an ``older`` one,
    or ``nothing`` (no second pack).  Returns
    ``(cluster, handle, lose)``; ``lose()`` takes the storage site away
    and lets reconfiguration cleanup run."""
    cost = None if supervised else \
        CostModel().with_overrides(supervise_remote_ops=False)
    packs = [1] if elsewhere == "nothing" else [1, 2]
    cluster = LocusCluster(n_sites=3, seed=seed, root_pack_sites=packs,
                           cost=cost)
    sh0 = cluster.shell(0)
    sh0.setcopies(len(packs))
    sh0.write_file("/f", V1)
    cluster.settle()
    gfile = (ROOT_GFS, sh0.stat("/f")["ino"])
    fs0 = cluster.site(0).fs
    if elsewhere == "older":
        # Site 2 misses the second generation and comes back stale just
        # as site 1, the only current copy, goes away.
        cluster.fail_site(2)
        sh0.write_file("/f", V2)
        cluster.settle()
    handle = cluster.call(0, fs0.open_gfile(gfile, mode))
    assert handle.ss_site == 1
    if elsewhere == "newer":
        if mode is Mode.READ:
            # A writer whose US stores the file is served there (Figure 2,
            # optimization 1): site 2 moves on while our reader keeps
            # site 1's copy pinned open.
            cluster.shell(2).write_file("/f", V2)
            cluster.settle()
        else:
            # The commit applies and propagates, but its reply never
            # reaches the handle, which still waits on it when its storage
            # site is lost: the replica is ahead of what the writer
            # believes is the committed base, by the writer's own commit.
            base = handle.attrs["version"]
            cluster.call(0, fs0.write(handle, 0, V2))
            cluster.call(0, fs0.commit(handle))
            cluster.settle()
            handle.attrs["version"] = base
            handle.committing = True

    def lose():
        if elsewhere == "older":
            cluster.restart_site(2, settle=False, merge=False)
        cluster.fail_site(1, settle=False)
        cluster.settle()

    return cluster, handle, lose


def _rehome_spans(cluster, name):
    return [s for s in cluster.tracer.spans if s.name == name]


class TestRehomeContract:
    """reader / writer x what survives elsewhere -> where the handle ends
    up, which attributes it adopts, what is replayed, which counter and
    span record it, and what the descriptor says when nothing serves."""

    @pytest.mark.parametrize("elsewhere", ["same", "newer"])
    def test_reader_adopts_the_substitute(self, elsewhere):
        cluster, handle, lose = _rehome_scene(Mode.READ, elsewhere, seed=91)
        opened = handle.attrs["version"]
        lose()
        assert not handle.closed and handle.ss_site == 2
        # A reader takes the replacement's attributes whole.
        current = cluster.site(2).packs[ROOT_GFS].get_inode(handle.gfile[1])
        assert handle.attrs["version"] == current.version
        assert handle.attrs["size"] == current.size
        if elsewhere == "same":
            assert handle.attrs["version"] == opened
            want = V1
        else:
            assert handle.attrs["version"] != opened
            assert handle.attrs["version"].dominates(opened)
            want = V2
        fs0 = cluster.site(0).fs
        assert cluster.call(0, fs0.read(handle, 0, len(want))) == want
        counters = cluster.site(0).metrics.counters
        assert counters["fs.failovers"] == 1
        assert "fs.write_failovers" not in counters
        (span,) = _rehome_spans(cluster, "fs.failover")
        assert span.status == "ok"
        assert list(span.attrs) == ["gfile", "failed_ss", "new_ss"]
        assert (span.attrs["failed_ss"], span.attrs["new_ss"]) == (1, 2)
        assert not _rehome_spans(cluster, "fs.write_failover")
        cluster.call(0, fs0.close(handle))

    @pytest.mark.parametrize("elsewhere", ["same", "newer"])
    def test_writer_keeps_its_view_and_replays_in_protocol_order(
            self, elsewhere):
        cluster, handle, lose = _rehome_scene(Mode.WRITE, elsewhere, seed=92)
        fs0 = cluster.site(0).fs
        psz = cluster.site(0).cost.page_size
        image = b"".join(bytes([65 + i]) * psz for i in range(3))
        cluster.call(0, fs0.truncate(handle))
        cluster.call(0, fs0.write(handle, 0, image))
        cluster.call(0, fs0.set_attrs(handle, perms=0o600))
        attrs = handle.attrs
        arrivals = []
        for op in ("fs.truncate", "fs.set_attrs", "fs.write_page",
                   "fs.write_pages", "fs.commit"):
            _tap(cluster.site(2), op, arrivals)
        lose()
        assert not handle.closed and handle.ss_site == 2
        # The writer keeps its own staged view (same dict: size, patch)
        # and takes only the committed base from the replacement.
        assert handle.attrs is attrs
        assert handle.size == len(image) and attrs["perms"] == 0o600
        base = cluster.site(2).packs[ROOT_GFS].get_inode(handle.gfile[1])
        assert attrs["version"] == base.version
        assert attrs["storage_sites"] == base.storage_sites
        cluster.call(0, fs0.commit(handle))
        cluster.call(0, fs0.close(handle))
        # Truncate first, then attribute patches, then every page image
        # (in page order), all before the commit — whether the pages
        # travel one per message or as a batched run.
        ops = [op for op, src, __ in arrivals if src == 0]
        assert ops[:2] == ["fs.truncate", "fs.set_attrs"]
        assert ops[-1] == "fs.commit"
        assert set(ops[2:-1]) <= {"fs.write_page", "fs.write_pages"}
        pages = []
        for op, src, p in arrivals:
            if src == 0 and op == "fs.write_page":
                pages.append(p["page"])
            elif src == 0 and op == "fs.write_pages":
                pages.extend(sorted(p["pages"]))
        assert pages == [0, 1, 2]
        counters = cluster.site(0).metrics.counters
        assert counters["fs.write_failovers"] == 1
        assert "fs.failovers" not in counters
        (span,) = _rehome_spans(cluster, "fs.write_failover")
        assert span.status == "ok"
        assert list(span.attrs) == ["gfile", "failed_ss", "new_ss",
                                    "restaged"]
        assert span.attrs["restaged"] == 3
        assert not _rehome_spans(cluster, "fs.failover")
        cluster.restart_site(1)
        cluster.settle()
        assert cluster.shell(0).read_file("/f") == image
        assert cluster.shell(0).stat("/f")["perms"] == 0o600
        assert fsck(cluster).clean

    def test_writer_superseded_by_another_commit_fails_its_commit(self):
        """The replica is ahead by a commit this open has not got on the
        wire: another writer's, as far as the handle can tell.  Replaying
        the staged pages over it would drop it, so the writer adopts the
        replica whole (coherent reads), drops its staged changes and
        fails its commit."""
        cluster, handle, lose = _rehome_scene(Mode.WRITE, "newer", seed=92)
        handle.committing = False   # no commit of this open on the wire
        fs0 = cluster.site(0).fs
        cluster.call(0, fs0.truncate(handle))
        cluster.call(0, fs0.write(handle, 0, b"stale base"))
        lose()
        assert handle.superseded and handle.ss_site == 2
        base = cluster.site(2).packs[ROOT_GFS].get_inode(handle.gfile[1])
        assert handle.attrs["version"] == base.version
        assert handle.size == base.size == len(V2)
        assert not handle.staged_pages and not handle.staged_truncate
        assert cluster.call(0, fs0.read_all(handle)) == V2
        with pytest.raises(ECONFLICT):
            cluster.call(0, fs0.commit(handle))
        cluster.call(0, fs0.abort(handle))
        assert not handle.superseded
        cluster.call(0, fs0.close(handle))
        cluster.restart_site(1)
        cluster.settle()
        assert cluster.shell(0).read_file("/f") == V2
        assert fsck(cluster).clean

    def test_a_commit_in_flight_refuses_to_land_over_another_commit(self):
        """The storage site is lost under a commit whose re-home finds the
        replica ahead by another writer's commit (one bumped at site 2,
        not at the lost SS): the commit fails rather than send an empty
        staged state to the replica."""
        cluster, handle, __ = _rehome_scene(Mode.WRITE, "same", seed=95)
        fs0 = cluster.site(0).fs
        replica = cluster.site(2).packs[ROOT_GFS].get_inode(handle.gfile[1])
        replica.version = replica.version.bump(2)
        cluster.call(0, fs0.write(handle, 0, b"mine"))
        commit = cluster.spawn(0, fs0.commit(handle))
        cluster.fail_site(1, settle=False)
        cluster.settle()
        assert isinstance(commit.done.exception(), ECONFLICT)
        assert handle.superseded and handle.ss_site == 2
        assert handle.attrs["version"] == replica.version
        cluster.call(0, fs0.abort(handle))
        cluster.call(0, fs0.close(handle))
        assert cluster.shell(0).read_file("/f") == V1

    def test_read_all_rereads_a_version_substituted_mid_read(self):
        """A failover that lands inside a whole-file read changes the size
        and pages under it: ``read_all`` reads the substitute again rather
        than return the new pages cut to the old size."""
        cluster, handle, lose = _rehome_scene(Mode.READ, "newer", seed=91)
        fs0 = cluster.site(0).fs
        read, calls = fs0.read, []

        def failover_inside(h, offset, nbytes):
            data = yield from read(h, offset, nbytes)
            if not calls:
                lose()   # the reader adopts site 2's newer copy
            calls.append(nbytes)
            return data

        fs0.read = failover_inside
        assert cluster.call(0, fs0.read_all(handle)) == V2
        del fs0.read
        assert calls == [len(V1), len(V2)]
        cluster.call(0, fs0.close(handle))

    @pytest.mark.parametrize("mode, elsewhere, supervised, error, status", [
        (Mode.READ, "older", True, "remaining copies are stale", "ESTALE"),
        (Mode.READ, "nothing", True, "no surviving copy reachable", None),
        (Mode.READ, "nothing", False, "no surviving copy reachable", None),
        # A writer never rewinds either: the floor it vouches for rules
        # the stale copy out, and the descriptor gets the paper's error.
        (Mode.WRITE, "older", True, "storage site 1 lost", "ENOENT"),
        (Mode.WRITE, "nothing", True, "storage site 1 lost", None),
        (Mode.WRITE, "nothing", False, "storage site 1 lost", None),
    ])
    def test_descriptor_error_when_nothing_serves(
            self, mode, elsewhere, supervised, error, status):
        cluster, handle, lose = _rehome_scene(mode, elsewhere, seed=93,
                                              supervised=supervised)
        fs0 = cluster.site(0).fs
        if mode is Mode.WRITE:
            cluster.call(0, fs0.write(handle, 0, b"doomed" * 200))
        lose()
        assert handle.closed and not handle.dirty
        assert handle.attrs["error"] == error
        assert handle.hid not in fs0.us
        with pytest.raises(LocusError):
            cluster.call(0, fs0.read(handle, 0, 1))
        name = "fs.write_failover" if mode is Mode.WRITE else "fs.failover"
        spans = _rehome_spans(cluster, name)
        if mode is Mode.WRITE and not supervised:
            # The paper's failure action as written: no re-home attempted.
            assert not spans
        else:
            assert len(spans) == 1 and spans[0].status != "ok"
            assert "new_ss" not in spans[0].attrs
            if status is not None:
                assert spans[0].status == status

    def test_concurrent_rehomes_share_one_reopen(self):
        """A mid-call retry and reconfiguration cleanup re-homing one
        handle at once: the second waits for the first and adopts its
        outcome — one css_open, one CSS registration."""
        cluster, handle, __ = _rehome_scene(Mode.READ, "same", seed=94)
        fs0 = cluster.site(0).fs
        opens = []
        _tap(cluster.site(2), "fs.css_open", opens)
        cluster.fail_site(1, settle=False)      # cleanup will re-home...
        retries = [cluster.spawn(0, fs0.rehome(handle)) for __ in range(2)]
        cluster.sim.run(until=cluster.sim.now + 1.0)
        assert handle.failover_busy is not None  # ...a retry got there first
        cluster.settle()
        for task in retries:
            assert task.finished and task.result() is None
        assert handle.failover_busy is None
        assert not handle.closed and handle.ss_site == 2
        assert cluster.site(0).metrics.counters["fs.failovers"] == 1
        stamps = {tuple(p["_stamp"]) for __, src, p in opens
                  if src == 0 and p["gfile"] == handle.gfile}
        assert len(stamps) == 1
        entry = cluster.site(2).fs.css_entries[handle.gfile]
        assert entry.readers == {0: 1} and entry.writer is None
        cluster.call(0, fs0.close(handle))
        assert handle.gfile not in cluster.site(2).fs.css_entries


# ---------------------------------------------------------------------------
# The supervised fs calls under faults tier-1 otherwise never reaches: a
# commit re-homed after an ambiguous attempt, a writer whose re-home finds
# nobody, a commit that spends its whole budget, and the close rescue.
# ---------------------------------------------------------------------------

def _remote_writer(root_pack_sites, us=1, seed=3):
    """A write open at ``us`` of ``/f``, stored only at site 2 (so site 2 is
    its storage site; the CSS is site 0, the lowest pack site)."""
    cluster = LocusCluster(n_sites=3, seed=seed,
                           root_pack_sites=root_pack_sites)
    sh2 = cluster.shell(2)
    sh2.setcopies(1)
    sh2.write_file("/f", b"x" * 3000)
    cluster.settle()
    gfile = (ROOT_GFS, sh2.stat("/f")["ino"])
    fs = cluster.site(us).fs
    handle = cluster.call(us, fs.open_gfile(gfile, Mode.WRITE))
    assert (fs.mount.css_for(ROOT_GFS), handle.ss_site) == (0, 2)
    return cluster, fs, handle


class TestSupervisedFsCalls:
    def test_ambiguous_commit_rehomes_with_a_dominating_floor(self):
        """The commit applies at SS 1, its reply is lost and SS 1 is cut
        off: the attempt is ambiguous.  The commit re-homes to the other
        copy with a version-vector floor bumped for site 1, so the version
        it commits strictly dominates whatever site 1 ended up with."""
        cluster = LocusCluster(n_sites=3, seed=41, root_pack_sites=[1, 2])
        sh0 = cluster.shell(0)
        sh0.setcopies(2)
        sh0.write_file("/w", b"seed" * 64)
        cluster.settle()
        gfile = (ROOT_GFS, sh0.stat("/w")["ino"])
        fs0 = cluster.site(0).fs
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.WRITE))
        assert handle.ss_site == 1
        cluster.call(0, fs0.write(handle, 0, b"N" * 1024))
        net = cluster.net
        send = net.send
        cut = []

        def lose_reply_and_ss(src, dst, msg):
            if (msg.mtype == "fs.commit" and msg.kind is MsgKind.RESPONSE
                    and not cut):
                cut.append(src)
                net.set_partitions([{0, 2}, {1}])
                return
            send(src, dst, msg)

        net.send = lose_reply_and_ss
        vv = cluster.call(0, fs0.commit(handle))
        net.send = send
        assert cut == [1], "fault never fired"
        lost = cluster.site(1).packs[ROOT_GFS].get_inode(gfile[1]).version
        assert vv.dominates(lost) and vv != lost
        assert handle.ss_site == 2
        counters = cluster.site(0).metrics.counters
        assert counters["fs.commit_retries"] == 2   # same SS, then re-home
        assert counters["fs.write_failovers"] == 1
        cluster.call(0, fs0.close(handle))
        cluster.heal()
        assert cluster.shell(1).read_file("/w") == b"N" * 1024 + \
            (b"seed" * 64)[1024:]
        assert fsck(cluster).clean

    def test_writer_keeps_its_budget_when_the_rehome_finds_nobody(self):
        """A writer's truncate loses its SS, and the re-home cannot reach
        the CSS: unlike a reader, the writer keeps spending its budget.
        Its next lap re-homes and the truncate lands."""
        cluster, fs1, handle = _remote_writer([0, 2])
        inj = cluster.inject(FaultPlan(seed=3)
                             .drop("fs.truncate", count=2)
                             .drop("fs.css_open", count=4))
        cluster.call(1, fs1.truncate(handle))
        assert [d for __, k, d in inj.trace if k == "dropped"] == \
            ["fs.truncate"] + ["fs.css_open"] * 4 + ["fs.truncate"]
        counters = cluster.site(1).metrics.counters
        assert counters["fs.read_retries"] == 2
        assert counters["fs.write_failovers"] == 2
        failovers = [s for s in cluster.tracer.spans
                     if s.name == "fs.write_failover"]
        assert [s.status for s in failovers] == ["CircuitClosed", "ok"]
        assert not handle.closed and handle.ss_site == 2
        cluster.call(1, fs1.write(handle, 0, b"new"))
        cluster.call(1, fs1.commit(handle))
        cluster.call(1, fs1.close(handle))
        cluster.settle()
        assert cluster.shell(0).read_file("/f") == b"new"
        assert fsck(cluster).clean

    def test_commit_raises_the_original_error_once_its_budget_is_spent(
            self):
        cluster = LocusCluster(n_sites=2, seed=42, root_pack_sites=[1])
        sh0 = cluster.shell(0)
        sh0.write_file("/w", b"seed" * 64)
        cluster.settle()
        gfile = (ROOT_GFS, sh0.stat("/w")["ino"])
        fs0 = cluster.site(0).fs
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.WRITE))
        cluster.call(0, fs0.write(handle, 0, b"N" * 1024))
        cluster.inject(FaultPlan(seed=42).drop("fs.commit", count=100))
        with pytest.raises(NetworkError):
            cluster.call(0, fs0.commit(handle))
        counters = cluster.site(0).metrics.counters
        assert counters["fs.commit_retries"] == PATIENT_RETRIES
        assert not handle.closed

    @pytest.mark.parametrize("us, other", [(1, 0), (0, 1)],
                             ids=["remote-css", "local-css"])
    def test_close_with_its_ss_gone_still_releases_the_write_token(
            self, us, other):
        """The supervised fs.close cannot reach the SS, so the US releases
        its CSS registration itself (remote or local CSS): once the copy
        is back, a second writer opens without EBUSY."""
        cluster, fs, handle = _remote_writer([0, 2], us=us)
        cluster.fail_site(2, settle=False)
        cluster.call(us, fs.close(handle))
        assert cluster.site(us).metrics.counters["fs.close_rescues"] == 1
        entry = cluster.site(0).fs.css_entries.get(handle.gfile)
        assert entry is None or entry.writer is None
        cluster.settle()
        cluster.restart_site(2)
        fs_other = cluster.site(other).fs
        second = cluster.call(other, fs_other.open_gfile(handle.gfile,
                                                         Mode.WRITE))
        assert second.ss_site == 2
        cluster.call(other, fs_other.close(second))
