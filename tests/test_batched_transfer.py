"""Batched page transfer (fs.read_pages / fs.write_pages /
fs.pull_read_range under the one ``batch_pages`` rule), the adaptive
readahead window, the pipelined propagation pull, and the two bookkeeping
fixes that ride along (buffer-cache file index, FIFO-floor pruning).
"""

import random

import pytest

from repro import LocusCluster
from repro.config import CostModel
from repro.net.stats import StatsWindow
from repro.storage.buffer_cache import BufferCache


def _cluster(seed=5, **cost_kw):
    return LocusCluster(n_sites=2, seed=seed, root_pack_sites=[0],
                        cost=CostModel().with_overrides(**cost_kw))


def _make_remote_file(cluster, path, data):
    sh0 = cluster.shell(0)
    sh0.write_file(path, data)
    cluster.settle()
    return sh0.stat(path)


def _open_remote(cluster, attrs):
    from repro.fs.types import Mode
    site1 = cluster.site(1)
    return site1, cluster.call(
        1, site1.fs.open_gfile((0, attrs["ino"]), Mode.READ))


class TestBatchedRead:
    def test_multi_page_read_uses_few_messages(self):
        # (pages, fs.read_pages sent, fs.read_page sent): a one-page tail
        # chunk travels in the paper's per-page message.
        for n_pages, many, single in ((8, 2, 0), (5, 1, 1)):
            data = bytes(range(256)) * 4 * n_pages
            cluster = _cluster(batch_pages=4, readahead_max=0)
            attrs = _make_remote_file(cluster, "/f", data)
            site1, handle = _open_remote(cluster, attrs)
            win = StatsWindow(cluster.stats)
            assert cluster.call(1, site1.fs.read(handle, 0, len(data))) \
                == data
            snap = win.close()
            assert snap.sent["fs.read_pages"] == many, n_pages
            assert snap.sent.get("fs.read_page", 0) == single, n_pages
            assert cluster.stats.pages_per_message("fs.read_pages") == 4.0

    def test_batched_content_identical_to_unbatched(self):
        data = b"".join(bytes([i % 251]) * 97 for i in range(80))
        for kw in ({}, {"batch_pages": 4}):
            cluster = _cluster(**kw)
            _make_remote_file(cluster, "/f", data)
            assert cluster.shell(1).read_file("/f") == data

    def test_single_page_requests_keep_paper_protocol(self):
        cluster = _cluster(batch_pages=4, readahead_max=0)
        attrs = _make_remote_file(cluster, "/f", b"q" * 100)   # one page
        site1, handle = _open_remote(cluster, attrs)
        win = StatsWindow(cluster.stats)
        assert cluster.call(1, site1.fs.read(handle, 0, 100)) == b"q" * 100
        snap = win.close()
        assert snap.sent.get("fs.read_page", 0) == 1
        assert "fs.read_pages" not in snap.sent

    def test_readahead_window_batches_lookahead(self):
        """The readahead window is the sequential run length so far: a
        window of one page travels in the paper's fs.read_page, a wider
        one in one fs.read_pages."""
        psz = CostModel().page_size
        data = b"r" * (psz * 8)
        cluster = _cluster(batch_pages=4)
        attrs = _make_remote_file(cluster, "/f", data)
        site1, handle = _open_remote(cluster, attrs)

        def read(page):
            got = cluster.call(1, site1.fs.read(handle, page * psz, psz))
            assert got == data[page * psz:(page + 1) * psz]
            cluster.settle()

        win = StatsWindow(cluster.stats)
        read(0)
        read(1)             # run of 1: page 2 read ahead on its own
        snap = win.close()
        assert snap.sent["fs.read_page"] == 3     # two demand, one ahead
        assert "fs.read_pages" not in snap.sent
        win2 = StatsWindow(cluster.stats)
        read(2)             # buffer hit, run of 2: pages 3-4 together
        snap2 = win2.close()
        assert snap2.sent["fs.read_pages"] == 1
        assert "fs.read_page" not in snap2.sent
        cached = [p for p in range(8) if site1.fs._page_key(
            handle.gfile, p) in site1.cache]
        assert cached == [0, 1, 2, 3, 4]
        cluster.call(1, site1.fs.close(handle))


class TestBatchedPull:
    def _pull_stats(self, n_pages=16, **cost_kw):
        cluster = LocusCluster(n_sites=2, seed=9,
                               cost=CostModel().with_overrides(**cost_kw))
        sh0 = cluster.shell(0)
        sh0.setcopies(2)
        sh0.write_file("/big", b"s")
        cluster.settle()                       # tiny initial propagation
        data = bytes((i * 7) % 256 for i in range(n_pages * 1024))
        sh0.write_file("/big", data)
        # Measure from here: the local write is done and the commit notify
        # is already on the wire, so window and clock see (almost) only the
        # n_pages-page propagation pull at site 1.
        t0 = cluster.sim.now
        win = StatsWindow(cluster.stats)
        cluster.settle()                       # the measured pull
        snap = win.close()
        vtime = cluster.sim.now - t0
        site1 = cluster.site(1)
        pulled = b"".join(
            cluster.call(1, site1.fs._committed_block((0, 2), p))
            for p in range(n_pages))
        # /big is ino 2 (first allocation after the root): verify from the
        # inode rather than assuming, to keep the check honest.
        ino = sh0.stat("/big")["ino"]
        assert ino == 2
        return cluster, snap, vtime, pulled[:len(data)], data

    def test_pull_uses_range_messages_and_pipelines(self):
        # (pages, pipeline depth, fs.pull_read_range sent, fs.pull_read
        # sent, pipelined rounds): a one-page tail chunk travels in the
        # paper's per-page message; a round of one chunk is not pipelined.
        for n_pages, depth, ranges, singles, rounds in ((16, 2, 4, 0, 2),
                                                        (5, 1, 1, 1, 0)):
            cluster, snap, __, pulled, data = self._pull_stats(
                n_pages, batch_pages=4, pull_pipeline=depth)
            assert pulled == data
            assert snap.sent["fs.pull_read_range"] == ranges, n_pages
            assert snap.sent.get("fs.pull_read", 0) == singles, n_pages
            prop = cluster.site(1).fs.propagator.stats     # cumulative
            assert prop.range_requests >= ranges
            assert prop.pipelined_rounds >= rounds
            assert prop.pages_pulled >= n_pages

    def test_pipelined_pull_is_faster_and_lighter(self):
        __, snap_off, vtime_off, pulled_off, data = self._pull_stats()
        __, snap_on, vtime_on, pulled_on, __ = self._pull_stats(
            batch_pages=4, pull_pipeline=4)
        assert pulled_off == data and pulled_on == data
        pull_msgs_off = (snap_off.sent["fs.pull_read"]
                         + snap_off.sent["fs.pull_read.resp"])
        pull_msgs_on = (snap_on.sent["fs.pull_read_range"]
                        + snap_on.sent["fs.pull_read_range.resp"])
        assert pull_msgs_on * 2 <= pull_msgs_off
        assert vtime_on * 2 <= vtime_off, (vtime_on, vtime_off)


class TestWriteBatchCostModel:
    """Pin the cost accounting that makes T15's on/off deltas attributable:
    the per-page write path pays the per-message fixed cost (latency +
    header serialization + packet assembly) once *per page*, while one
    ``fs.write_pages`` batch pays it once per message and charges wire
    time on the summed payload."""

    def test_message_delay_arithmetic(self):
        cost = CostModel()
        for n in (0, 1, 1024, 4096):
            assert cost.message_delay(n) == (
                cost.net_latency
                + (n + cost.msg_header_bytes) * cost.net_per_byte)

    def test_staged_flush_is_one_message_with_summed_payload(self):
        psz = CostModel().page_size
        cluster = _cluster(batch_pages=4)
        attrs = _make_remote_file(cluster, "/f", b"0" * (4 * psz))
        site1 = cluster.site(1)
        from repro.fs.types import Mode
        handle = cluster.call(
            1, site1.fs.open_gfile((0, attrs["ino"]), Mode.WRITE))
        win = StatsWindow(cluster.stats)
        for p in range(4):
            cluster.call(1, site1.fs.write(handle, p * psz,
                                           bytes([p]) * psz))
        cluster.call(1, site1.fs.commit(handle))
        snap = win.close()
        # Four whole-page writes, batch_pages=4: exactly one flush message,
        # and the commit has nothing left to flush.
        assert snap.sent.get("fs.write_pages", 0) == 1
        assert "fs.write_page" not in snap.sent
        assert cluster.stats.pages_per_message("fs.write_pages") == 4.0
        # The wire charges the summed page payload (plus small framing):
        # the batch can never smuggle data past the byte-time model.
        assert snap.total_bytes >= 4 * psz
        cluster.call(1, site1.fs.close(handle))
        cluster.settle()
        assert cluster.shell(0).read_file("/f") == b"".join(
            bytes([p]) * psz for p in range(4))

    def test_commit_wire_bytes_do_not_depend_on_batching(self):
        """The commit's count of shipped page writes rides the header, so
        a batched fs.commit costs the per-page protocol's wire bytes."""
        psz = CostModel().page_size
        commit_bytes = []
        for kw in ({}, {"batch_pages": 4}):
            cluster = _cluster(**kw)
            attrs = _make_remote_file(cluster, "/f", b"0" * (4 * psz))
            site1 = cluster.site(1)
            from repro.fs.types import Mode
            handle = cluster.call(
                1, site1.fs.open_gfile((0, attrs["ino"]), Mode.WRITE))
            win = StatsWindow(cluster.stats)
            cluster.call(1, site1.fs.write(handle, 0, b"w" * (4 * psz)))
            cluster.call(1, site1.fs.commit(handle))
            snap = win.close()
            # The batched arm did batch: one flush carried all four pages.
            assert snap.sent.get("fs.write_pages", 0) == (1 if kw else 0)
            assert snap.sent["fs.commit"] == 1
            commit_bytes.append(snap.bytes_sent["fs.commit"])
            cluster.call(1, site1.fs.close(handle))
        assert commit_bytes[0] == commit_bytes[1] > 0

    def test_fixed_cost_paid_once_per_message_not_per_page(self):
        """The attributable delta: batching 4 pages into one message saves
        exactly 3 per-message fixed costs of wire time (the payload bytes
        still pay full fare)."""
        cost = CostModel()
        psz = cost.page_size
        fixed = cost.message_delay(0)
        four_singles = 4 * cost.message_delay(psz)
        one_batch = cost.message_delay(4 * psz)
        assert one_batch == pytest.approx(
            four_singles - 3 * fixed)

    def test_single_page_flush_keeps_paper_message(self):
        """A one-page flush must stay on the paper-exact fs.write_page
        wire format (no batched framing for the degenerate case)."""
        cluster = _cluster(batch_pages=4)
        win = StatsWindow(cluster.stats)
        cluster.shell(1).write_file("/one", b"q" * 100)
        cluster.settle()
        snap = win.close()
        assert "fs.write_pages" not in snap.sent
        assert snap.sent.get("fs.write_page", 0) >= 1


# ---------------------------------------------------------------------------
# A run equals its singles at the storage site (seeded property tests).
# ---------------------------------------------------------------------------

PSZ = CostModel().page_size
N_PAGES = 8


def _ss_scene(seed):
    """Site 0 stores ``/f`` (N_PAGES pages); site 1 holds it open for
    modification, so site 0 has an ``SsOpen``.  Returns
    ``(cluster, gfile, so, invalidated)`` where ``invalidated`` collects
    the ``(site, page)`` of every page-token revocation sites 2 and 3
    receive.  Two scenes built from one seed are identical."""
    from repro.fs.types import Mode
    cluster = LocusCluster(n_sites=4, seed=seed, root_pack_sites=[0],
                           cost=CostModel())
    content = b"".join(bytes([48 + p]) * PSZ for p in range(N_PAGES))
    attrs = _make_remote_file(cluster, "/f", content)
    gfile = (0, attrs["ino"])
    cluster.call(1, cluster.site(1).fs.open_gfile(gfile, Mode.WRITE))
    invalidated = []
    for sid in (2, 3):
        site = cluster.site(sid)
        inner = site._handlers["fs.invalidate"]

        def tapped(src, p, inner=inner, sid=sid):
            invalidated.append((sid, p["page"]))
            return inner(src, p)

        site._handlers["fs.invalidate"] = tapped
    return cluster, gfile, cluster.site(0).fs.ss[gfile], invalidated


def _at_ss(cluster, op, src, payload):
    """Deliver ``op`` from ``src`` to the storage site (site 0) the way a
    message does — through its dispatcher — and let side effects land."""
    try:
        return cluster.call(0, cluster.site(0)._dispatch(op, src, payload))
    finally:
        cluster.settle()


def _draw(rng):
    """Random holders, page set, images and size for one write run."""
    holders = [(rng.choice((2, 3)), rng.randrange(N_PAGES + 2))
               for __ in range(rng.randrange(0, 12))]
    pages = sorted(rng.sample(range(N_PAGES + 2),
                              rng.randrange(1, N_PAGES + 1)))
    images = {p: bytes([rng.randrange(256)]) * rng.choice((PSZ, PSZ // 2, 1))
              for p in pages}
    size = max(pages) * PSZ + rng.randrange(1, PSZ + 1)
    return holders, pages, images, size


def _ss_state(cluster, gfile, so):
    cache = cluster.site(0).cache
    keys = [(gfile[0], gfile[1], p) for p in range(N_PAGES + 2)]
    keys += [k + ("c",) for k in keys]
    return {
        "shadowed": so.shadow.shadowed_pages,
        "pages": [so.shadow.read_page(p) for p in range(N_PAGES + 2)],
        "size": so.shadow.incore.size,
        "pages_received": so.pages_received,
        "io_error": so.io_error,
        "holders": {p: set(h) for p, h in so.page_holders.items()},
        "cache": {k: cache.peek(k) for k in keys},
        "cache_len": len(cache),
    }


class TestRunEqualsItsSingles:
    @pytest.mark.parametrize("seed", range(12))
    def test_write_pages_equals_write_page_series(self, seed):
        states, revoked = [], []
        for batched in (True, False):
            holders, pages, images, size = _draw(random.Random(seed))
            cluster, gfile, so, invalidated = _ss_scene(seed)
            for reader, page in holders:
                _at_ss(cluster, "fs.read_page", reader,
                       {"gfile": gfile, "page": page})
            if batched:
                _at_ss(cluster, "fs.write_pages", 1,
                       {"gfile": gfile, "pages": dict(images),
                        "size": size})
            else:
                for page in pages:
                    _at_ss(cluster, "fs.write_page", 1,
                           {"gfile": gfile, "page": page,
                            "data": images[page], "size": size})
            states.append(_ss_state(cluster, gfile, so))
            revoked.append(sorted(invalidated))
        assert states[0] == states[1]
        assert revoked[0] == revoked[1]
        assert states[0]["pages_received"] == len(pages)
        assert states[0]["size"] >= size
        for page in pages:
            assert states[0]["holders"][page] == {1}

    @pytest.mark.parametrize("seed", range(6))
    def test_disk_error_mid_run_poisons_the_open_either_way(self, seed):
        """The write protocol is one-way, so the error can only surface at
        the commit — as EIO, the root cause, never as the EWRITELOST count
        mismatch it also produces."""
        from repro.errors import EIO
        for batched in (True, False):
            rng = random.Random(seed)
            __, pages, images, size = _draw(rng)
            failing = rng.randrange(len(pages))
            cluster, gfile, so, __ = _ss_scene(seed)
            pack = cluster.site(0).packs[0]
            real, writes = pack.write_block, []

            def write_block(blockno, data):
                writes.append(blockno)
                if len(writes) == failing + 1:
                    raise EIO("injected disk write failure")
                real(blockno, data)

            pack.write_block = write_block
            if batched:
                with pytest.raises(EIO):
                    _at_ss(cluster, "fs.write_pages", 1,
                           {"gfile": gfile, "pages": dict(images),
                            "size": size})
            else:
                for i, page in enumerate(pages):
                    payload = {"gfile": gfile, "page": page,
                               "data": images[page], "size": size}
                    if i == failing:
                        with pytest.raises(EIO):
                            _at_ss(cluster, "fs.write_page", 1, payload)
                    else:
                        _at_ss(cluster, "fs.write_page", 1, payload)
            pack.write_block = real
            assert so.io_error is not None
            with pytest.raises(EIO):
                _at_ss(cluster, "fs.commit", 1,
                       {"gfile": gfile, "_expected": len(pages)})
            # The refusal undid the staged state; the old content stands.
            assert so.io_error is None and so.pages_received == 0
            assert not so.shadow.dirty
            assert cluster.shell(0).read_file("/f") == b"".join(
                bytes([48 + p]) * PSZ for p in range(N_PAGES))

    @pytest.mark.parametrize("seed", range(6))
    def test_read_runs_equal_their_singles(self, seed):
        """fs.read_pages / fs.pull_read_range answer what the per-page
        messages answer and register the same holders; the committed view
        never shows a staged page."""
        rng = random.Random(seed)
        __, staged, images, size = _draw(rng)
        wanted = sorted(rng.sample(range(N_PAGES), rng.randrange(1, 6)))
        committed = {p: bytes([48 + p]) * PSZ for p in wanted}
        answers, holders = [], []
        for run in (True, False):
            cluster, gfile, so, __ = _ss_scene(seed)
            _at_ss(cluster, "fs.write_pages", 1,
                   {"gfile": gfile, "pages": dict(images), "size": size})
            got = {}
            for view in ("incore", "committed", "pull"):
                extra = {"committed": True} if view == "committed" else {}
                one, many = (("fs.pull_read", "fs.pull_read_range")
                             if view == "pull"
                             else ("fs.read_page", "fs.read_pages"))
                if run:
                    got[view] = _at_ss(cluster, many, 2, dict(
                        extra, gfile=gfile, pages=list(wanted)))["pages"]
                else:
                    got[view] = {
                        p: _at_ss(cluster, one, 2,
                                  dict(extra, gfile=gfile, page=p))
                        for p in wanted}
            answers.append(got)
            holders.append({p: set(h) for p, h in so.page_holders.items()})
        assert answers[0] == answers[1]
        assert holders[0] == holders[1]
        got = answers[0]
        assert got["committed"] == committed and got["pull"] == committed
        for p in wanted:
            # The incore view serves the writer's staged image...
            if p in images:
                assert got["incore"][p] == images[p]
            # ...and only incore reads make the reader a page holder.
            assert 2 in holders[0][p]
        assert all(2 not in h for p, h in holders[0].items()
                   if p not in wanted)


class TestBufferCacheIndex:
    """The per-file key index must mirror the page map through every
    mutation path, including LRU eviction (the old whole-cache scans are
    gone; a desynchronized index would silently skip invalidations)."""

    def test_index_consistent_through_eviction_and_invalidation(self):
        cache = BufferCache(capacity_pages=8)
        for ino in range(4):
            for page in range(4):                  # 16 puts into 8 slots
                cache.put((0, ino, page), bytes([ino, page]))
                assert cache.check_index()
        assert len(cache) == 8
        assert cache.stats.evictions == 8
        cache.invalidate((0, 3, 0))
        assert cache.check_index()
        cache.invalidate_file(0, 2)
        assert cache.check_index()
        assert all(k[1] != 2 for k in cache._pages)

    def test_invalidate_committed_drops_only_committed_view(self):
        cache = BufferCache(capacity_pages=8)
        cache.put((0, 1, 0), b"incore")
        cache.put((0, 1, 0, "c"), b"committed")
        cache.put((0, 1, 1, "c"), b"committed2")
        assert cache.invalidate_committed(0, 1) == 2
        assert cache.check_index()
        assert (0, 1, 0) in cache
        assert (0, 1, 0, "c") not in cache
        assert cache.invalidate_file(0, 1) == 1
        assert len(cache) == 0 and cache.check_index()

    def test_foreign_keys_survive_file_invalidation(self):
        cache = BufferCache(capacity_pages=8)
        cache.put("exec:prog", b"image")           # non-tuple key
        cache.put((0, 1, 0), b"page")
        cache.invalidate_file(0, 1)
        assert cache.peek("exec:prog") == b"image"
        assert cache.check_index()


class TestFifoFloorPruning:
    def test_last_delivery_cleared_when_circuit_closes(self):
        cluster = LocusCluster(n_sites=3, seed=5)
        cluster.shell(0).write_file("/f", b"x")
        cluster.shell(1).read_file("/f")
        cluster.settle()
        net = cluster.net
        assert any(0 in k and 1 in k for k in net._last_delivery)
        cluster.partition({0}, {1, 2})
        assert not any(0 in k and 1 in k for k in net._last_delivery)
        assert not any(0 in k and 2 in k for k in net._last_delivery)
        cluster.heal()
        cluster.shell(1).read_file("/f")           # traffic flows again
        cluster.settle()

    def test_crash_clears_floors_for_the_dead_site(self):
        cluster = LocusCluster(n_sites=3, seed=5)
        cluster.shell(0).write_file("/f", b"x")
        cluster.shell(2).read_file("/f")
        cluster.settle()
        cluster.fail_site(2)
        assert not any(2 in k for k in cluster.net._last_delivery)
        cluster.restart_site(2)
        assert cluster.shell(2).read_file("/f") == b"x"
