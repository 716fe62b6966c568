"""The hot-path name cache: unit behaviour and — the part that matters —
the impossibility of stale results.

The consistency regressions run every scenario with the cache on *and* off:
the observable results must be identical, only the message traffic may
differ.  A remote commit (or a partition heal + merge) must be visible to
the very next interrogation at every other site.
"""

import pytest

from repro import LocusCluster
from repro.config import CostModel
from repro.fs.directory import DirEntry
from repro.fs.name_cache import NameCache
from repro.net.stats import StatsWindow
from repro.storage.inode import FileType
from repro.storage.version_vector import VersionVector


def _vv(site, n=1):
    v = VersionVector()
    for __ in range(n):
        v = v.bump(site)
    return v


def _entries(*names):
    return [DirEntry(name=n, ino=i + 2, ftype=FileType.REGULAR)
            for i, n in enumerate(names)]


class TestNameCacheUnit:
    def test_validated_get_requires_exact_version(self):
        nc = NameCache(4)
        nc.put((1, 2), _vv(0), _entries("a", "b"))
        assert [e.name for e in nc.get((1, 2), _vv(0))] == ["a", "b"]
        # A different version vector is a miss AND drops the dead entry.
        assert nc.get((1, 2), _vv(0, 2)) is None
        assert (1, 2) not in nc
        assert nc.stats.stale_drops == 1

    def test_entries_are_copies_both_ways(self):
        # No copies any more: the cache hands out what it was given, and
        # the entries reject the assignments the copies used to absorb.
        nc = NameCache(4)
        original = _entries("a")
        nc.put((1, 2), _vv(0), original)
        with pytest.raises(AttributeError):
            original[0].deleted = True      # caller mutates what it gave
        got = nc.get((1, 2), _vv(0))
        assert got[0].deleted is False
        with pytest.raises(AttributeError):
            got[0].deleted = True           # caller mutates the result
        assert nc.get((1, 2), _vv(0))[0].deleted is False

    def test_lru_eviction(self):
        nc = NameCache(2)
        nc.put((1, 1), _vv(0), _entries("a"))
        nc.put((1, 2), _vv(0), _entries("b"))
        nc.get((1, 1), _vv(0))              # touch: (1, 2) becomes LRU
        nc.put((1, 3), _vv(0), _entries("c"))
        assert (1, 1) in nc and (1, 3) in nc and (1, 2) not in nc
        assert len(nc) == 2

    def test_invalidate_and_clear(self):
        nc = NameCache(4)
        nc.put((1, 2), _vv(0), _entries("a"))
        assert nc.invalidate_file(1, 2) is True
        assert nc.invalidate_file(1, 2) is False
        nc.put((1, 3), _vv(0), _entries("b"))
        nc.clear()
        assert len(nc) == 0
        assert nc.stats.invalidations == 2

    def test_buffer_cache_invalidation_cascades(self, cluster):
        site = cluster.site(1)
        site.name_cache.put((0, 5), _vv(0), _entries("x"))
        site.cache.put((0, 5, 0), b"page")
        site.cache.invalidate_file(0, 5)
        assert (0, 5) not in site.name_cache
        # Single-page invalidation (token revocation) cascades too.
        site.name_cache.put((0, 6), _vv(0), _entries("y"))
        site.cache.invalidate((0, 6, 0))
        assert (0, 6) not in site.name_cache


class TestNegativeEntriesUnit:
    def test_get_negative_requires_exact_version(self):
        nc = NameCache(4)
        nc.put_negative((1, 2), "gone", _vv(0))
        assert nc.peek_negative((1, 2), "gone")
        assert nc.get_negative((1, 2), "gone", _vv(0)) is True
        assert nc.stats.neg_hits == 1
        # The directory moved on: the proof of absence dies.
        assert nc.get_negative((1, 2), "gone", _vv(0, 2)) is False
        assert not nc.peek_negative((1, 2), "gone")
        assert nc.stats.neg_stale_drops == 1

    def test_invalidate_file_drops_negatives_too(self):
        nc = NameCache(4)
        nc.put_negative((1, 2), "a", _vv(0))
        nc.put_negative((1, 2), "b", _vv(0))
        nc.put_negative((1, 3), "c", _vv(0))
        assert nc.invalidate_file(1, 2) is True
        assert not nc.peek_negative((1, 2), "a")
        assert not nc.peek_negative((1, 2), "b")
        assert nc.peek_negative((1, 3), "c")     # other dir untouched
        nc.clear()
        assert not nc.peek_negative((1, 3), "c")

    def test_negative_entries_are_capacity_bounded(self):
        nc = NameCache(2)
        for i in range(5):
            nc.put_negative((1, 2), f"n{i}", _vv(0))
        assert sum(nc.peek_negative((1, 2), f"n{i}")
                   for i in range(5)) == 2

    def test_buffer_cache_cascade_drops_negatives(self, cluster):
        site = cluster.site(1)
        site.name_cache.put_negative((0, 5), "missing", _vv(0))
        site.cache.invalidate_file(0, 5)
        assert not site.name_cache.peek_negative((0, 5), "missing")


@pytest.mark.parametrize("name_cache", [False, True])
class TestRemoteCommitVisibility:
    """A stat/readdir/read at another site never shows pre-commit state."""

    def _cluster(self, name_cache, **kw):
        cost = CostModel().with_overrides(
            name_cache=name_cache,
            batch_pages=4 if name_cache else 1,
            pull_pipeline=2 if name_cache else 1)
        return LocusCluster(cost=cost, **kw)

    def test_readdir_sees_every_remote_commit(self, name_cache):
        cluster = self._cluster(name_cache, n_sites=3, seed=11)
        sh0, sh1 = cluster.shell(0), cluster.shell(1)
        sh0.mkdir("/d")
        cluster.settle()
        for i in range(4):
            assert sh1.readdir("/d") == sorted(f"f{j}" for j in range(i))
            sh0.write_file(f"/d/f{i}", b"x")   # remote commit, no settle
        assert sh1.readdir("/d") == ["f0", "f1", "f2", "f3"]

    def test_diskless_site_sees_rename_immediately(self, name_cache):
        cluster = self._cluster(name_cache, n_sites=2, seed=11,
                                root_pack_sites=[0])
        sh0, sh1 = cluster.shell(0), cluster.shell(1)
        sh0.mkdir("/d")
        sh0.write_file("/d/old", b"content")
        cluster.settle()
        assert sh1.readdir("/d") == ["old"]      # warm the cache at site 1
        assert sh1.read_file("/d/old") == b"content"
        sh0.rename("/d/old", "/d/new")           # no settle: commit only
        assert sh1.readdir("/d") == ["new"]
        assert sh1.read_file("/d/new") == b"content"
        assert sh1.stat("/d/new")["ftype"] is FileType.REGULAR

    def test_read_never_returns_precommit_pages(self, name_cache):
        cluster = self._cluster(name_cache, n_sites=2, seed=11,
                                root_pack_sites=[0])
        sh0, sh1 = cluster.shell(0), cluster.shell(1)
        sh0.write_file("/f", b"A" * 3000)
        cluster.settle()
        assert sh1.read_file("/f") == b"A" * 3000   # warm pages at site 1
        sh0.write_file("/f", b"B" * 5000)
        assert sh1.read_file("/f") == b"B" * 5000

    def test_heal_and_merge_visibility(self, name_cache):
        cluster = self._cluster(name_cache, n_sites=3, seed=11)
        sh0, sh1 = cluster.shell(0), cluster.shell(1)
        sh0.setcopies(3)
        sh1.setcopies(3)
        sh0.mkdir("/d")
        sh0.write_file("/d/pre", b"1")
        cluster.settle()
        assert sh0.readdir("/d") == ["pre"]      # warm caches at site 0
        cluster.partition({0}, {1, 2})
        sh1.write_file("/d/during", b"2")        # commit in the other part
        cluster.settle()
        cluster.heal()
        assert sh0.readdir("/d") == ["during", "pre"]
        assert sh0.read_file("/d/during") == b"2"


class TestNameCacheEffect:
    """The cache must actually save traffic on the repeated-walk hot path
    (the ablation benchmark T14 quantifies this; here is the cheap floor)."""

    def _walk_messages(self, name_cache):
        cluster = LocusCluster(
            n_sites=2, seed=13, root_pack_sites=[0],
            cost=CostModel().with_overrides(name_cache=name_cache))
        sh0, sh1 = cluster.shell(0), cluster.shell(1)
        sh0.mkdir("/a")
        sh0.mkdir("/a/b")
        sh0.write_file("/a/b/leaf", b"payload")
        cluster.settle()
        sh1.stat("/a/b/leaf")                    # first walk fills the cache
        win = StatsWindow(cluster.stats)
        for __ in range(10):
            sh1.stat("/a/b/leaf")
        snap = win.close()
        return snap.total_messages, cluster

    def test_repeat_walks_send_fewer_messages(self):
        cold, __ = self._walk_messages(name_cache=False)
        warm, cluster = self._walk_messages(name_cache=True)
        assert warm * 2 <= cold, (warm, cold)
        us = cluster.site(1)
        assert us.name_cache.stats.hits >= 10
        assert us.name_cache.stats.hit_rate > 0.5

    def _miss_messages(self, name_cache):
        """Message cost of 10 repeated lookups of a name that is absent
        from a remote directory (the failing PATH-search hot path)."""
        cluster = LocusCluster(
            n_sites=2, seed=13, root_pack_sites=[0],
            cost=CostModel().with_overrides(name_cache=name_cache))
        sh0, sh1 = cluster.shell(0), cluster.shell(1)
        sh0.mkdir("/bin")
        sh0.write_file("/bin/real", b"x")
        cluster.settle()
        with pytest.raises(Exception):
            sh1.stat("/bin/nope")                # first miss fills
        win = StatsWindow(cluster.stats)
        for __ in range(10):
            with pytest.raises(Exception):
                sh1.stat("/bin/nope")
        snap = win.close()
        return snap.total_messages, cluster

    def test_repeated_failing_lookups_send_fewer_messages(self):
        """The PATH-search regression: searching a command through
        directories that do not hold it is all failing lookups; cached
        ENOENT answers must cut the repeat traffic."""
        cold, __ = self._miss_messages(name_cache=False)
        warm, cluster = self._miss_messages(name_cache=True)
        assert warm * 2 <= cold, (warm, cold)
        us = cluster.site(1)
        assert us.name_cache.stats.neg_fills >= 1
        assert us.name_cache.stats.neg_hits >= 10

    def test_create_after_cached_enoent_is_visible(self):
        """A cached ENOENT must die with the commit that creates the name
        (same version-vector authority as positive entries)."""
        cluster = LocusCluster(
            n_sites=2, seed=13, root_pack_sites=[0],
            cost=CostModel().with_overrides(name_cache=True))
        sh0, sh1 = cluster.shell(0), cluster.shell(1)
        sh0.mkdir("/d")
        cluster.settle()
        for __ in range(3):
            with pytest.raises(Exception):
                sh1.stat("/d/late")              # caches the absence
        sh0.write_file("/d/late", b"here")       # remote commit, no settle
        assert sh1.read_file("/d/late") == b"here"
        assert sh1.stat("/d/late")["size"] == 4

    def test_unlink_then_lookup_then_recreate(self):
        """Negative entries filled after an unlink must not outlive the
        recreation of the same name."""
        cluster = LocusCluster(
            n_sites=2, seed=13, root_pack_sites=[0],
            cost=CostModel().with_overrides(name_cache=True))
        sh0, sh1 = cluster.shell(0), cluster.shell(1)
        sh0.write_file("/cycle", b"v1")
        cluster.settle()
        assert sh1.read_file("/cycle") == b"v1"
        sh0.unlink("/cycle")
        with pytest.raises(Exception):
            sh1.stat("/cycle")                   # sees (and caches) ENOENT
        sh0.write_file("/cycle", b"v2")
        assert sh1.read_file("/cycle") == b"v2"

    def test_same_seed_same_trace_under_every_flag_combo(self):
        for flags in ({}, {"name_cache": True},
                      {"batch_pages": 4, "pull_pipeline": 2},
                      {"name_cache": True, "batch_pages": 4,
                       "pull_pipeline": 2}):
            traces = []
            for __ in range(2):
                cluster = LocusCluster(
                    n_sites=3, seed=17,
                    cost=CostModel().with_overrides(**flags))
                sh0, sh2 = cluster.shell(0), cluster.shell(2)
                sh0.setcopies(2)
                sh0.mkdir("/d")
                sh0.write_file("/d/f", b"Z" * 9000)
                cluster.settle()
                sh2.stat("/d/f")
                assert sh2.read_file("/d/f") == b"Z" * 9000
                cluster.settle()
                traces.append((cluster.sim.now,
                               dict(cluster.stats.sent)))
            assert traces[0] == traces[1], flags
