"""Unit tests for packs, inodes, the buffer cache, and shadow-page commit."""

import pytest

from repro.errors import EINVAL, ENOSPC
from repro.storage import (BufferCache, DiskInode, FileType, Pack, ShadowFile,
                           VersionVector)
from repro.storage.pack import INO_SHIFT, ROOT_INO, pack_index_of


class TestPackBlocks:
    def test_alloc_write_read_roundtrip(self):
        pack = Pack(gfs=0, site_id=0, pack_index=0)
        b = pack.alloc_block()
        pack.write_block(b, b"hello")
        assert pack.read_block(b) == b"hello"

    def test_free_block_is_reused(self):
        pack = Pack(0, 0, 0)
        b1 = pack.alloc_block()
        pack.free_block(b1)
        b2 = pack.alloc_block()
        assert b2 == b1

    def test_exhaustion_raises_enospc(self):
        pack = Pack(0, 0, 0, n_blocks=2)
        pack.alloc_block()
        pack.alloc_block()
        with pytest.raises(ENOSPC):
            pack.alloc_block()

    def test_blocks_in_use_accounting(self):
        pack = Pack(0, 0, 0)
        blocks = [pack.alloc_block() for _ in range(5)]
        pack.free_block(blocks[0])
        assert pack.blocks_in_use == 4


class TestInodeAllocation:
    def test_pack_zero_starts_at_root_ino(self):
        pack = Pack(0, 0, 0)
        inode = pack.alloc_inode()
        assert inode.ino == ROOT_INO

    def test_pools_are_disjoint_across_packs(self):
        """Section 2.3.7: each physical container allocates from its own
        collection of inode numbers, so partitioned creates never collide."""
        packs = [Pack(0, s, s) for s in range(4)]
        inos = set()
        for pack in packs:
            for _ in range(100):
                ino = pack.alloc_inode().ino
                assert ino not in inos
                inos.add(ino)
                assert pack_index_of(ino) == pack.pack_index

    def test_pack_index_recoverable_from_ino(self):
        pack = Pack(0, 7, 3)
        ino = pack.alloc_inode().ino
        assert pack_index_of(ino) == 3
        assert ino >> INO_SHIFT == 3

    def test_release_frees_blocks_and_next_alloc_is_fresh(self):
        pack = Pack(0, 0, 2)
        inode = pack.alloc_inode()
        inode.pages = [pack.alloc_block(), pack.alloc_block()]
        pack.release_inode(inode.ino)
        assert pack.get_inode(inode.ino) is None
        assert pack.blocks_in_use == 0
        assert pack.alloc_inode().ino == inode.ino + 1

    def test_install_inode_from_remote(self):
        src = Pack(0, 0, 0)
        inode = src.alloc_inode(ftype=FileType.DIRECTORY, owner="alice")
        dst = Pack(0, 1, 1)
        installed = dst.install_inode(inode.attrs(), has_data=False)
        assert installed.ino == inode.ino
        assert installed.ftype is FileType.DIRECTORY
        assert installed.owner == "alice"
        assert not installed.has_data

    def test_stores_requires_data_and_liveness(self):
        pack = Pack(0, 0, 0)
        inode = pack.alloc_inode()
        assert pack.stores(inode.ino)
        inode.deleted = True
        assert not pack.stores(inode.ino)

    def test_drop_data_frees_pages_keeps_entry(self):
        pack = Pack(0, 0, 0)
        inode = pack.alloc_inode()
        b = pack.alloc_block()
        pack.write_block(b, b"data")
        inode.pages = [b]
        inode.size = 4
        pack.drop_data(inode.ino)
        assert pack.get_inode(inode.ino) is not None
        assert inode.pages == []
        assert pack.blocks_in_use == 0


class TestBufferCache:
    def test_hit_and_miss_counting(self):
        cache = BufferCache(capacity_pages=4)
        cache.put((0, 1, 0), b"page")
        assert cache.get((0, 1, 0)) == b"page"
        assert cache.get((0, 1, 1)) is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = BufferCache(capacity_pages=2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        cache.get("a")           # 'a' is now most-recently used
        cache.put("c", b"3")     # evicts 'b'
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_invalidate_single_page(self):
        cache = BufferCache(4)
        cache.put((0, 5, 0), b"x")
        assert cache.invalidate((0, 5, 0))
        assert not cache.invalidate((0, 5, 0))
        assert cache.stats.invalidations == 1

    def test_invalidate_whole_file(self):
        cache = BufferCache(8)
        for page in range(3):
            cache.put((0, 5, page), b"x")
        cache.put((0, 6, 0), b"y")
        assert cache.invalidate_file(0, 5) == 3
        assert (0, 6, 0) in cache

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferCache(0)


class TestShadowCommit:
    @pytest.fixture
    def pack(self):
        return Pack(gfs=0, site_id=3, pack_index=0)

    @pytest.fixture
    def ino(self, pack):
        inode = pack.alloc_inode()
        return inode.ino

    def test_uncommitted_write_invisible_on_disk(self, pack, ino):
        sf = ShadowFile(pack, ino)
        sf.write_page(0, b"new data")
        sf.set_size(8)
        disk = pack.get_inode(ino)
        assert disk.pages == [] and disk.size == 0

    def test_commit_makes_changes_permanent_and_bumps_version(self, pack, ino):
        sf = ShadowFile(pack, ino)
        sf.write_page(0, b"persisted")
        sf.set_size(9)
        before = pack.get_inode(ino).version
        sf.commit()
        disk = pack.get_inode(ino)
        assert pack.read_block(disk.pages[0]) == b"persisted"
        assert disk.size == 9
        assert disk.version.get(pack.site_id) == before.get(pack.site_id) + 1

    def test_abort_leaves_original_file(self, pack, ino):
        sf = ShadowFile(pack, ino)
        sf.write_page(0, b"original")
        sf.commit()
        sf2 = ShadowFile(pack, ino)
        sf2.write_page(0, b"doomed")
        sf2.truncate()
        sf2.abort()
        disk = pack.get_inode(ino)
        assert pack.read_block(disk.pages[0]) == b"original"
        assert disk.size == 8 or disk.size == 0  # size set by caller path

    def test_old_page_intact_until_commit(self, pack, ino):
        sf = ShadowFile(pack, ino)
        sf.write_page(0, b"v1")
        sf.commit()
        old_block = pack.get_inode(ino).pages[0]
        sf2 = ShadowFile(pack, ino)
        sf2.write_page(0, b"v2")
        # Both versions exist on the medium until the commit point.
        assert pack.read_block(old_block) == b"v1"
        sf2.commit()
        # Old block is freed after commit.
        assert old_block in pack._free_blocks or pack.read_block(old_block) == b""

    def test_shadow_page_reused_on_repeated_writes(self, pack, ino):
        sf = ShadowFile(pack, ino)
        b1 = sf.write_page(0, b"first")
        b2 = sf.write_page(0, b"second")
        assert b1 == b2  # "reused in place for subsequent changes"

    def test_commit_with_explicit_version(self, pack, ino):
        sf = ShadowFile(pack, ino)
        sf.write_page(0, b"x")
        target = VersionVector({9: 4})
        sf.commit(new_version=target)
        assert pack.get_inode(ino).version == target

    def test_abort_then_no_leak(self, pack, ino):
        sf = ShadowFile(pack, ino)
        sf.write_page(0, b"a")
        sf.write_page(1, b"b")
        sf.abort()
        assert pack.blocks_in_use == 0

    def test_truncate_then_commit_frees_blocks(self, pack, ino):
        sf = ShadowFile(pack, ino)
        sf.write_page(0, b"a")
        sf.write_page(1, b"b")
        sf.commit()
        assert pack.blocks_in_use == 2
        sf2 = ShadowFile(pack, ino)
        sf2.truncate()
        sf2.commit()
        assert pack.blocks_in_use == 0
        assert pack.get_inode(ino).pages == []

    def test_mark_deleted_commits_tombstone(self, pack, ino):
        sf = ShadowFile(pack, ino)
        sf.mark_deleted()
        sf.commit()
        assert pack.get_inode(ino).deleted

    def test_set_attrs_unknown_field_rejected(self, pack, ino):
        sf = ShadowFile(pack, ino)
        with pytest.raises(EINVAL):
            sf.set_attrs(nonsense=1)

    def test_missing_inode_rejected(self, pack):
        with pytest.raises(EINVAL):
            ShadowFile(pack, 999999)

    def test_write_negative_page_rejected(self, pack, ino):
        sf = ShadowFile(pack, ino)
        with pytest.raises(EINVAL):
            sf.write_page(-1, b"x")
