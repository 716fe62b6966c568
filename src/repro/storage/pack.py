"""Packs: physical containers of a logical filegroup.

Inode allocation: "to facilitate inode allocation and allow operation when
not all sites are accessible, the entire inode space of a filegroup is
partitioned so that each physical container for the filegroup has a
collection of inode numbers that it can allocate" (paper section 2.3.7).
Pack ``k`` owns the half-open range ``[k << INO_SHIFT, (k+1) << INO_SHIFT)``
and hands each number out once: a deleted inode's number is never
reallocated, so a version vector never restarts over different bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import EIO, ENOSPC
from repro.storage.inode import DiskInode, FileType

# 2**20 inode numbers per pack: effectively inexhaustible for experiments
# while keeping the owning pack recoverable as ``ino >> INO_SHIFT``.
INO_SHIFT = 20

ROOT_INO = 1  # the root directory of every filegroup lives at inode 1


def pack_index_of(ino: int) -> int:
    """The pack index whose pool the inode number was allocated from."""
    return ino >> INO_SHIFT


class Pack:
    """One physical container: a block store plus an inode table."""

    def __init__(self, gfs: int, site_id: int, pack_index: int,
                 n_blocks: int = 1 << 16):
        self.gfs = gfs
        self.site_id = site_id
        self.pack_index = pack_index
        self.n_blocks = n_blocks
        self.blocks: Dict[int, bytes] = {}
        self._free_blocks: List[int] = []
        self._next_block = 0
        self.inodes: Dict[int, DiskInode] = {}
        self._next_ino = (pack_index << INO_SHIFT)
        if pack_index == 0:
            self._next_ino = ROOT_INO  # reserve 0, start pool at the root ino
        # Injected disk faults (repro.faults): the next N block writes fail
        # with EIO instead of taking effect.
        self.write_faults = 0
        # Exactly-once bookkeeping.  The idempotency ledger lives on the
        # pack because packs model the disk: a commit's memoized reply must
        # survive an SS crash exactly as the committed blocks do, so a
        # retry arriving after restart replays instead of re-applying.
        # Created lazily by the fs manager (IdempotencyLedger is an fs
        # class; storage does not import fs).
        self.ledger = None
        # Audit shadow for the invariant checker: (client, seq) -> number
        # of times a stamped mutating op actually executed against this
        # pack.  Any count above one is an exactly-once violation.
        self.applied_ops: Dict[tuple, int] = {}

    # -- blocks ------------------------------------------------------------

    def alloc_block(self) -> int:
        if self._free_blocks:
            return self._free_blocks.pop()
        if self._next_block >= self.n_blocks:
            raise ENOSPC(f"pack gfs={self.gfs} site={self.site_id} is full")
        blockno = self._next_block
        self._next_block += 1
        return blockno

    def free_block(self, blockno: Optional[int]) -> None:
        if blockno is None:
            return
        self.blocks.pop(blockno, None)
        self._free_blocks.append(blockno)

    def read_block(self, blockno: int) -> bytes:
        return self.blocks.get(blockno, b"")

    def write_block(self, blockno: int, data: bytes) -> None:
        if self.write_faults > 0:
            self.write_faults -= 1
            raise EIO(f"disk write failed: gfs={self.gfs} "
                      f"site={self.site_id} block={blockno}")
        self.blocks[blockno] = data

    @property
    def free_list(self) -> List[int]:
        """The freed block numbers awaiting reuse (fsck reads it)."""
        return self._free_blocks

    @property
    def blocks_in_use(self) -> int:
        return self._next_block - len(self._free_blocks)

    # -- inodes --------------------------------------------------------------

    def alloc_inode(self, ftype: FileType = FileType.REGULAR,
                    owner: str = "root", perms: int = 0o644,
                    storage_sites: Optional[List[int]] = None) -> DiskInode:
        """Allocate the next never-used inode number from this pack's pool
        (section 2.3.7 permits reallocation; see the module docstring)."""
        ino = self._next_ino
        self._next_ino += 1
        if pack_index_of(ino) != self.pack_index:
            raise ENOSPC(f"inode pool of pack {self.pack_index} exhausted")
        inode = DiskInode(ino=ino, ftype=ftype, owner=owner, perms=perms,
                          storage_sites=list(storage_sites or [self.site_id]))
        self.inodes[ino] = inode
        return inode

    def install_inode(self, attrs: dict, has_data: bool) -> DiskInode:
        """Install (or refresh) an inode entry learned from another pack."""
        ino = attrs["ino"]
        inode = self.inodes.get(ino)
        if inode is None:
            inode = DiskInode(ino=ino, has_data=has_data)
            self.inodes[ino] = inode
        inode.apply_attrs(attrs)
        inode.has_data = has_data or inode.has_data
        return inode

    def get_inode(self, ino: int) -> Optional[DiskInode]:
        return self.inodes.get(ino)

    def stores(self, ino: int) -> bool:
        """Does this pack store the file's data (not just its inode)?"""
        inode = self.inodes.get(ino)
        return inode is not None and inode.has_data and not inode.deleted

    def release_inode(self, ino: int) -> None:
        """Forget a fully-deleted inode and free its blocks.  The number
        itself is never handed out again."""
        inode = self.inodes.pop(ino, None)
        if inode is not None:
            for blockno in inode.pages:
                self.free_block(blockno)

    def drop_data(self, ino: int) -> None:
        """Free the data pages, keeping the inode entry (remote delete seen)."""
        inode = self.inodes.get(ino)
        if inode is None:
            return
        for blockno in inode.pages:
            self.free_block(blockno)
        inode.pages = []
        inode.size = 0

    def inventory(self) -> Dict[int, dict]:
        """Snapshot for recovery: ino -> (attrs, has_data)."""
        return {
            ino: {"attrs": inode.attrs(), "has_data": inode.has_data}
            for ino, inode in self.inodes.items()
        }

    def __repr__(self) -> str:
        return (f"<Pack gfs={self.gfs} site={self.site_id} "
                f"idx={self.pack_index} inodes={len(self.inodes)} "
                f"blocks={self.blocks_in_use}>")
