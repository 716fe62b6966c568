"""Shadow-page commit mechanism (paper section 2.3.6).

"LOCUS uses a shadow page mechanism, partly because Unix file modifications
tend to overwrite entire files, and partly because high performance
shadowing is easier to implement."

The whole mechanism lives at the storage site and is transparent to the
using site.  A modification to an existing page allocates a new physical
page; the disk inode keeps the old page numbers while the incore inode is
updated with the new ones.  "The atomic commit operation consists merely of
moving the incore inode information to the disk inode."  Abort discards the
incore information; the old inode and pages are still on disk.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import EINVAL, FsError
from repro.storage.inode import DiskInode
from repro.storage.pack import Pack
from repro.storage.version_vector import VersionVector


class ShadowFile:
    """Incore inode plus shadow-page bookkeeping for one open-for-modify.

    If a given logical page is modified multiple times, the shadow page is
    reused in place for subsequent changes (section 2.3.6).
    """

    def __init__(self, pack: Pack, ino: int):
        disk = pack.get_inode(ino)
        if disk is None:
            raise EINVAL(f"no inode {ino} in pack gfs={pack.gfs}")
        self.pack = pack
        self.ino = ino
        self.incore: DiskInode = disk.clone()
        self._base = self._snapshot(disk)
        self._shadowed: Dict[int, Optional[int]] = {}  # page idx -> old block
        self._freed_old: List[int] = []                # truncated-away blocks
        self.dirty = False

    @staticmethod
    def _snapshot(disk: Optional[DiskInode]) -> Optional[tuple]:
        return None if disk is None else (disk.version, tuple(disk.pages))

    def base_moved(self) -> bool:
        """Has the disk inode moved off the one this shadow cloned (a
        commit, a dropped copy, a released inode)?  Committing over a moved
        base would free the blocks it already freed, and install pages
        the mover already gave back."""
        return self._snapshot(self.pack.get_inode(self.ino)) != self._base

    # -- reads -------------------------------------------------------------

    def page_block(self, page_no: int) -> Optional[int]:
        if 0 <= page_no < len(self.incore.pages):
            return self.incore.pages[page_no]
        return None

    def read_page(self, page_no: int) -> bytes:
        blockno = self.page_block(page_no)
        if blockno is None:
            return b""
        return self.pack.read_block(blockno)

    # -- modifications (staged; invisible until commit) ----------------------

    def write_page(self, page_no: int, data: bytes) -> int:
        """Write one logical page to a shadow block; returns the block no.

        Whether the change covers the whole page or not is the caller's
        concern (the partial-page case reads the old page first via the
        normal read protocol); by the time data reaches the shadow layer it
        is a full page image.
        """
        if page_no < 0:
            raise EINVAL(f"negative page number {page_no}")
        prior_len = len(self.incore.pages)
        while len(self.incore.pages) <= page_no:
            self.incore.pages.append(None)
        first = page_no not in self._shadowed
        if first:
            # First modification of this page: allocate a fresh block and
            # remember the old one so commit can free it / abort keep it.
            self._shadowed[page_no] = self.incore.pages[page_no]
            self.incore.pages[page_no] = self.pack.alloc_block()
        blockno = self.incore.pages[page_no]
        assert blockno is not None
        try:
            self.pack.write_block(blockno, data)
        except FsError:
            if first:
                # Restore the mapping: a failed physical write must never
                # leave an unwritten shadow block where data should be.
                self.pack.free_block(blockno)
                self.incore.pages[page_no] = self._shadowed.pop(page_no)
                del self.incore.pages[prior_len:]
            raise
        self.dirty = True
        return blockno

    def set_size(self, size: int) -> None:
        self.incore.size = size
        self.dirty = True

    def truncate(self) -> None:
        """Drop every page (staged): Unix-style whole-file overwrite."""
        for page_no, blockno in enumerate(self.incore.pages):
            if page_no in self._shadowed:
                # Already shadowed: the new block dies now, old at commit.
                self.pack.free_block(blockno)
                old = self._shadowed.pop(page_no)
                if old is not None:
                    self._freed_old.append(old)
            elif blockno is not None:
                self._freed_old.append(blockno)
        self.incore.pages = []
        self.incore.size = 0
        self.dirty = True

    def set_attrs(self, **attrs) -> None:
        """Stage inode-only changes (ownership, permissions, type...)."""
        for name, value in attrs.items():
            if not hasattr(self.incore, name):
                raise EINVAL(f"unknown inode attribute {name!r}")
            setattr(self.incore, name, value)
        self.dirty = True

    def mark_deleted(self) -> None:
        self.incore.deleted = True
        self.dirty = True

    # -- commit / abort ------------------------------------------------------

    def commit(self, new_version: Optional[VersionVector] = None,
               mtime: float = 0.0) -> VersionVector:
        """Atomically move the incore inode to the disk inode.

        ``new_version`` overrides the default bump (used by propagation,
        which installs the originating site's vector verbatim, and by
        reconciliation, which installs the merged vector).
        """
        if new_version is None:
            new_version = self.incore.version.bump(self.pack.site_id)
        self.incore.version = new_version
        self.incore.mtime = mtime
        # The atomic step: one pointer swap in the real system.
        self.pack.inodes[self.ino] = self.incore.clone()
        self._base = self._snapshot(self.incore)
        # Old pages are now unreachable; free them.
        for old_block in self._shadowed.values():
            if old_block is not None:
                self.pack.free_block(old_block)
        for old_block in self._freed_old:
            self.pack.free_block(old_block)
        self._shadowed.clear()
        self._freed_old.clear()
        self.dirty = False
        return new_version

    def abort(self) -> None:
        """Discard staged changes: free shadow blocks, re-snapshot disk."""
        for page_no, old_block in self._shadowed.items():
            new_block = self.incore.pages[page_no]
            if new_block is not None:
                self.pack.free_block(new_block)
        self._shadowed.clear()
        self._freed_old.clear()
        disk = self.pack.get_inode(self.ino)
        if disk is not None:
            self.incore = disk.clone()
            self._base = self._snapshot(disk)
        self.dirty = False

    @property
    def shadowed_pages(self) -> List[int]:
        return sorted(self._shadowed)
