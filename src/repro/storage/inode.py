"""Disk inodes and file types.

A file's globally unique low-level name is ``<logical filegroup number,
inode number>`` (paper section 2.2.2).  The inode is treated as part of the
file from the recovery point of view (section 4.4), so it carries the
version vector.  All files including directories have a type used by
recovery software to take appropriate action (section 4.3); the paper's
current types are directories, mailboxes, database files and untyped files.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.storage.version_vector import VersionVector


class FileType(enum.Enum):
    REGULAR = "regular"            # untyped user data
    DIRECTORY = "directory"
    MAILBOX = "mailbox"
    DATABASE = "database"
    HIDDEN_DIR = "hidden_dir"      # context-sensitive name (section 2.4.1)
    PIPE = "pipe"                  # named pipe (section 2.4.2)
    DEVICE = "device"              # remote-transparent device node

    def __wire_size__(self) -> int:
        return 16   # one small fixed-size object, like ``Mode``


class InodeAttrs(dict):
    """The wire representation of inode attributes: a plain dict to every
    reader, plus the size of its own serialized form so the wire-time
    model does not walk eleven fields per inode per message.  Built
    complete by :meth:`DiskInode.attrs` and never patched — a receiver
    that wants to change a field copies it into a ``dict`` of its own."""

    __slots__ = ()

    def __wire_size__(self) -> int:
        # Key lengths (67) plus the fixed-size values — six 8-byte numbers,
        # a 16-byte file type, two 1-byte flags (58) — plus the rest.
        return (125 + len(self["owner"]) + self["version"].__wire_size__()
                + 8 * len(self["storage_sites"]))


@dataclass
class DiskInode:
    """Persistent per-file metadata as stored in one pack.

    Every pack of a filegroup holds an entry for every file it knows about;
    ``has_data`` says whether this pack also stores the file's pages.
    """

    ino: int
    ftype: FileType = FileType.REGULAR
    size: int = 0
    owner: str = "root"
    perms: int = 0o644
    nlink: int = 1
    has_data: bool = True
    pages: List[Optional[int]] = field(default_factory=list)
    version: VersionVector = field(default_factory=VersionVector)
    deleted: bool = False
    # Sites whose packs store this file's data (the CSS "has a list of packs
    # which store the file"); replicated with the inode.
    storage_sites: List[int] = field(default_factory=list)
    conflict: bool = False
    mtime: float = 0.0

    def attrs(self) -> InodeAttrs:
        """The wire representation of inode attributes (no page pointers —
        'The US function never deals with actual disk blocks')."""
        return InodeAttrs({
            "ino": self.ino,
            "ftype": self.ftype,
            "size": self.size,
            "owner": self.owner,
            "perms": self.perms,
            "nlink": self.nlink,
            "version": self.version,
            "deleted": self.deleted,
            "storage_sites": list(self.storage_sites),
            "conflict": self.conflict,
            "mtime": self.mtime,
        })

    def apply_attrs(self, attrs: dict) -> None:
        """Install attributes received from another site (propagation)."""
        self.ftype = attrs["ftype"]
        self.size = attrs["size"]
        self.owner = attrs["owner"]
        self.perms = attrs["perms"]
        self.nlink = attrs["nlink"]
        self.version = attrs["version"]
        self.deleted = attrs["deleted"]
        self.storage_sites = list(attrs["storage_sites"])
        self.conflict = attrs["conflict"]
        self.mtime = attrs["mtime"]

    def clone(self) -> "DiskInode":
        """Deep-enough copy used for incore snapshots."""
        return DiskInode(
            ino=self.ino,
            ftype=self.ftype,
            size=self.size,
            owner=self.owner,
            perms=self.perms,
            nlink=self.nlink,
            has_data=self.has_data,
            pages=list(self.pages),
            version=self.version,
            deleted=self.deleted,
            storage_sites=list(self.storage_sites),
            conflict=self.conflict,
            mtime=self.mtime,
        )

    def n_pages(self) -> int:
        return len(self.pages)
