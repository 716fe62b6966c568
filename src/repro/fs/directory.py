"""Directory content: entries, tombstones, and the on-disk codec.

"A directory can be viewed as a set of records, each one containing the
character string comprising one element in the path name of a file.
Associated with that string is an index that points at a descriptor (inode)"
(paper section 4.4).  The only operations are *insert* and *remove*; each is
atomic, which is why unsynchronized directory interrogation never sees an
inconsistent picture (section 2.3.4).

Removals leave tombstones recording the removed file's version vector at
deletion time, so the partition-merge rules of section 4.4 can decide
whether "there has been a modification of the data since the delete".
Entries also carry the target's file type so pathname searching can detect
hidden directories without an extra inode fetch (the d_type convention).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import EEXIST, EINVAL, ENAMETOOLONG, ENOENT
from repro.storage.inode import FileType
from repro.storage.version_vector import VersionVector

MAX_NAME = 255


@dataclass
class DirEntry:
    name: str
    ino: int
    ftype: FileType = FileType.REGULAR
    deleted: bool = False
    # Version vector of the target file when the entry was removed; used by
    # the merge rules ("unless there has been a modification since the
    # delete").
    dvv: Optional[VersionVector] = None

    def to_record(self) -> dict:
        rec = {
            "n": self.name,
            "i": self.ino,
            "t": self.ftype.value,
        }
        if self.deleted:
            rec["d"] = 1
            rec["v"] = (self.dvv or VersionVector()).to_dict()
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "DirEntry":
        deleted = bool(rec.get("d"))
        dvv = None
        if deleted:
            dvv = VersionVector({int(k): v
                                 for k, v in rec.get("v", {}).items()})
        return cls(name=rec["n"], ino=rec["i"],
                   ftype=FileType(rec["t"]), deleted=deleted, dvv=dvv)


def check_name(name: str) -> None:
    if not name or "/" in name or name in (".", ".."):
        raise EINVAL(f"bad file name {name!r}")
    if len(name) > MAX_NAME:
        raise ENAMETOOLONG(name[:32] + "...")


def encode_entries(entries: List[DirEntry]) -> bytes:
    """Serialize directory content (sorted for canonical layout)."""
    records = [e.to_record() for e in
               sorted(entries, key=lambda e: (e.name, e.ino))]
    return json.dumps(records, separators=(",", ":")).encode()


def decode_entries(data: bytes) -> List[DirEntry]:
    if not data:
        return []
    text = data.rstrip(b"\x00").decode()
    if not text:
        return []
    return [DirEntry.from_record(rec) for rec in json.loads(text)]


class DirView:
    """In-memory view of one directory's entries with the atomic ops."""

    def __init__(self, entries: Optional[List[DirEntry]] = None):
        self.entries: List[DirEntry] = list(entries or [])

    def _find(self, name: str) -> Optional[DirEntry]:
        """The record for ``name``, preferring the live entry: a name may
        carry tombstones of earlier files alongside its current binding."""
        found = None
        for entry in self.entries:
            if entry.name == name:
                if not entry.deleted:
                    return entry
                found = entry
        return found

    def lookup(self, name: str) -> Optional[DirEntry]:
        """Live entry by name; tombstones are invisible to lookups."""
        entry = self._find(name)
        if entry is not None and not entry.deleted:
            return entry
        return None

    def insert(self, name: str, ino: int, ftype: FileType) -> DirEntry:
        check_name(name)
        existing = self._find(name)
        if existing is not None and not existing.deleted:
            raise EEXIST(name)
        # Resurrecting the *same* file replaces its tombstone; a tombstone
        # of a *different* file must survive the insert — it is the only
        # record telling a partition merge that the old file's binding was
        # removed, not concurrently created (rules (b)/(d), section 4.4).
        for tomb in [e for e in self.entries
                     if e.name == name and e.ino == ino]:
            self.entries.remove(tomb)
        entry = DirEntry(name=name, ino=ino, ftype=ftype)
        self.entries.append(entry)
        return entry

    def remove(self, name: str, target_vv: VersionVector) -> DirEntry:
        entry = self.lookup(name)
        if entry is None:
            raise ENOENT(name)
        entry.deleted = True
        entry.dvv = target_vv
        return entry

    def live_entries(self) -> List[DirEntry]:
        return [e for e in self.entries if not e.deleted]

    def names(self) -> List[str]:
        return sorted(e.name for e in self.live_entries()
                      if e.name not in (".", ".."))

    def is_empty(self) -> bool:
        return not self.names()
