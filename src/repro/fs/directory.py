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
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, List, Mapping, Optional, Tuple

from repro.errors import EEXIST, EINVAL, ENAMETOOLONG, ENOENT
from repro.storage.inode import FileType
from repro.storage.version_vector import VersionVector

MAX_NAME = 255

# Directory images whose decoded form is kept (least recently used out).
# The read-mostly benchmark tree has 26 distinct images and a fuzz plan a
# few dozen; a write-heavy run mints a new image per entry change and
# never asks for most of them again, so a larger memo only holds garbage
# (4,096 images cost +5.9 MB of peak RSS for no extra hits; 128 cost ~1).
SNAPSHOT_MEMO_IMAGES = 128


@dataclass(frozen=True, slots=True)
class DirEntry:
    """One directory record.  Immutable: decoded entries are shared by
    every reader of the same committed image (see :class:`DirSnapshot`),
    so a change is a new entry, never an assignment."""

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


@dataclass(frozen=True, slots=True)
class DirSnapshot:
    """The decoded form of one committed directory image, for readers.

    Immutable all the way down, so one instance serves every site, cluster
    and cache in the process that reads the same bytes.  ``lookup``,
    ``names`` and ``is_empty`` answer exactly as a :class:`DirView` of the
    same entries would.
    """

    entries: Tuple[DirEntry, ...]          # every record, in image order
    live: Mapping[str, DirEntry]           # name -> its live entry
    live_names: Tuple[str, ...]            # sorted, '.' and '..' left out

    @classmethod
    def of(cls, entries) -> "DirSnapshot":
        entries = tuple(entries)
        live = {}
        for entry in entries:
            if not entry.deleted:
                live.setdefault(entry.name, entry)
        names = sorted(e.name for e in entries
                       if not e.deleted and e.name not in (".", ".."))
        return cls(entries, MappingProxyType(live), tuple(names))

    def lookup(self, name: str) -> Optional[DirEntry]:
        """Live entry by name; tombstones are invisible to lookups."""
        return self.live.get(name)

    def names(self) -> List[str]:
        return list(self.live_names)

    def is_empty(self) -> bool:
        return not self.live_names

    def __iter__(self) -> Iterator[DirEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def decode_snapshot(data: bytes) -> DirSnapshot:
    """Decode one directory image (NUL padding ignored), once per process.

    The memo is keyed on the image bytes themselves, not on ``(gfile,
    version vector)``: equal bytes decode equally whoever committed them,
    so it needs no invalidation and cannot be stale, whereas a reaped and
    reused inode number restarts at an equal vector over different bytes.
    A torn image raises ``ValueError`` and is not remembered.
    """
    return _decode_image(data.rstrip(b"\x00"))


@lru_cache(maxsize=SNAPSHOT_MEMO_IMAGES)
def _decode_image(image: bytes) -> DirSnapshot:
    text = image.decode()
    if not text:
        return DirSnapshot.of(())
    return DirSnapshot.of(DirEntry.from_record(rec)
                          for rec in json.loads(text))


def decode_entries(data: bytes) -> List[DirEntry]:
    """A private entry list of one image, for the callers that go on to
    change it (:class:`DirView`, the directory merge)."""
    return list(decode_snapshot(data).entries)


class DirView:
    """Private, mutable view of one directory's entries with the atomic
    ops; the entries themselves are immutable and may be shared."""

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
        """Replace the live entry for ``name`` by its tombstone."""
        for i, entry in enumerate(self.entries):
            if entry.name == name and not entry.deleted:
                tomb = replace(entry, deleted=True, dvv=target_vv)
                self.entries[i] = tomb
                return tomb
        raise ENOENT(name)

    def live_entries(self) -> List[DirEntry]:
        return [e for e in self.entries if not e.deleted]

    def names(self) -> List[str]:
        return sorted(e.name for e in self.live_entries()
                      if e.name not in (".", ".."))

    def is_empty(self) -> bool:
        return not self.names()
