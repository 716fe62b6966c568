"""Per-site cache of decoded directory entries (the hot-path name cache).

Pathname searching is the dominant repeated cost of the system (paper
section 2.3.4 extends it with pathname shipping for exactly that reason):
every component of every ``walk()`` pays an unsynchronized open, a page read
per directory page, a decode, and a close — network messages for every
remote directory.  This cache remembers the *decoded* form of a directory
(its :class:`~repro.fs.directory.DirSnapshot`) keyed by the version vector
of the committed content it was decoded from.

Consistency model — stale entries are impossible, not just unlikely:

* An entry is only ever **used** after the caller re-validates the version
  vector against the authority the uncached path would have consulted (the
  local committed inode for a clean local copy, the CSS's merged
  latest-version knowledge otherwise).  Version vectors are bumped on every
  commit, so vector equality implies content equality.
* Every path that invalidates buffer-cache pages for a file (commit
  notification intake, page-valid-token revocation, propagation-pull
  completion, recovery/merge installs, partition cleanup, close) also drops
  the name entry: :class:`~repro.storage.buffer_cache.BufferCache` cascades
  its ``invalidate*`` calls into its companion name cache.

A snapshot is immutable, so the cache stores and hands out the very object
the decode produced: no caller can change the cached truth in place.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.fs.directory import DirSnapshot
from repro.fs.types import Gfile
from repro.storage.version_vector import VersionVector


# Per-site capacity in directories.  No experiment varies it.
NAME_CACHE_ENTRIES = 256


@dataclass
class NameCacheStats:
    hits: int = 0
    misses: int = 0
    fills: int = 0
    invalidations: int = 0
    stale_drops: int = 0     # lookups that failed version validation
    neg_hits: int = 0        # validated known-absent answers served
    neg_fills: int = 0       # ENOENT results remembered
    neg_stale_drops: int = 0  # negative entries that failed validation

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _NameEntry:
    version: VersionVector
    entries: DirSnapshot


class NameCache:
    """LRU map ``gfile -> (version_vector, decoded snapshot)``."""

    def __init__(self, capacity: int = NAME_CACHE_ENTRIES):
        if capacity <= 0:
            raise ValueError("name cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Gfile, _NameEntry]" = OrderedDict()
        # Negative entries: (directory, name) -> the directory version the
        # name was proven absent from.  Validated exactly like positive
        # entries (vv equality against the same authority), so a cached
        # ENOENT can never survive the commit that created the name.
        # Indexed by directory so a file invalidation is one pop; LRU
        # order and the capacity bound are over all (directory, name)
        # pairs, kept in ``_negative_lru``.
        self._negative: Dict[Gfile, Dict[str, VersionVector]] = {}
        self._negative_lru: "OrderedDict[tuple, None]" = OrderedDict()
        self.stats = NameCacheStats()

    # -- lookup ----------------------------------------------------------

    def peek(self, gfile: Gfile) -> Optional[_NameEntry]:
        """The raw cached entry without validation or stats counting; the
        caller must validate ``.version`` before using ``.entries``."""
        return self._entries.get(gfile)

    def get(self, gfile: Gfile,
            version: VersionVector) -> Optional[DirSnapshot]:
        """Validated lookup: the cached snapshot, iff it was decoded from
        exactly the committed content identified by ``version``."""
        cached = self._entries.get(gfile)
        if cached is None:
            self.stats.misses += 1
            return None
        if cached.version != version:
            # The directory moved on; the entry is dead weight.
            self._entries.pop(gfile, None)
            self.stats.stale_drops += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(gfile)
        self.stats.hits += 1
        return cached.entries

    def peek_negative(self, gfile: Gfile, name: str) -> bool:
        """Membership check without validation or stats counting; a True
        answer still needs :meth:`get_negative` against the authority's
        current version before it may be believed."""
        return name in self._negative.get(gfile, ())

    def get_negative(self, gfile: Gfile, name: str,
                     version: VersionVector) -> bool:
        """Validated known-absent lookup: True iff ``name`` was proven
        absent from exactly the committed directory content identified by
        ``version``."""
        names = self._negative.get(gfile)
        cached = names.get(name) if names else None
        if cached is None:
            return False
        if cached != version:
            # The directory moved on; the proof of absence is dead weight.
            self._drop_negative(gfile, name)
            self.stats.neg_stale_drops += 1
            return False
        self._negative_lru.move_to_end((gfile, name))
        self.stats.neg_hits += 1
        return True

    def _drop_negative(self, gfile: Gfile, name: str) -> None:
        names = self._negative[gfile]
        del names[name]
        if not names:
            del self._negative[gfile]
        del self._negative_lru[(gfile, name)]

    # -- fill / invalidate ----------------------------------------------

    def put(self, gfile: Gfile, version: VersionVector,
            entries: DirSnapshot) -> None:
        self._entries[gfile] = _NameEntry(version=version, entries=entries)
        self._entries.move_to_end(gfile)
        self.stats.fills += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def put_negative(self, gfile: Gfile, name: str,
                     version: VersionVector) -> None:
        self._negative.setdefault(gfile, {})[name] = version
        self._negative_lru[(gfile, name)] = None
        self._negative_lru.move_to_end((gfile, name))
        self.stats.neg_fills += 1
        while len(self._negative_lru) > self.capacity:
            self._drop_negative(*next(iter(self._negative_lru)))

    def invalidate_file(self, gfs: int, ino: int) -> bool:
        dropped = self._entries.pop((gfs, ino), None) is not None
        stale = self._negative.pop((gfs, ino), None)
        if stale:
            for name in stale:
                del self._negative_lru[((gfs, ino), name)]
        if dropped or stale:
            self.stats.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        if self._entries:
            self.stats.invalidations += len(self._entries)
        self._entries.clear()
        self._negative.clear()
        self._negative_lru.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, gfile: Gfile) -> bool:
        return gfile in self._entries
