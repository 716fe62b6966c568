"""Version vectors for detecting mutual inconsistency of file copies.

Implements the mechanism of Parker, Popek, et al., "Detection of Mutual
Inconsistency in Distributed Systems" (IEEE TSE, May 1983), which the paper
cites as [PARK83]: each copy of a file carries a vector counting the updates
it has seen that originated at each site.  Comparing two vectors classifies
the copies as equal, strictly newer/older, or *conflicting* — updated
independently in different partitions.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Iterator, Optional, Tuple


class Ordering(enum.Enum):
    EQUAL = "equal"
    DOMINATES = "dominates"      # self has seen strictly more updates
    DOMINATED = "dominated"      # other has seen strictly more updates
    CONFLICT = "conflict"        # concurrent: neither descends from the other


class VersionVector:
    """An immutable map from site id to update count.

    Nothing outside this module reaches ``_counts`` and no method changes
    it after construction, so vectors are shared freely — between an
    inode, its wire attributes and every cache that remembers them —
    never copied.
    """

    __slots__ = ("_counts", "_hash")

    def __init__(self, counts: Optional[Dict[int, int]] = None):
        self._counts: Dict[int, int] = {
            site: n for site, n in (counts or {}).items() if n
        }
        if any(n < 0 for n in self._counts.values()):
            raise ValueError("version counts must be non-negative")
        self._hash: Optional[int] = None

    @classmethod
    def _of(cls, counts: Dict[int, int]) -> "VersionVector":
        """Wrap a dict derived here from valid vectors — all counts
        positive, referenced by nobody else — without re-validating it."""
        vv = cls.__new__(cls)
        vv._counts = counts
        vv._hash = None
        return vv

    # -- access ----------------------------------------------------------

    def get(self, site: int) -> int:
        return self._counts.get(site, 0)

    def sites(self) -> Iterator[int]:
        return iter(self._counts)

    def total(self) -> int:
        """Total updates seen; a cheap 'how new is this copy' scalar."""
        return sum(self._counts.values())

    def to_dict(self) -> Dict[int, int]:
        return dict(self._counts)

    def __wire_size__(self) -> int:
        """Bytes on the wire (see ``payload_size``): a site id and a
        count, 8 bytes each, per component."""
        return 16 * len(self._counts)

    # -- evolution ---------------------------------------------------------

    def bump(self, site: int) -> "VersionVector":
        """A new vector with ``site``'s component incremented (one update
        originated at ``site``)."""
        counts = dict(self._counts)
        counts[site] = counts.get(site, 0) + 1
        return VersionVector._of(counts)

    def merge(self, other: "VersionVector") -> "VersionVector":
        """Pointwise maximum: the reconciliation result's history covers
        both input histories."""
        counts = dict(self._counts)
        for site, n in other._counts.items():
            if n > counts.get(site, 0):
                counts[site] = n
        return VersionVector._of(counts)

    # -- comparison ----------------------------------------------------------

    def compare(self, other: "VersionVector") -> Ordering:
        some_greater = any(n > other.get(site)
                           for site, n in self._counts.items())
        some_less = any(n > self.get(site)
                        for site, n in other._counts.items())
        if some_greater and some_less:
            return Ordering.CONFLICT
        if some_greater:
            return Ordering.DOMINATES
        if some_less:
            return Ordering.DOMINATED
        return Ordering.EQUAL

    def dominates(self, other: "VersionVector") -> bool:
        """True if this copy's history includes all of ``other``'s (>=):
        ``compare`` would say EQUAL or DOMINATES.  Asked on every open, so
        it looks at ``other``'s components once and stops at the first
        one this copy has not seen."""
        mine = self._counts
        for site, n in other._counts.items():
            if n > mine.get(site, 0):
                return False
        return True

    def conflicts(self, other: "VersionVector") -> bool:
        return self.compare(other) is Ordering.CONFLICT

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._counts.items())))
        return self._hash

    def __repr__(self) -> str:
        inner = ",".join(f"{s}:{n}" for s, n in sorted(self._counts.items()))
        return f"vv({inner})"


def latest(copies: Iterable[Tuple[int, VersionVector]]):
    """Partition copies into (sites holding a maximal version, conflicts).

    Given ``(site, vector)`` pairs, returns ``(best_sites, best_vv,
    conflict)`` where ``conflict`` is True if some pair of copies is
    mutually inconsistent.
    """
    best_vv: Optional[VersionVector] = None
    best_sites = []
    conflict = False
    for site, vv in copies:
        if best_vv is None:
            best_vv, best_sites = vv, [site]
            continue
        order = vv.compare(best_vv)
        if order is Ordering.EQUAL:
            best_sites.append(site)
        elif order is Ordering.DOMINATES:
            best_vv, best_sites = vv, [site]
        elif order is Ordering.CONFLICT:
            conflict = True
            # Track the union-max so callers still learn the frontier.
            if vv.total() > best_vv.total():
                best_vv, best_sites = vv, [site]
    return best_sites, best_vv, conflict
