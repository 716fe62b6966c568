"""Reconciliation of a distributed hierarchical directory (section 4.4).

For directories there are two operations — insert and remove — yet the
merge rules are not simple, because (a) operations may be done to a file in
a partition which does not store the file, (b) a file deleted in one
partition while modified in another wants to be saved, and (c) a directory
may have to be resolved without either partition storing particular files.

Rules implemented (quoting the paper):

1. "Check for name conflicts.  For each name in the union of the
   directories, check that the inode numbers are the same.  If they aren't,
   both file names are slightly altered to be distinguished.  The owners of
   the two files are notified by electronic mail."
2. Per-inode resolution:
   a. entry in one and not the other: propagate the entry;
   b. deleted entry in one, absent in the other: propagate the delete,
      unless the data was modified since the delete;
   c. live entries in both: no action;
   d. delete in one, live in the other: interrogate the inode — if the data
      was modified since the delete, undo the delete; otherwise propagate
      the delete.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.fs.directory import DirEntry
from repro.storage.version_vector import VersionVector


@dataclass
class DirMergeReport:
    """What the merge did, for mail notification and statistics."""

    name_conflicts: List[Tuple[str, int, int]] = field(default_factory=list)
    propagated_entries: int = 0
    propagated_deletes: int = 0
    undone_deletes: int = 0
    unchanged: int = 0


def _altered_name(name: str, ino: int) -> str:
    """Slightly alter a conflicting name so both files stay reachable."""
    return f"{name}@{ino}"


def _modified_since_delete(entry: DirEntry,
                           current_vv: Optional[VersionVector]) -> bool:
    """Has the file's data been modified since the tombstone was written?

    The tombstone recorded the file's version vector at delete time; a
    strictly dominating current vector means later modification.
    """
    if current_vv is None or entry.dvv is None:
        return False
    return (current_vv.dominates(entry.dvv)
            and current_vv != entry.dvv)


def _unalias(copies: List[List[DirEntry]]) -> List[List[DirEntry]]:
    """Spell every binding the way an earlier merge left it.  Once a merge
    renamed ``name`` for file ``ino`` to its alias, a copy still binding
    ``name`` to ``ino`` (one that has not yet received that merge) holds
    the same binding under its old spelling; folded as it stands, it would
    bring the old name back beside the alias, two links where the file
    counts one.  A tombstone is no link: it keeps its spelling, the record
    of a delete under that name.  A copy that itself holds the alias, live
    or tombstoned, has seen the aliasing merge: its old spelling is a name
    given since (the alias renamed back), and stays."""
    spelled = {(e.name, e.ino) for entries in copies for e in entries}
    out = []
    for entries in copies:
        own = {(e.name, e.ino) for e in entries}
        out.append([
            replace(e, name=_altered_name(e.name, e.ino))
            if not e.deleted
            and (_altered_name(e.name, e.ino), e.ino) in spelled - own
            else e
            for e in entries])
    return out


def merge_directories(
        copies: List[List[DirEntry]],
        file_version: Callable[[int], Optional[VersionVector]],
        deleted_at: Callable[[int], Optional[VersionVector]] = (
            lambda ino: None),
) -> Tuple[List[DirEntry], DirMergeReport]:
    """Merge k >= 1 divergent copies of one directory.

    ``file_version(ino)`` returns the file's *current* (post-merge) version
    vector, or None if no partition stores it — the rule-(d) inode
    interrogation.  ``deleted_at(ino)`` returns the version of the file's
    delete if that delete stands (it supersedes every live copy), else
    None: the rule-(d) interrogation of a file, whichever names bind it.
    """
    report = DirMergeReport()
    copies = _unalias(copies)
    merged: Dict[str, DirEntry] = {}
    # Once a name conflicts, every inode bound to it gets a stable alias so
    # folding a third or fourth copy maps entries consistently.
    aliases: Dict[str, Dict[int, str]] = {}
    # Tombstones displaced from a name by a different live file: remembered
    # so a later copy's live entry for the tombstoned inode still meets its
    # delete (keeps the fold order-independent).
    shadow_tombs: Dict[str, Dict[int, DirEntry]] = {}

    def place(entry: DirEntry, orig_name: str) -> None:
        tomb = shadow_tombs.get(orig_name, {}).get(entry.ino)
        if tomb is not None and not entry.deleted:
            entry = _resolve_pair(entry, tomb, file_version, report)
        current = merged.get(entry.name)
        if current is None:
            merged[entry.name] = entry
            report.propagated_entries += 1
        else:
            merged[entry.name] = _resolve_pair(current, entry,
                                               file_version, report)

    def remember_tomb(orig_name: str, tomb: DirEntry) -> None:
        known = shadow_tombs.setdefault(orig_name, {})
        old = known.get(tomb.ino)
        if old is None or (tomb.dvv is not None
                           and (old.dvv is None
                                or tomb.dvv.dominates(old.dvv))):
            known[tomb.ino] = tomb

    for entries in copies:
        for entry in entries:
            name = entry.name
            if name in aliases:
                amap = aliases[name]
                if entry.ino not in amap:
                    amap[entry.ino] = _altered_name(name, entry.ino)
                    report.name_conflicts.append(
                        (name, entry.ino, next(iter(amap))))
                place(replace(entry, name=amap[entry.ino]), name)
                continue
            # A live entry whose file was tombstoned under this name in
            # another copy (rename or remove, then the name re-used):
            # interrogate the inode first.  If the delete stands, the
            # entry folds in as a tombstone and never reaches the rule-1
            # name-conflict aliasing below.
            tomb = shadow_tombs.get(name, {}).get(entry.ino)
            if tomb is not None and not entry.deleted:
                entry = _resolve_pair(entry, tomb, file_version, report)
            current = merged.get(name)
            if current is not None and current.ino != entry.ino \
                    and name not in (".", ".."):
                live_current = not current.deleted
                live_entry = not entry.deleted
                if live_current and live_entry:
                    # Rule 1: same name, different files: rename both and
                    # remember the aliases for later copies.
                    report.name_conflicts.append(
                        (name, current.ino, entry.ino))
                    amap = {
                        current.ino: _altered_name(name, current.ino),
                        entry.ino: _altered_name(name, entry.ino),
                    }
                    aliases[name] = amap
                    del merged[name]
                    place(replace(current, name=amap[current.ino]), name)
                    place(replace(entry, name=amap[entry.ino]), name)
                    continue
                # A tombstone of a different file under the same name: the
                # live entry wins the name, and the tombstone is remembered
                # in case its file reappears from another copy.  Two
                # foreign tombstones keep the lower inode's record.
                if live_entry:
                    remember_tomb(name, current)
                    del merged[name]
                    place(entry, name)  # may meet its own shadow tombstone
                elif current.deleted and entry.deleted:
                    keep, remember = (entry, current) \
                        if entry.ino < current.ino else (current, entry)
                    remember_tomb(name, remember)
                    merged[name] = keep
                else:
                    remember_tomb(name, entry)
                continue
            place(entry, name)

    result = list(merged.values())
    # Rule (d) per inode: a file deleted in one partition and renamed in
    # the other keeps no live name once its delete stands.
    for i, entry in enumerate(result):
        if entry.deleted or entry.name in (".", ".."):
            continue
        dvv = deleted_at(entry.ino)
        if dvv is not None:
            result[i] = replace(entry, deleted=True, dvv=dvv)
            report.propagated_deletes += 1
    result.sort(key=lambda e: (e.name, e.ino))
    return result, report


def _resolve_pair(a: DirEntry, b: DirEntry,
                  file_version: Callable[[int], Optional[VersionVector]],
                  report: DirMergeReport) -> DirEntry:
    if a.deleted == b.deleted:
        if a.deleted:
            # Two tombstones: keep the one recording the later version.
            report.unchanged += 1
            if b.dvv is not None and (a.dvv is None
                                      or b.dvv.dominates(a.dvv)):
                return b
            return a
        report.unchanged += 1          # rule (c): both live, no action
        return a
    dead, live = (a, b) if a.deleted else (b, a)
    current_vv = file_version(dead.ino)
    if _modified_since_delete(dead, current_vv):
        report.undone_deletes += 1     # rule (d): modified since: undo delete
        return live
    report.propagated_deletes += 1     # rules (b)/(d): propagate the delete
    return dead
