"""A filesystem consistency checker for the distributed store.

Audits every pack of every filegroup, cross-site:

* directory-tree reachability — every live inode is referenced by some
  live directory entry (or is a filegroup root);
* dangling entries — no live directory entry points at a missing or
  tombstoned inode;
* replica placement — each file's data is stored exactly at the sites its
  inode advertises (among reachable packs);
* version coherence — no two copies of a file are mutually inconsistent
  unless the file is conflict-marked;
* content — copies with equal version vectors are one version, so they
  hold identical committed bytes unless conflict-flagged;
* link counts — a file's nlink matches the number of live entries that
  reference it (hard links);
* block aliasing — within each pack, no block is referenced by two inode
  pages, referenced while on the free list, or on the free list twice (a
  double free hands one block to two files).

This is the one walk that classifies replica copies: the invariant checker
and the fuzz oracle read its report rather than walking the packs again.

The checker is read-only and runs over the *committed* state (it decodes
directories straight from pack blocks), so it can run against a live
cluster between operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.fs.directory import decode_snapshot
from repro.fs.scrub import committed_digest, committed_image
from repro.storage.inode import FileType
from repro.storage.pack import ROOT_INO
from repro.storage.version_vector import VersionVector, latest

Gfile = Tuple[int, int]

_DIR_TYPES = (FileType.DIRECTORY, FileType.HIDDEN_DIR)

# The audited categories: a report is clean when every one is empty.  The
# invariant checker reports each finding as ``fsck:<category>``.
AUDITED = ("orphan_inodes", "dangling_entries", "placement_errors",
           "content_mismatch", "unflagged_conflicts", "nlink_errors",
           "block_aliasing")


@dataclass
class FsckReport:
    filegroups_checked: int = 0
    inodes_checked: int = 0
    orphan_inodes: List[Gfile] = field(default_factory=list)
    dangling_entries: List[Tuple[Gfile, str, int]] = field(
        default_factory=list)
    placement_errors: List[Tuple[Gfile, str]] = field(default_factory=list)
    # Equal version vectors, different committed bytes (and not
    # conflict-flagged): silent divergence the vv comparison cannot see.
    # Each entry carries the per-site digest pairing for the report.
    content_mismatch: List[Tuple[Gfile, str]] = field(default_factory=list)
    unflagged_conflicts: List[Gfile] = field(default_factory=list)
    nlink_errors: List[Tuple[Gfile, int, int]] = field(default_factory=list)
    # (filegroup, site, block, what is wrong with it)
    block_aliasing: List[Tuple[int, int, int, str]] = field(
        default_factory=list)
    # Informational, outside ``clean``: replicas lag legitimately on a live
    # cluster.  ``replica_divergence`` holds files whose unflagged copies
    # sit at more than one version vector, with the per-site vectors.
    version_conflicts: List[Gfile] = field(default_factory=list)
    replica_divergence: List[Tuple[Gfile, Dict[int, Dict[int, int]]]] = \
        field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not any(getattr(self, category) for category in AUDITED)

    def summary(self) -> str:
        rows = [("filegroups checked", self.filegroups_checked),
                ("inodes checked", self.inodes_checked)]
        rows += [(category.replace("_", " "), len(getattr(self, category)))
                 for category in AUDITED]
        rows += [("version conflicts", len(self.version_conflicts)),
                 ("replica divergence", len(self.replica_divergence)),
                 ("verdict", "CLEAN" if self.clean else "DIRTY")]
        return "\n".join(f"{label + ':':21}{value}" for label, value in rows)


def fsck(cluster, gfs_list: Optional[List[int]] = None) -> FsckReport:
    """Audit the cluster's packs; returns a :class:`FsckReport`."""
    report = FsckReport()
    mount = cluster.sites[0].fs.mount
    targets = gfs_list if gfs_list is not None else sorted(mount.groups)
    for gfs in targets:
        _check_filegroup(cluster, gfs, report)
    return report


def _check_filegroup(cluster, gfs: int, report: FsckReport) -> None:
    report.filegroups_checked += 1
    mount = cluster.sites[0].fs.mount
    packs = {}
    for site_id in mount.pack_sites(gfs):
        site = cluster.site(site_id)
        if site.up and gfs in site.packs:
            packs[site_id] = site.packs[gfs]
    if not packs:
        return
    page_size = cluster.config.cost.page_size

    for site_id, pack in packs.items():
        report.block_aliasing += [(gfs, site_id, blockno, what) for
                                  blockno, what in _aliased_blocks(pack)]

    # Union inode table, plus the freshest copy for reading directories.
    inodes: Dict[int, Dict[int, object]] = {}
    for site_id, pack in packs.items():
        for ino, inode in pack.inodes.items():
            inodes.setdefault(ino, {})[site_id] = inode

    live: Set[int] = set()
    referenced: Dict[int, int] = {}     # ino -> live link count
    for ino in sorted(inodes):
        copies = inodes[ino]
        report.inodes_checked += 1
        datacopies = [(s, i) for s, i in copies.items()
                      if i.has_data and not i.deleted]
        if not datacopies:
            continue
        live.add(ino)
        __, __, conflict = latest(
            (s, i.version) for s, i in datacopies)
        if conflict:
            report.version_conflicts.append((gfs, ino))
            if not any(i.conflict for __, i in datacopies):
                report.unflagged_conflicts.append((gfs, ino))
        # Replica placement: advertised sites must store the data.
        advertised = set(datacopies[0][1].storage_sites)
        actual = {s for s, __ in datacopies}
        for s in advertised:
            if s in packs and not packs[s].stores(ino):
                report.placement_errors.append(
                    ((gfs, ino), f"site {s}: advertised "
                     f"{sorted(advertised)}, stores nothing "
                     f"(data actually at {sorted(actual)})"))
        # Group the unflagged copies by version vector (a flagged copy
        # legitimately parks divergent bytes for the user).  More than one
        # group is a replica still behind; within a group the copies are
        # one version and must hold identical committed bytes.
        unflagged = [(s, i) for s, i in sorted(datacopies) if not i.conflict]
        groups: Dict[VersionVector, List[int]] = {}
        for s, i in unflagged:
            groups.setdefault(i.version, []).append(s)
        if len(groups) > 1:
            report.replica_divergence.append(((gfs, ino), {
                s: i.version.to_dict() for s, i in unflagged}))
        for peers in groups.values():
            if len(peers) < 2:
                continue
            digests = {s: committed_digest(packs[s], ino, page_size)
                       for s in peers}
            if len(set(digests.values())) > 1:
                pairing = ", ".join(f"site {s}: {d}"
                                    for s, d in digests.items())
                report.content_mismatch.append(((gfs, ino), pairing))

    # Walk directories for reachability and link counts.
    for ino in sorted(live):
        any_inode = next(iter(inodes[ino].values()))
        if any_inode.ftype not in _DIR_TYPES:
            continue
        holder = next((packs[s] for s, i in inodes[ino].items()
                       if i.has_data and s in packs), None)
        if holder is None:
            continue
        try:
            entries = decode_snapshot(
                committed_image(holder, ino, page_size)).entries
        except Exception:  # noqa: BLE001 - corrupt directory content
            report.placement_errors.append(
                ((gfs, ino), "directory content undecodable"))
            continue
        for entry in entries:
            if entry.deleted or entry.name in (".", ".."):
                continue
            referenced[entry.ino] = referenced.get(entry.ino, 0) + 1
            if entry.ino not in live:
                report.dangling_entries.append(
                    ((gfs, ino), entry.name, entry.ino))

    for ino in sorted(live):
        if ino == ROOT_INO:
            continue
        refs = referenced.get(ino, 0)
        if refs == 0:
            report.orphan_inodes.append((gfs, ino))
            continue
        any_inode = next(iter(inodes[ino].values()))
        if any_inode.ftype is FileType.REGULAR and any_inode.nlink != refs:
            report.nlink_errors.append(((gfs, ino), any_inode.nlink, refs))


def _aliased_blocks(pack) -> List[Tuple[int, str]]:
    """One pack's blocks referenced twice, referenced while free, or freed
    twice, as ``(block, what)``."""
    owner: Dict[int, int] = {}
    out = []
    for ino, inode in sorted(pack.inodes.items()):
        for blockno in inode.pages:
            if blockno is None:
                continue
            if blockno in owner:
                out.append((blockno, f"referenced by inodes {owner[blockno]}"
                                     f" and {ino}"))
            owner[blockno] = ino
    freed: Set[int] = set()
    for blockno in pack.free_list:
        if blockno in freed:
            out.append((blockno, "freed twice"))
        freed.add(blockno)
        if blockno in owner:
            out.append((blockno, f"free but referenced by inode "
                                 f"{owner[blockno]}"))
    return out
