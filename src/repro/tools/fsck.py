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
* link counts — a file's nlink matches the number of live entries that
  reference it (hard links).

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
from repro.storage.version_vector import latest

Gfile = Tuple[int, int]

_DIR_TYPES = (FileType.DIRECTORY, FileType.HIDDEN_DIR)


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
    version_conflicts: List[Gfile] = field(default_factory=list)
    unflagged_conflicts: List[Gfile] = field(default_factory=list)
    nlink_errors: List[Tuple[Gfile, int, int]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.orphan_inodes or self.dangling_entries
                    or self.placement_errors or self.content_mismatch
                    or self.unflagged_conflicts or self.nlink_errors)

    def summary(self) -> str:
        lines = [
            f"filegroups checked: {self.filegroups_checked}",
            f"inodes checked:     {self.inodes_checked}",
            f"orphan inodes:      {len(self.orphan_inodes)}",
            f"dangling entries:   {len(self.dangling_entries)}",
            f"placement errors:   {len(self.placement_errors)}",
            f"content mismatches: {len(self.content_mismatch)}",
            f"version conflicts:  {len(self.version_conflicts)} "
            f"({len(self.unflagged_conflicts)} unflagged)",
            f"nlink errors:       {len(self.nlink_errors)}",
            f"verdict:            {'CLEAN' if self.clean else 'DIRTY'}",
        ]
        return "\n".join(lines)


def fsck(cluster, gfs_list: Optional[List[int]] = None) -> FsckReport:
    """Audit the cluster's packs; returns a :class:`FsckReport`."""
    report = FsckReport()
    mount = cluster.sites[0].fs.mount
    targets = gfs_list if gfs_list is not None else sorted(mount.groups)
    for gfs in targets:
        _check_filegroup(cluster, gfs, report)
    return report


def fsck_repair(cluster, report: Optional[FsckReport] = None) -> FsckReport:
    """Repair what is mechanically repairable: retire orphan inodes (files
    no directory references — e.g. a create whose name insert was lost to a
    network failure) and run the recovery reconciliation over filegroups
    holding unflagged version conflicts (divergence that arose after the
    last merge sweep).  Returns a fresh post-repair report."""
    if report is None:
        report = fsck(cluster)
    mount = cluster.sites[0].fs.mount
    for gfs, ino in report.orphan_inodes:
        for site_id in mount.pack_sites(gfs):
            site = cluster.site(site_id)
            if site.up and site.packs.get(gfs) is not None \
                    and site.packs[gfs].get_inode(ino) is not None:
                cluster.call(site_id, site.fs.h_scrub_orphan(
                    site_id, {"gfile": (gfs, ino)}))
                break
    for gfs in sorted({gfs for gfs, __ in report.unflagged_conflicts}):
        css = mount.css.get(gfs)
        if css is not None and cluster.site(css).up:
            cluster.site(css).recovery.schedule_filegroup(gfs)
    cluster.settle()
    # Dangling entries (a name whose inode is gone — e.g. created during a
    # partition whose delete raced the merge) are scrubbed from their
    # directories, the classic fsck action.
    report = fsck(cluster)
    for (gfs, dir_ino), name, __ in report.dangling_entries:
        css = mount.css.get(gfs)
        if css is None or not cluster.site(css).up:
            continue
        fs = cluster.site(css).fs
        try:
            cluster.call(css, fs._dir_modify(
                (gfs, dir_ino),
                lambda view, n=name: view.entries.remove(
                    next(e for e in view.entries if e.name == n))))
        except Exception:  # noqa: BLE001 - repair is best-effort
            pass
    cluster.settle()
    return fsck(cluster)


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

    # Union inode table, plus the freshest copy for reading directories.
    inodes: Dict[int, Dict[int, object]] = {}
    for site_id, pack in packs.items():
        for ino, inode in pack.inodes.items():
            inodes.setdefault(ino, {})[site_id] = inode

    live: Set[int] = set()
    referenced: Dict[int, int] = {}     # ino -> live link count
    for ino, copies in inodes.items():
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
        # Content audit: copies whose version vectors agree must hold
        # identical committed bytes unless conflict-flagged (a flagged
        # file legitimately parks divergent copies for the user).
        if not conflict and not any(i.conflict for __, i in datacopies):
            best = datacopies[0][1].version
            peers = [(s, i) for s, i in datacopies if i.version == best]
            digests = {s: committed_digest(packs[s], ino, page_size)
                       for s, __ in peers if s in packs}
            if len(set(digests.values())) > 1:
                pairing = ", ".join(f"site {s}: {d}"
                                    for s, d in sorted(digests.items()))
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
