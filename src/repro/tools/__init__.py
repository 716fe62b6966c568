"""Operator tooling: consistency checking and cluster introspection.

LOCUS shipped with recovery/merge tooling and "a trivial tool ... by which
the user may rename each version of the conflicted file" (section 4.6);
these modules are the equivalent operational surface for the reproduction:
``fsck`` audits on-disk structures across all packs, ``inspect`` reports
live kernel state (partitions, CSS assignments, open files, caches).
"""

from repro.tools.fsck import FsckReport, fsck
from repro.tools.inspect import cluster_report

__all__ = ["FsckReport", "fsck", "cluster_report"]
