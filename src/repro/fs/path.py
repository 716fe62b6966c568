"""Pathname searching (paper section 2.3.4) and hidden directories (2.4.1).

Pathnames start from the root or the process's working directory.  Each
directory on the path is opened with an internal unsynchronized read — no
global locking — and its pages are read "in the same manner as other file
data pages", which is why remote directories cost network messages here.

Hidden directories implement context-sensitive names: when pathname search
hits an inode of type HIDDEN_DIR, the directory "is examined for a match
with the process's context rather than the next component of the pathname".
An escape (``hidden_visible``) makes hidden directories visible so specific
entries can be examined and manipulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.errors import EINVAL, ENOENT, ENOTDIR, NetworkError
from repro.fs.directory import decode_snapshot
from repro.fs.types import Gfile, Mode, ROOT_GFS
from repro.storage.inode import FileType
from repro.storage.pack import ROOT_INO

ROOT_GFILE: Gfile = (ROOT_GFS, ROOT_INO)


@dataclass
class Leaf:
    """A resolved final path component."""

    gfile: Gfile
    ftype: FileType


class PathMixin:
    """Pathname machinery; mixed into :class:`FsManager`."""

    # -- attribute fetch -------------------------------------------------

    def _fetch_attrs_anywhere(self, gfile: Gfile) -> Generator:
        """Inode attributes from the freshest convenient place: the local
        pack if present, else any reachable pack site of the filegroup."""
        inode = self.local_inode(gfile)
        if inode is not None:
            yield from self.site.cpu(self.cost.buffer_hit)
            return inode.attrs()
        attrs = yield from self._fetch_attrs_remote(gfile)
        return attrs

    # -- directory reading -------------------------------------------------

    def _dir_cache_version(self, gfile: Gfile) -> Generator:
        """The version vector a name-cache hit must match to be usable, or
        None when the cache must be bypassed.

        Mirrors exactly the authority the uncached interrogation would
        consult: a clean local committed copy is served without informing
        the CSS (§2.3.4), so its version is the truth here; otherwise the
        CSS's merged latest-version knowledge decides (it is updated
        synchronously by every commit, §2.3.6), so a remote commit is
        visible before the next lookup returns.
        """
        inode = self.local_inode(gfile)
        recovery = self.site.recovery
        if inode is not None:
            if (inode.has_data and not inode.deleted and not inode.conflict
                    and not self.propagator.is_pending(gfile)
                    and not (recovery is not None and recovery.needs(gfile))):
                heard = self.known_latest.get(gfile)
                if heard is not None and not inode.version.dominates(heard):
                    return None   # a newer commit was announced: revalidate
                yield from self.site.cpu(self.cost.buffer_hit)
                return inode.version
            return None
        css = self.mount.css_for(gfile[0])
        try:
            out = yield from self.site.rpc(css, "fs.dir_version",
                                           {"gfile": gfile})
        except (ENOENT, NetworkError):
            return None
        if out["deleted"] or out["conflict"]:
            return None
        return out["version"]

    def h_dir_version(self, src: int, p: dict) -> Generator:
        """CSS service for name-cache validation: the latest committed
        version this CSS knows of, merged from its local inode and every
        commit notification heard so far."""
        gfile: Gfile = p["gfile"]
        attrs = yield from self._css_local_attrs(gfile)
        latest = attrs["version"]
        heard = self.known_latest.get(gfile)
        if heard is not None:
            latest = latest.merge(heard)
        yield from self.site.cpu(self.cost.buffer_hit)
        return {"version": latest, "deleted": attrs["deleted"],
                "conflict": attrs["conflict"]}

    def _negative_lookup(self, gfile: Gfile, name: str) -> Generator:
        """Validated cached-ENOENT probe: True iff ``name`` was absent from
        exactly the committed directory version the authority (the same one
        the positive cache consults) reports right now."""
        nc = self.site.name_cache
        if not nc.peek_negative(gfile, name):
            return False
        version = yield from self._dir_cache_version(gfile)
        if version is None:
            return False
        return nc.get_negative(gfile, name, version)

    def _negative_fill(self, gfile: Gfile, name: str) -> None:
        """Remember a lookup miss, keyed to the directory version the just
        -decoded entries were verified against.  If that verification
        failed (no positive entry landed), the absence proof is skipped —
        a negative entry must never outlive its version check."""
        nc = self.site.name_cache
        cached = nc.peek(gfile)
        if cached is not None:
            nc.put_negative(gfile, name, cached.version)

    def _name_cache_lookup(self, gfile: Gfile) -> Generator:
        """Validated name-cache probe; returns the snapshot or None."""
        nc = self.site.name_cache
        cached = nc.peek(gfile)
        if cached is None:
            nc.stats.misses += 1
            return None
        version = yield from self._dir_cache_version(gfile)
        if version is None:
            nc.stats.misses += 1
            return None
        snap = nc.get(gfile, version)
        if snap is None:
            return None
        yield from self.site.cpu(self.cost.buffer_hit)
        return snap

    def _name_cache_fill(self, gfile: Gfile, handle, snap) -> Generator:
        """Install a decoded snapshot, but only when the committed version
        it corresponds to can be verified.

        Version vectors are bumped by every commit, so 'version unchanged
        across the read' proves the pages all belong to that version.
        """
        nc = self.site.name_cache
        version = handle.attrs.get("version")
        if version is None:
            return None
        if handle.ss_site == self.sid:
            inode = self.local_inode(gfile)
            if (inode is not None and inode.has_data and not inode.deleted
                    and not inode.conflict and inode.version == version):
                nc.put(gfile, version, snap)
            return None
        try:
            attrs = yield from self.site.rpc(handle.ss_site,
                                             "fs.fetch_attrs",
                                             {"gfile": gfile})
        except (ENOENT, NetworkError):
            return None
        if (attrs["version"] == version and not attrs["deleted"]
                and not attrs["conflict"]):
            nc.put(gfile, version, snap)
        return None

    def read_dir_entries(self, gfile: Gfile) -> Generator:
        """Read one directory via an unsynchronized open; returns its
        :class:`~repro.fs.directory.DirSnapshot`.

        A multi-page interrogation can race a commit and tear (half old
        pages, half new); the codec detects the tear and the read retries
        against the fresh committed state.  Each individual entry operation
        is atomic, so a clean decode is a consistent picture (§2.3.4).

        The interrogation protocol and its charges run every time; only
        the host-side parse of an image already seen is shared.

        With ``CostModel.name_cache`` on, a validated cache hit skips the
        whole open/read/decode/close cycle.
        """
        use_cache = self.cost.name_cache
        if use_cache:
            cached = yield from self._name_cache_lookup(gfile)
            if cached is not None:
                return cached
        last_error: Optional[Exception] = None
        for attempt in range(8):
            handle = yield from self.open_gfile(gfile, Mode.UNSYNC)
            try:
                if handle.attrs["ftype"] not in (FileType.DIRECTORY,
                                                 FileType.HIDDEN_DIR):
                    raise ENOTDIR(f"gfile {gfile}")
                data = yield from self.read_all(handle)
            finally:
                yield from self.close(handle)
            try:
                snap = decode_snapshot(data)
            except ValueError as exc:
                last_error = exc
                self.site.cache.invalidate_file(*gfile)
                yield 1.0 + attempt
                continue
            yield from self.site.cpu(self.cost.cpu_dir_entry * max(
                1, len(snap)))
            if use_cache:
                yield from self._name_cache_fill(gfile, handle, snap)
            return snap
        raise EINVAL(f"directory {gfile} unreadable after retries: "
                     f"{last_error}")

    # -- walking -----------------------------------------------------------

    def _start_dir(self, proc, path: str) -> Gfile:
        if path.startswith("/"):
            return ROOT_GFILE
        if proc is not None and getattr(proc, "cwd", None) is not None:
            return proc.cwd
        return ROOT_GFILE

    def _split(self, path: str) -> List[str]:
        if not isinstance(path, str) or not path:
            raise EINVAL(f"bad path {path!r}")
        return [c for c in path.split("/") if c and c != "."]

    def walk(self, proc, path: str,
             follow_leaf_hidden: bool = True) -> Generator:
        """Resolve a pathname.

        Returns ``(parent_gfile, leaf_name, leaf)`` where ``leaf`` is a
        :class:`Leaf` or None when the final component does not exist.
        For the root itself, ``parent_gfile`` and ``leaf_name`` are None.
        """
        current = self._start_dir(proc, path)
        comps = self._split(path)
        if not comps:
            return None, None, Leaf(current, FileType.DIRECTORY)
        context = list(getattr(proc, "hidden_context", []) or []) \
            if proc else []
        hidden_visible = bool(proc and getattr(proc, "hidden_visible",
                                               False))
        step = ("stuck", current, 0)
        if self.cost.pathname_shipping:
            step = yield from self._walk_shipped(
                context, hidden_visible, current, comps, follow_leaf_hidden)
        if step[0] == "stuck":
            # The component-by-component interrogation (section 2.3.4).
            step = yield from self._walk_steps(
                False, context, hidden_visible, step[1], comps, step[2],
                follow_leaf_hidden)
        return step[1:]

    def _walk_steps(self, local: bool, context: List[str],
                    hidden_visible: bool, current: Gfile, comps: List[str],
                    i: int, follow_leaf_hidden: bool) -> Generator:
        """The one loop over pathname components: ``..``, mount crossings
        and hidden directories (section 2.4.1: a hidden directory is
        searched for the first name of the process's ``context`` it holds,
        not for the next component).

        Each directory is read with the US interrogation protocol
        (``read_dir_entries``, which always finishes) or, when ``local``,
        from this site's own committed copy (``_local_dir_entries``).
        Returns ``("done", parent, name, leaf)``, or ``("stuck", current,
        i)`` — the point to resume from — when a directory needed next is
        not cleanly stored here.
        """
        read = self._local_dir_entries if local else self.read_dir_entries
        negative = self.cost.name_cache and not local
        path = "/".join(comps)
        while i < len(comps):
            comp = comps[i]
            last = (i == len(comps) - 1)
            if comp == "..":
                up = current
                if up[1] == ROOT_INO:   # a filegroup root: its mount point
                    up = self.mount.parent_of_root(up[0])
                if up is not None:      # else '/..' is '/'
                    snap = yield from read(up)
                    if snap is None:
                        return "stuck", current, i
                    entry = snap.lookup("..")
                    current = (up[0], entry.ino) if entry else up
                if last:
                    return "done", None, None, Leaf(current,
                                                    FileType.DIRECTORY)
                i += 1
                continue
            if negative:
                absent = yield from self._negative_lookup(current, comp)
                if absent:
                    if last:
                        return "done", current, comp, None
                    raise ENOENT(f"{comp!r} in path {path!r}")
            snap = yield from read(current)
            if snap is None:
                return "stuck", current, i
            entry = snap.lookup(comp)
            if entry is None:
                if negative:
                    self._negative_fill(current, comp)
                if last:
                    return "done", current, comp, None
                raise ENOENT(f"{comp!r} in path {path!r}")
            parent = current
            child, ftype = self._entry_target(current, entry)
            if ftype is FileType.HIDDEN_DIR and not hidden_visible and (
                    not last or follow_leaf_hidden):
                # Substitute the per-process context match.
                snap = yield from read(child)
                if snap is None:
                    return "stuck", current, i
                match = None
                for ctx_name in context:
                    match = snap.lookup(ctx_name)
                    if match is not None:
                        break
                if match is None:
                    raise ENOENT(f"no context match in hidden directory "
                                 f"{child} (context={context})")
                parent = child
                child, ftype = self._entry_target(child, match)
            if last:
                return "done", parent, comp, Leaf(child, ftype)
            if ftype not in (FileType.DIRECTORY, FileType.HIDDEN_DIR):
                raise ENOTDIR(f"{comp!r} in path {path!r}")
            current = child
            i += 1
        raise AssertionError("unreachable")

    def _entry_target(self, directory: Gfile, entry) -> tuple:
        """What a directory entry names: the inode in the directory's
        filegroup, or the root of the filegroup mounted on it."""
        child: Gfile = (directory[0], entry.ino)
        crossed = self.mount.crossing(child)
        if crossed is not None:
            return crossed, FileType.DIRECTORY
        return child, entry.ftype

    # -- pathname shipping (the section 2.3.4 extension) ----------------------

    def _walk_shipped(self, context: List[str], hidden_visible: bool,
                      current: Gfile, comps: List[str],
                      follow_leaf_hidden: bool) -> Generator:
        """Resolve by shipping partial pathnames: expand locally as far as
        possible, then hand the remainder to a site storing the next
        directory; resume on return (the SS for each intermediate directory
        can differ).  Returns like ``_walk_steps``; "stuck" is where the
        page-by-page interrogation has to take over."""
        i = 0
        for __ in range(64):   # progress guard
            step = yield from self._walk_steps(
                True, context, hidden_visible, current, comps, i,
                follow_leaf_hidden)
            if step[0] == "done":
                return step
            __, current, i = step
            attrs = yield from self._fetch_attrs_anywhere(current)
            targets = [s for s in attrs["storage_sites"] if s != self.sid]
            if not targets:
                break   # nobody to ship to
            try:
                out = yield from self.site.rpc(targets[0], "fs.walk_path", {
                    "current": current, "comps": comps, "i": i,
                    "hidden_context": context,
                    "hidden_visible": hidden_visible,
                    "follow_leaf_hidden": follow_leaf_hidden,
                })
            except NetworkError:
                break
            if out["st"] == "done":
                return "done", out["parent"], out["name"], out["leaf"]
            if (out["current"], out["i"]) == (current, i):
                break   # the remote made no progress either
            current, i = out["current"], out["i"]
        return "stuck", current, i

    def h_walk_path(self, src: int, p: dict) -> Generator:
        """Serve a shipped partial pathname: expand over local directories
        and return either the answer or the resume point.  A lookup error
        (ENOENT, ENOTDIR) travels back as the RPC's error."""
        step = yield from self._walk_steps(
            True, list(p["hidden_context"]), p["hidden_visible"],
            tuple(p["current"]), list(p["comps"]), p["i"],
            p["follow_leaf_hidden"])
        if step[0] == "done":
            return {"st": "done", "parent": step[1], "name": step[2],
                    "leaf": step[3]}
        return {"st": "continue", "current": step[1], "i": step[2]}

    def _local_dir_entries(self, gfile: Gfile) -> Generator:
        """Snapshot of a directory stored cleanly at this site, or None
        when expansion here cannot continue."""
        pack = self.site.packs.get(gfile[0])
        inode = pack.get_inode(gfile[1]) if pack else None
        if (inode is None or not inode.has_data or inode.deleted
                or inode.conflict
                or self.propagator.is_pending(gfile)
                or (self.site.recovery is not None
                    and self.site.recovery.needs(gfile))):
            return None
        if inode.ftype not in (FileType.DIRECTORY, FileType.HIDDEN_DIR):
            raise ENOTDIR(f"gfile {gfile}")
        if self.cost.name_cache:
            # Parity with the uncached path: this function serves the local
            # committed copy, so its version is the validation authority.
            cached = self.site.name_cache.get(gfile, inode.version)
            if cached is not None:
                yield from self.site.cpu(self.cost.buffer_hit)
                return cached
        psz = self.cost.page_size
        for attempt in range(8):
            version_before = inode.version
            size = inode.size
            chunks = []
            for page in range((size + psz - 1) // psz):
                data = yield from self._committed_block(gfile, page)
                chunks.append(data.ljust(psz, b"\x00"))
            try:
                snap = decode_snapshot(b"".join(chunks)[:size])
            except ValueError:
                snap = None
            inode = self.site.packs[gfile[0]].get_inode(gfile[1])
            if inode is None or not inode.has_data or inode.deleted:
                return None
            if snap is not None and inode.version == version_before:
                yield from self.site.cpu(self.cost.cpu_dir_entry
                                         * max(1, len(snap)))
                if self.cost.name_cache:
                    # The stability check above proved every page belongs
                    # to version_before: safe to remember the decode.
                    self.site.name_cache.put(gfile, version_before, snap)
                return snap
            self.site.cache.invalidate_file(*gfile)
            yield 1.0 + attempt    # torn by a concurrent commit: retry
        return None   # persistently contended: let the caller fall back

    # -- public conveniences -------------------------------------------------

    def resolve_gfile(self, proc, path: str,
                      follow_leaf_hidden: bool = True) -> Generator:
        """Path to ``(gfile, ftype)``; raises ENOENT when missing."""
        __, name, leaf = yield from self.walk(
            proc, path, follow_leaf_hidden=follow_leaf_hidden)
        if leaf is None:
            raise ENOENT(path if name is None else f"{name!r} in {path!r}")
        return leaf.gfile, leaf.ftype

    def stat(self, proc, path: str) -> Generator:
        gfile, __ = yield from self.resolve_gfile(proc, path)
        attrs = yield from self._fetch_attrs_anywhere(gfile)
        return attrs
