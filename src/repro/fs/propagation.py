"""Pull-based update propagation (paper section 2.3.6).

"A queue of propagation requests is kept by the kernel at each site and a
kernel process services the queue.  Propagation is done by 'pulling' the
data ...  When each page arrives, the buffer that contains it is renamed and
sent out to secondary storage ...  Note also that this propagation-in
procedure uses the standard commit mechanism, so if contact is lost with the
site containing the newer version, the local site is still left with a
coherent, complete copy of the file, albeit still out of date."

The paper's propagation process "first internally opens the file at a site
which has the latest version".  The commit notify already carries that
version's attributes, so the open is folded into the first page read:
every ``fs.pull_read`` names the version vector it expects, and a source
whose committed copy moved off it answers with its current attributes
instead of pages, from which the pull restarts.  Only an announcing site
that cannot serve (``ENOENT``, unreachable) costs an explicit
``fs.pull_open``, at the other storage sites in turn.

The pages travel in chunks of up to ``CostModel.batch_pages`` pages, the
same rule as every other page transfer: a one-page chunk is the paper's
``fs.pull_read`` round trip, a longer one one ``fs.pull_read_range``.

The kernel process has one service (``_service``) for a batch of
requests.  It takes the next request off the queue; with
``CostModel.pull_manifest`` on it also drains the backlog queued behind
it (a recovery sweep after a partition heal sends one ``fs.notify`` per
behind file).  A lone request is pulled inline, as in the paper.  A
backlog sends one ``fs.pull_manifest`` RPC per source, which vouches for
that source's files, and runs up to ``pull_pipeline`` per-file pulls
concurrently.  Any file the manifest cannot vouch for is opened at the
other storage sites.  Every pull gets the same retry, defer and give-up
policy (``_pull_one``), and every pull installs through the standard
shadow-page commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set

from repro.errors import EIO, ENOENT, FsError, NetworkError
from repro.fs.types import Gfile
from repro.sim.sync import SimQueue
from repro.storage.inode import InodeAttrs
from repro.storage.shadow import ShadowFile
from repro.storage.version_vector import VersionVector

_ATTR_FIELDS = ("size", "owner", "perms", "nlink", "ftype",
                "storage_sites", "mtime", "conflict")

_MAX_DEFERRALS = 20
_DEFER_DELAY = 25.0
_VALIDATE_AFTER = 5   # deferrals before probing for a leaked SS handle


@dataclass
class PropStats:
    pulls: int = 0
    pages_pulled: int = 0
    delta_pulls: int = 0
    full_pulls: int = 0
    skipped: int = 0
    deferred: int = 0
    failed: int = 0
    range_requests: int = 0     # batched fs.pull_read_range messages issued
    pipelined_rounds: int = 0   # rounds with >1 range request in flight
    manifest_requests: int = 0  # fs.pull_manifest RPCs issued
    manifest_hits: int = 0      # files a manifest vouched for
    restarts: int = 0           # pulls restarted from a moved source's attrs
    sync_waits: int = 0         # sequential round-trip waits in the pull path


@dataclass
class _Request:
    gfile: Gfile
    attrs: dict
    pages: Optional[List[int]]    # None forces a full pull
    hint: int                     # site that announced the new version
    deferrals: int = 0


class Propagator:
    """Per-site kernel process that brings local copies up to date."""

    def __init__(self, fs):
        self.fs = fs
        self.site = fs.site
        self.queue = SimQueue(self.site.sim,
                              name=f"prop@{self.site.site_id}")
        self._pending: Set[Gfile] = set()
        # Replication-lag accounting (ISSUE 10): first-enqueue vtime per
        # pending file.  Pure bookkeeping — read by the load gauges and a
        # metrics histogram, never by the pull protocol itself.
        self._enqueued: Dict[Gfile, float] = {}
        # Files whose pull is in flight right now: storage-site opens must
        # not snapshot the pack mid-pull (they would later commit over it).
        self._pulling: Set[Gfile] = set()
        self._task = None
        self.stats = PropStats()
        reg = self.site.register_handler
        reg("fs.pull_open", self.h_pull_open)
        reg("fs.pull_manifest", self.h_pull_manifest)
        reg("fs.pull_read", self.h_pull_read)
        reg("fs.pull_read_range", self.h_pull_read_range)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._task is None or self._task.finished:
            self._task = self.site.spawn(self._run(),
                                         name=f"propagator@{self.site.site_id}")

    def reset(self) -> None:
        """Crash: queued requests are volatile (recovery re-derives them).

        The queue is recreated: the dead kernel process may have left a
        stale getter registered, which would otherwise swallow the first
        request enqueued after restart.
        """
        self.queue = SimQueue(self.site.sim,
                              name=f"prop@{self.site.site_id}")
        self._pending.clear()
        self._enqueued.clear()
        self._pulling.clear()   # in-flight pull tasks died with the site
        self._task = None

    def is_pending(self, gfile: Gfile) -> bool:
        return gfile in self._pending

    def pending(self) -> List[Gfile]:
        """Files queued (or mid-pull) for propagation, sorted — the public
        accessor used by inspection and the metrics registry."""
        return sorted(self._pending)

    def is_pulling(self, gfile: Gfile) -> bool:
        return gfile in self._pulling

    @property
    def idle(self) -> bool:
        return not self._pending

    # -- replication-lag accounting (ISSUE 10) ------------------------------

    def lag_ages(self) -> List[float]:
        """Replication lag of each still-pending file: virtual time since
        its first enqueue, in pending-set order (sorted by gfile)."""
        now = self.site.sim.now
        return [round(now - self._enqueued[g], 6)
                for g in sorted(self._pending) if g in self._enqueued]

    def _retire(self, gfile: Gfile, outcome: str) -> None:
        """A request left the pending set as ``pulled``, ``skipped`` or
        ``failed``: the enqueue timestamp is dropped, and a completed pull
        records its replication lag (first-enqueue vtime → committed
        vtime).  A deferred request never retires here, so the pull that
        eventually lands measures the full lag."""
        self._pending.discard(gfile)
        enqueued = self._enqueued.pop(gfile, None)
        if outcome == "pulled" and enqueued is not None:
            self.site.metrics.observe("prop.lag",
                                      self.site.sim.now - enqueued)

    # -- intake -------------------------------------------------------------

    def enqueue(self, gfile: Gfile, attrs: dict,
                pages: Optional[List[int]], hint: int) -> None:
        if gfile not in self._pending:
            self._enqueued[gfile] = self.site.sim.now
        self._pending.add(gfile)
        self.queue.put(_Request(gfile=gfile, attrs=attrs,
                                pages=pages, hint=hint))
        self.start()

    # -- the kernel process ----------------------------------------------------

    def _run(self) -> Generator:
        """Take the next request; with ``pull_manifest`` on, also drain
        the backlog queued behind it.  One service handles either."""
        while True:
            batch = [(yield from self.queue.get())]
            if self.fs.cost.pull_manifest:
                batch += self.queue.drain()
            yield from self._service(batch)

    def _give_up(self, req: _Request) -> None:
        """The pull failed for good: retire the request as ``failed``."""
        self.stats.failed += 1
        self._pulling.discard(req.gfile)
        self._retire(req.gfile, "failed")
        self._retire_placeholder(req.gfile)

    def _retry_later(self, req: _Request) -> None:
        """Contact lost mid-pull: the shadow mechanism already left a
        coherent old copy.  Retry later — the source (or another holder)
        may come back; the recovery sweep also covers us at the next
        membership change."""
        req.deferrals += 1
        if req.deferrals > _MAX_DEFERRALS:
            self._give_up(req)
            return
        self.stats.failed += 1
        self._pulling.discard(req.gfile)
        self.site.sim.schedule(_DEFER_DELAY * req.deferrals,
                               self.queue.put, req)

    def _retire_placeholder(self, gfile: Gfile) -> None:
        """A pull permanently given up must not strand an empty-vv
        placeholder inode.

        A recovery notify can install an inode entry ahead of the data it
        advertises; if every source then vanishes, the placeholder has no
        pages, no committed history (empty version vector) and no
        directory entry pointing at it — fsck counts it as an orphan and
        an anti-entropy scrub would try to spread it.  Only such
        never-filled placeholders are retired; any copy with committed
        history stays, coherent and merely out of date."""
        fs = self.fs
        if gfile in fs.ss:
            return
        pack = fs.local_pack(gfile[0])
        inode = pack.get_inode(gfile[1]) if pack else None
        if inode is None or inode.has_data or inode.pages:
            return
        if inode.version.total() != 0:
            return
        pack.inodes.pop(gfile[1], None)
        self.site.cache.invalidate_file(*gfile)

    def _defer(self, req: _Request) -> None:
        """The file is busy locally; retry once the activity drains."""
        req.deferrals += 1
        self.stats.deferred += 1
        if req.deferrals == _VALIDATE_AFTER:
            # A genuinely active open drains in a couple of delays; one
            # stuck this long is likely a leaked SS registration (its
            # fs.close lost in a burst — nothing else collects it while
            # membership holds).  Ask each registered US whether it still
            # has the file open and drop the dead registrations.
            self.site.spawn(self.fs.validate_ss_entry(req.gfile),
                            name=f"ss-validate:{req.gfile}")
        if req.deferrals <= _MAX_DEFERRALS:
            self.site.sim.schedule(_DEFER_DELAY, self.queue.put, req)
        else:
            self._retire(req.gfile, "failed")

    def _precheck(self, req: _Request) -> str:
        """'skip' (nothing to pull into), 'defer' (busy locally), or
        'pull'."""
        fs = self.fs
        gfile = req.gfile
        pack = fs.local_pack(gfile[0])
        inode = pack.get_inode(gfile[1]) if pack else None
        if inode is None:
            return "skip"
        if (inode.deleted or not inode.has_data) and \
                self.site.site_id not in req.attrs["storage_sites"]:
            # Not a resurrection target; nothing to pull into.
            return "skip"
        target_vv: VersionVector = req.attrs["version"]
        if inode.version.dominates(target_vv):
            return "skip"
        if inode.version.conflicts(target_vv):
            # Divergent histories cannot be propagated over; recovery's
            # type-specific merge handles this (section 4).
            return "skip"
        if gfile in fs.ss:
            # The file is open locally; retry once the activity drains.
            return "defer"
        return "pull"

    def _service(self, batch: List[_Request]) -> Generator:
        """Service the request ``_run`` took off the queue, alone or with
        the backlog it drained.  A backlog asks each source for its files'
        attributes in one ``fs.pull_manifest`` round trip and runs up to
        ``pull_pipeline`` per-file pulls at once; a lone request is pulled
        inline, the paper's serial kernel process.  Either way every file
        gets the one error policy of ``_pull_one``."""
        pull: List[_Request] = []
        chosen: Dict[Gfile, _Request] = {}
        for req in batch:
            verdict = self._precheck(req)
            if verdict == "skip":
                self.stats.skipped += 1
                self._retire(req.gfile, "skipped")
            elif verdict == "defer":
                self._defer(req)
            else:
                prev = chosen.get(req.gfile)
                if prev is None:
                    chosen[req.gfile] = req
                    pull.append(req)
                elif req.attrs["version"].dominates(prev.attrs["version"]):
                    # Duplicate notifies for one file: pull the newest
                    # announced version once, not the file twice at once.
                    pull[pull.index(prev)] = req
                    chosen[req.gfile] = req
                else:
                    self.stats.skipped += 1
        if not pull:
            return None
        lone = len(batch) == 1
        manifests: Dict[int, Dict[Gfile, dict]] = {}
        by_hint: Dict[int, List[_Request]] = {}
        if not lone:
            for req in pull:
                by_hint.setdefault(req.hint, []).append(req)
        for hint in sorted(by_hint):
            self.stats.manifest_requests += 1
            self.stats.sync_waits += 1
            try:
                resp = yield from self.site.rpc(hint, "fs.pull_manifest", {
                    "gfiles": [r.gfile for r in by_hint[hint]],
                }, timeout=self.site.backstop)
            except (FsError, NetworkError):
                continue   # its files open implicitly, as a lone pull does
            manifests[hint] = resp["files"]
        depth = max(1, self.fs.cost.pull_pipeline)
        for i in range(0, len(pull), depth):
            wave = pull[i:i + depth]
            if lone:
                rounds = [(yield from self._pull_one(wave[0], None))]
            else:
                tasks = [self.site.spawn(
                    self._pull_one(req, manifests.get(req.hint)),
                    name=f"manifestpull:{req.gfile}") for req in wave]
                rounds = yield self.site.sim.gather([t.done for t in tasks],
                                                    label="manifestwave")
            # The wave's pulls run concurrently: its critical path is the
            # *deepest* member's sequential round count, not their sum.
            self.stats.sync_waits += max([r for r in rounds if r] + [1])
        return None

    def _pull_one(self, req: _Request,
                  manifest: Optional[Dict[Gfile, dict]]) -> Generator:
        """One file's pull under the one per-file error policy.  Returns
        the number of sequential round-trip waits the pull performed; the
        caller credits each wave its deepest member."""
        waits = [0]
        try:
            pack = self.fs.local_pack(req.gfile[0])
            inode = pack.get_inode(req.gfile[1]) if pack else None
            if inode is None:
                self.stats.skipped += 1
                self._retire(req.gfile, "skipped")
                return waits[0]
            outcome = yield from self._pull(req, pack, manifest, waits)
            if outcome != "deferred":
                self._retire(req.gfile, outcome)
        except (NetworkError, EIO):
            # EIO here is a *physical write* failure installing pulled
            # pages: the shadow already rolled back to the coherent old
            # copy.  Dropping the request would strand this replica stale
            # forever (no later membership change re-derives it), so a
            # transient disk fault gets the same bounded retry as contact
            # loss.
            self._retry_later(req)
        except FsError:
            self._give_up(req)
        return waits[0]

    # -- the pull itself ----------------------------------------------------

    def _pull(self, req: _Request, pack, manifest: Optional[Dict[Gfile, dict]],
              waits: List[int]) -> Generator:
        """Internally open the file at a site with the latest version and
        page the changes (or the whole file) across.  Returns the outcome:
        ``pulled``, ``skipped`` (the local copy is already as new) or
        ``deferred`` (re-queued; the file stays pending).

        The open is implicit unless a manifest was asked for: the request
        carries the attributes its announcing site committed, and every
        page read names that vector.  A source that moved on answers a
        read with its current attributes, and the pull restarts from
        them.  An announcing site that cannot serve what it announced
        (``ENOENT``, unreachable, or moved to a version that does not
        supersede it) hands the pull to the paper's explicit
        ``fs.pull_open`` at the other storage sites."""
        source, attrs = yield from self._open_source(req, manifest, waits)
        implicit = manifest is None
        while True:
            try:
                outcome = yield from self._pull_version(req, pack, source,
                                                        attrs, waits)
                if isinstance(outcome, InodeAttrs) and not \
                        outcome["version"].dominates(req.attrs["version"]):
                    raise ENOENT(f"{req.gfile}: site {source} moved off "
                                 f"the announced version")
            except EIO:
                raise   # a local write failure, not the source's
            except (FsError, NetworkError) as exc:
                if not implicit:
                    raise
                source, attrs = yield from self._open_other(req, source,
                                                            exc, waits)
                implicit = False
                continue
            if not isinstance(outcome, InodeAttrs):
                return outcome
            self.stats.restarts += 1
            attrs = outcome

    def _pull_version(self, req: _Request, pack, source: int, attrs: dict,
                      waits: List[int]) -> Generator:
        """Pull the version ``attrs`` names from ``source`` and commit it.
        Returns the outcome of ``_pull``, or the source's attributes when
        its committed copy no longer stands at that version (nothing is
        committed then)."""
        fs = self.fs
        gfile = req.gfile
        # The local copy is read only now: an install or commit that
        # landed while the source was opened must not be pulled over, nor
        # a version a restart found that does not extend it.
        local_inode = pack.get_inode(gfile[1])
        target_vv = attrs["version"]
        if local_inode is None or local_inode.version.dominates(target_vv) \
                or local_inode.version.conflicts(target_vv):
            self.stats.skipped += 1
            return "skipped"

        # Delta pull is only sound when the remote version is exactly one
        # commit (originated at the announcing site) ahead of our copy, and
        # the file did not shrink (shrinks need the page list rebuilt).
        psz = fs.cost.page_size
        n_pages = (attrs["size"] + psz - 1) // psz
        delta_ok = (fs.cost.delta_propagation
                    and req.pages is not None
                    and target_vv == req.attrs["version"]
                    and target_vv == local_inode.version.bump(req.hint)
                    and not local_inode.deleted
                    and local_inode.has_data
                    and n_pages >= len(local_inode.pages))
        pull_pages = (sorted(p for p in req.pages if p < n_pages)
                      if delta_ok else list(range(n_pages)))
        if delta_ok:
            self.stats.delta_pulls += 1
        else:
            self.stats.full_pulls += 1

        shadow = ShadowFile(pack, gfile[1])
        self._pulling.add(gfile)
        try:
            if not delta_ok:
                shadow.truncate()
            moved = yield from self._pull_pages(source, gfile, target_vv,
                                                pull_pages, shadow, waits)
            if moved is not None:
                shadow.abort()
                return moved
            if gfile in fs.ss or shadow.base_moved():
                # A local open slipped in before the pull gate existed (or
                # via an unsynchronized path): committing now would be
                # clobbered by that open's stale shadow.  Or the copy moved
                # during the page fetches (a dropped copy freed the blocks
                # this shadow would free again).  Defer instead.
                shadow.abort()
                self._defer(req)
                return "deferred"
            shadow.set_attrs(**{k: attrs[k] for k in _ATTR_FIELDS})
            # Pulling a live version resurrects a locally-tombstoned copy
            # (the undo-delete of section 4.4 rule d).
            shadow.set_attrs(deleted=False, has_data=True)
            shadow.commit(new_version=target_vv, mtime=attrs["mtime"])
        except BaseException:
            shadow.abort()   # coherent, complete, out-of-date copy remains
            raise
        finally:
            self._pulling.discard(gfile)
        self.site.cache.invalidate_file(*gfile)
        self.stats.pulls += 1
        return "pulled"

    def _pull_pages(self, source: int, gfile: Gfile, vv: VersionVector,
                    pages: List[int], shadow: ShadowFile,
                    waits: List[int]) -> Generator:
        """Page the data of version ``vv`` across from ``source`` into
        ``shadow``; returns None, or the source's attributes if its copy
        no longer stands at ``vv``.

        The pages travel in chunks of up to ``batch_pages`` pages
        (``_fetch_chunk``); ``batch_pages=1`` is the paper's protocol, one
        ``fs.pull_read`` round trip per page.  With ``pull_pipeline`` > 1
        several chunk requests are kept in flight at once — the source
        reads the next chunk off its disk while earlier ones are on the
        wire.  A round of one chunk runs inline.  Pages are still written
        to secondary storage here in file order, so the shadow-commit
        invariant (a coherent copy survives any failure) is untouched.
        """
        fs = self.fs
        batch = fs.cost.batch_pages
        depth = max(1, fs.cost.pull_pipeline)
        chunks = [pages[i:i + batch] for i in range(0, len(pages), batch)]
        for r in range(0, len(chunks), depth):
            in_flight = chunks[r:r + depth]
            waits[0] += 1
            if len(in_flight) == 1:
                results = [(yield from self._fetch_chunk(source, gfile, vv,
                                                         in_flight[0]))]
            else:
                self.stats.pipelined_rounds += 1
                tasks = [self.site.spawn(
                    self._fetch_chunk(source, gfile, vv, chunk),
                    name=f"pullrange:{gfile}") for chunk in in_flight]
                results = yield self.site.sim.gather(
                    [t.done for t in tasks], label=f"pullround:{gfile}")
            for fetched in results:
                if isinstance(fetched, InodeAttrs):
                    return fetched
            for fetched in results:
                for page in sorted(fetched):
                    shadow.write_page(page, fetched[page])
                    yield from self.site.cpu(fs.cost.disk_write)
                    self.stats.pages_pulled += 1
        return None

    def _fetch_chunk(self, source: int, gfile: Gfile, vv: VersionVector,
                     chunk: List[int]) -> Generator:
        """Fetch one chunk of the pages committed at ``vv``: ``{page:
        data}``, or the source's attributes if its copy moved off ``vv``.
        The chunk length alone picks the message: one page travels in the
        paper's ``fs.pull_read``, more in ``fs.pull_read_range``."""
        if len(chunk) == 1:
            data = yield from self.site.rpc(source, "fs.pull_read", {
                "gfile": gfile, "page": chunk[0], "vv": vv,
            }, timeout=self.site.backstop)
            return data if isinstance(data, InodeAttrs) else {chunk[0]: data}
        self.stats.range_requests += 1
        resp = yield from self.site.rpc(source, "fs.pull_read_range", {
            "gfile": gfile, "pages": list(chunk), "vv": vv,
        }, timeout=self.site.backstop)
        return resp if isinstance(resp, InodeAttrs) else resp["pages"]

    def _open_source(self, req: _Request,
                     manifest: Optional[Dict[Gfile, dict]],
                     waits: List[int]) -> Generator:
        """The source and the attributes a pull starts from.  With no
        manifest the announcing site's own attributes, from the request,
        vouch for it (no round trip).  A manifest entry that vouches for
        the announced version does the same; a manifest that cannot sends
        the pull to ``_open_other``."""
        if manifest is None:
            return req.hint, req.attrs
        attrs = manifest.get(req.gfile)
        if attrs is not None and attrs["version"].dominates(
                req.attrs["version"]):
            self.stats.manifest_hits += 1
            return req.hint, attrs
        return (yield from self._open_other(
            req, req.hint, ENOENT(f"{req.gfile}: site {req.hint} cannot "
                                  f"vouch for the announced version"),
            waits))

    def _open_other(self, req: _Request, refused: int, exc: Exception,
                    waits: List[int]) -> Generator:
        """Explicitly open the file at the first other storage site whose
        ``fs.pull_open`` finds (at least) the announced version; site
        ``refused`` could not serve it, with ``exc``."""
        last_exc = exc
        for cand in req.attrs["storage_sites"]:
            if cand in (refused, self.site.site_id):
                continue
            waits[0] += 1
            try:
                attrs = yield from self.site.rpc(cand, "fs.pull_open",
                                                 {"gfile": req.gfile},
                                                 timeout=self.site.backstop)
            except (FsError, NetworkError) as err:
                last_exc = err
                continue
            if attrs["version"].dominates(req.attrs["version"]):
                return cand, attrs
        raise last_exc

    # -- the pull service: the source side of the calls above ---------------

    def _servable(self, gfile: Gfile):
        """The local inode if this site can serve ``gfile`` as a
        propagation source (it holds live data), else None."""
        inode = self.fs.local_inode(gfile)
        if inode is None or not inode.has_data or inode.deleted:
            return None
        return inode

    def _moved(self, p: dict) -> Optional[InodeAttrs]:
        """Check a page read against the vector it names (``vv``): None
        while the committed copy stands at it, else the copy's current
        attributes, which the reader restarts from.  A read naming no
        vector (recovery's ``read_copy``) is served unchecked."""
        if "vv" not in p:
            return None
        inode = self._source(p["gfile"])
        return None if inode.version == p["vv"] else inode.attrs()

    def _source(self, gfile: Gfile):
        """The local inode serving ``gfile``; ``ENOENT`` if this site
        cannot serve it (``_servable``)."""
        inode = self._servable(gfile)
        if inode is None:
            raise ENOENT(f"{gfile} has no data at site {self.site.site_id}")
        return inode

    def h_pull_open(self, src: int, p: dict) -> Generator:
        inode = self._source(p["gfile"])
        yield from self.site.cpu(self.fs.cost.buffer_hit)
        return inode.attrs()

    def h_pull_manifest(self, src: int, p: dict) -> Generator:
        """One RPC vouching for N files after a heal: the attributes
        (version vector included) of every requested file this site can
        serve as a propagation source.  Files it cannot vouch for (no data
        here, or deleted) are omitted from the reply — the puller opens
        those at the other storage sites with ``fs.pull_open``, exactly as
        if this site had answered ENOENT."""
        out: Dict[Gfile, dict] = {}
        for gfile in p["gfiles"]:
            inode = self._servable(gfile)
            if inode is None:
                continue
            yield from self.site.cpu(self.fs.cost.buffer_hit)
            out[gfile] = inode.attrs()
        return {"files": out}

    def h_pull_read(self, src: int, p: dict) -> Generator:
        """Serve one *committed* page to a propagation pull, if the copy
        stands at the vector the read names (``_moved``).

        Deliberately bypasses the incore view: the cache at a storage site
        holds the incore (possibly staged, uncommitted) page content for
        open-for-modification files, while propagation must only ever see
        the last committed version.
        """
        moved = self._moved(p)
        if moved is not None:
            yield from self.site.cpu(self.fs.cost.buffer_hit)
            return moved
        data = yield from self.fs._committed_block(p["gfile"], p["page"])
        if src != self.site.site_id:
            self.site.net.stats.record_pages("fs.pull_read", 1)
        return data

    def h_pull_read_range(self, src: int, p: dict) -> Generator:
        """Serve a contiguous run of *committed* pages to a propagation
        pull in one message (the batched counterpart of fs.pull_read).
        The vector is checked before each page: a commit between two of
        them answers with the attributes instead of a torn run."""
        gfile: Gfile = p["gfile"]
        out: Dict[int, bytes] = {}
        for page in p["pages"]:
            moved = self._moved(p)
            if moved is not None:
                yield from self.site.cpu(self.fs.cost.buffer_hit)
                return moved
            out[page] = yield from self.fs._committed_block(gfile, page)
        if src != self.site.site_id:
            self.site.net.stats.record_pages("fs.pull_read_range", len(out))
        return {"pages": out}
