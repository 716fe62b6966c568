"""Incore state kept at each of the three logical sites of a file access.

"Since there are three possible independent roles a given site can play
(US, CSS, SS), it can therefore operate in one of eight modes.  LOCUS
handles each combination, optimizing some for performance" (section 2.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.fs.types import Gfile, Mode
from repro.storage.shadow import ShadowFile
from repro.storage.version_vector import VersionVector


@dataclass
class UsHandle:
    """Using-site state for one open: the US never deals with disk blocks,
    only logical pages supplied by the SS."""

    hid: int
    gfile: Gfile
    mode: Mode
    ss_site: int
    attrs: dict
    sync: bool                      # False for unsynchronized internal reads
    dirty: bool = False
    closed: bool = False
    last_page: int = -2             # readahead: previous page read
    # Length of the current sequential run (consecutive page reads); drives
    # the adaptive readahead window and resets on any non-sequential access.
    run_len: int = 0
    # Write-behind state of a remote write (flushed in chunks of
    # ``batch_pages``): page images staged locally but not yet shipped to
    # the SS, the size the next flush must carry, and a count of page
    # writes shipped since the last commit/abort.  The commit request carries ``pages_sent`` so the
    # SS can refuse to commit a partially delivered batch.
    pending_writes: Dict[int, bytes] = field(default_factory=dict)
    pending_size: int = 0
    pages_sent: int = 0
    # Completion future of a write-behind flush still on the wire: an
    # ordering point issued by another task sharing the handle queues
    # behind it, so a commit never overtakes staged pages.
    flush_done: Optional[object] = None
    # In-progress failover (replica substitution): concurrent substitutions
    # for the same handle wait here instead of double-registering.
    failover_busy: Optional[object] = None
    # Exactly-once write failover: the open's uncommitted operations,
    # retained beyond the flush so they can be replayed at a surviving
    # replica if the SS dies mid-open — every page image put since the
    # last commit, whether a truncate was staged, and the accumulated
    # attribute patches.  Cleared on commit and abort.
    staged_pages: Dict[int, bytes] = field(default_factory=dict)
    staged_truncate: bool = False
    staged_attrs: Dict[str, object] = field(default_factory=dict)
    # A commit request of this open is on the wire: a re-home may find it
    # applied at the replica.  A writer re-homed onto a copy that carries
    # another writer's commit is superseded: its staged changes rest on a
    # version that no longer stands, so its next commit fails.
    committing: bool = False
    superseded: bool = False

    @property
    def size(self) -> int:
        return self.attrs["size"]

    @size.setter
    def size(self, value: int) -> None:
        self.attrs["size"] = value

    def note_read(self, page: int) -> bool:
        """Account one page read in the sequential run; True when it
        directly follows the previous one."""
        sequential = page == self.last_page + 1
        self.run_len = self.run_len + 1 if sequential else 0
        self.last_page = page
        return sequential

    def clear_staged(self) -> None:
        """A commit or abort point: nothing shipped is unacknowledged and
        no uncommitted operation is left to replay."""
        self.pages_sent = 0
        self.staged_pages.clear()
        self.staged_truncate = False
        self.staged_attrs.clear()


def _drop_open(opens: Dict[int, int], us: int) -> None:
    """One open of ``us`` fewer; a count never stays at zero."""
    n = opens.get(us, 0)
    if n > 1:
        opens[us] = n - 1
    elif n:
        del opens[us]


@dataclass
class SsOpen:
    """Storage-site state for one open file.

    ``page_holders`` implements the page-valid tokens of section 3.2: the
    set of using sites holding a valid cached copy of each page.  A write
    invalidates every other holder's copy.
    """

    gfile: Gfile
    shadow: ShadowFile
    # us_site -> opens; a site with no open left has no key.
    users: Dict[int, int] = field(default_factory=dict)
    unsync_users: Dict[int, int] = field(default_factory=dict)
    writer: Optional[int] = None
    page_holders: Dict[int, Set[int]] = field(default_factory=dict)
    # Remote page writes applied since the last commit/abort; checked
    # against the commit's expected count (lost one-way messages
    # must fail the commit, never half-apply it).
    pages_received: int = 0
    # A staged page write failed at the physical disk (the one-way write
    # protocol has no reply to carry the error): the commit must refuse.
    io_error: Optional[str] = None

    @property
    def total_users(self) -> int:
        return sum(self.users.values()) + sum(self.unsync_users.values())

    def add_user(self, us: int, mode: Mode) -> None:
        opens = self.users if mode.synchronized else self.unsync_users
        opens[us] = opens.get(us, 0) + 1
        if mode.writable:
            self.writer = us

    def drop_user(self, us: int, mode: Mode) -> None:
        _drop_open(self.users if mode.synchronized else self.unsync_users,
                   us)
        if mode.writable and self.writer == us:
            self.writer = None
        if us not in self.users and us not in self.unsync_users:
            for holders in self.page_holders.values():
                holders.discard(us)

    def drop_site(self, us: int) -> None:
        """Forget everything about a using site (it left the partition)."""
        self.users.pop(us, None)
        self.unsync_users.pop(us, None)
        if self.writer == us:
            self.writer = None
        for holders in self.page_holders.values():
            holders.discard(us)


@dataclass
class CssEntry:
    """Synchronization-site state for one file: "enough state information is
    kept incore at the CSS to support those synchronization decisions"
    (section 2.3.3)."""

    gfile: Gfile
    storage_sites: list
    latest_vv: VersionVector
    readers: Dict[int, int] = field(default_factory=dict)  # us_site -> opens
    writer: Optional[int] = None
    active_ss: Optional[int] = None
    lock_tx: Optional[int] = None   # owning transaction id, if any

    @property
    def in_use(self) -> bool:
        return self.writer is not None or bool(self.readers)

    def note_open(self, us: int, mode: Mode, ss: int) -> None:
        if mode.writable:
            self.writer = us
        else:
            self.readers[us] = self.readers.get(us, 0) + 1
        self.active_ss = ss

    def note_close(self, us: int, mode: Mode) -> None:
        if mode.writable and self.writer == us:
            self.writer = None
        else:
            _drop_open(self.readers, us)
        if not self.in_use:
            self.active_ss = None
            self.lock_tx = None

    def drop_site(self, us: int) -> None:
        self.readers.pop(us, None)
        if self.writer == us:
            self.writer = None
        if not self.in_use:
            self.active_ss = None
            self.lock_tx = None
