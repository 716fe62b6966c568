"""Exception hierarchy for the LOCUS reproduction.

LOCUS folded most failures into the existing Unix interface (paper section
3.3), so filesystem and process errors carry Unix-style errno names.  Network
and simulation failures get their own branches because kernel code handles
them differently from user-visible errors.
"""

from __future__ import annotations


class LocusError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Simulation substrate errors
# ---------------------------------------------------------------------------

class SimError(LocusError):
    """Base class for simulator-level failures."""


class DeadlockError(SimError):
    """The event queue drained while tasks were still blocked."""


class TaskCancelled(SimError):
    """Raised inside a task's generator when the task is cancelled."""


# ---------------------------------------------------------------------------
# Network errors
# ---------------------------------------------------------------------------

class NetworkError(LocusError):
    """Base class for network-layer failures."""


class SimTimeout(SimError, NetworkError):
    """A timed wait expired before its future resolved.

    Deliberately also a :class:`NetworkError`: a timed-out remote operation
    is indistinguishable from a lost message or a dead peer, so every call
    site that handles communication failure with ``except NetworkError``
    handles timeouts too.  ``tests/test_exception_contract.py`` enforces
    that no kernel code catches SimTimeout separately.
    """


class Unreachable(NetworkError):
    """The destination is not in the sender's partition."""

    def __init__(self, src: int, dst: int):
        super().__init__(f"site {dst} unreachable from site {src}")
        self.src = src
        self.dst = dst


class CircuitClosed(NetworkError):
    """The virtual circuit closed while a reply was outstanding.

    Closing a circuit aborts any ongoing activity between the two sites
    (paper section 5.4 footnote), so pending RPCs fail with this error.
    """

    def __init__(self, peer: int, detail: str = ""):
        super().__init__(f"virtual circuit to site {peer} closed {detail}".rstrip())
        self.peer = peer


class SiteDown(NetworkError):
    """The target site has crashed."""

    def __init__(self, site: int):
        super().__init__(f"site {site} is down")
        self.site = site


# ---------------------------------------------------------------------------
# Filesystem errors (Unix errno flavoured)
# ---------------------------------------------------------------------------

class FsError(LocusError):
    """Base class for filesystem errors; ``errno`` holds the symbolic name."""

    errno = "EIO"

    def __init__(self, detail: str = ""):
        super().__init__(f"{self.errno}: {detail}" if detail else self.errno)
        self.detail = detail


class ENOENT(FsError):
    errno = "ENOENT"


class EEXIST(FsError):
    errno = "EEXIST"


class ENOTDIR(FsError):
    errno = "ENOTDIR"


class EISDIR(FsError):
    errno = "EISDIR"


class ENOTEMPTY(FsError):
    errno = "ENOTEMPTY"


class EACCES(FsError):
    errno = "EACCES"


class EBADF(FsError):
    errno = "EBADF"


class EBUSY(FsError):
    errno = "EBUSY"


class ENOSPC(FsError):
    errno = "ENOSPC"


class EIO(FsError):
    """A physical disk read/write failed at the storage site."""

    errno = "EIO"


class ESTALE(FsError):
    """The copy offered by a storage site is not the latest version."""

    errno = "ESTALE"


class ECONFLICT(FsError):
    """The file has unreconciled divergent copies (paper section 4.6).

    Normal attempts to access a conflicted file fail, although that control
    may be overridden via ``allow_conflict``.
    """

    errno = "ECONFLICT"


class EWOULDCONFLICT(FsError):
    """Writer open refused while the file is queued for reconciliation.

    With exactly-once writes on, the CSS closes the merge conflict window
    by refusing to hand out a write token for a file whose copies still
    await reconciliation after a partition heal; the open is retried under
    supervision until the (concurrently scheduled) merge completes.  The
    refusal happens before any state changes, so it is always retryable.
    """

    errno = "EWOULDCONFLICT"


class EWRITELOST(FsError):
    """Commit refused: the storage site received fewer one-way page
    writes than the using site shipped (a lost write closed the circuit,
    and the commit reopened it).  The SS drops its staged state before
    raising, so the refusal is always retryable: the using site replays
    its retained page images and commits again.
    """

    errno = "EWRITELOST"


class EXDEV(FsError):
    errno = "EXDEV"


class EINVAL(FsError):
    errno = "EINVAL"


class EPIPE(FsError):
    errno = "EPIPE"


class EMFILE(FsError):
    errno = "EMFILE"


class EROFS(FsError):
    errno = "EROFS"


class ENAMETOOLONG(FsError):
    errno = "ENAMETOOLONG"


# ---------------------------------------------------------------------------
# Process errors
# ---------------------------------------------------------------------------

class ProcessError(LocusError):
    """Base class for process-management errors."""


class ESRCH(ProcessError):
    """No such process."""


class ECHILD(ProcessError):
    """No waitable children."""


class RemoteProcessError(ProcessError):
    """A cooperating process's site failed (paper section 3.3).

    Additional information about the nature of the error is deposited in the
    surviving process's structure and interrogated via ``proc_errinfo``.
    """

    def __init__(self, pid: int, site: int, role: str):
        super().__init__(f"{role} process {pid} lost: site {site} failed")
        self.pid = pid
        self.site = site
        self.role = role


# ---------------------------------------------------------------------------
# Transaction errors
# ---------------------------------------------------------------------------

class TxError(LocusError):
    """Base class for transaction failures."""


class TxAborted(TxError):
    """The transaction (or an ancestor) was aborted."""

    def __init__(self, tid: int, reason: str = ""):
        super().__init__(f"transaction {tid} aborted: {reason}" if reason
                         else f"transaction {tid} aborted")
        self.tid = tid
        self.reason = reason
