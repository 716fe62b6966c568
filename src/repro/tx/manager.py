"""The transaction manager: begin / open / commit / abort, nesting,
two-phase distributed commit, and partition abort."""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Generator, Optional, Set

from repro.errors import EINVAL, NetworkError, TxAborted
from repro.fs.types import Gfile, Mode


class TxState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One (possibly nested) transaction rooted at its coordinator site."""

    def __init__(self, manager: "TxManager", tid: int,
                 parent: Optional["Transaction"]):
        self.manager = manager
        self.tid = tid
        self.parent = parent
        self.children: Set[int] = set()
        self.state = TxState.ACTIVE
        # gfile -> open write UsHandle; holding the handle holds the CSS
        # writer lock, giving two-phase locking for free.
        self.handles: Dict[Gfile, object] = {}
        # Savepoints: staged content snapshotted before this transaction's
        # first write through an *inherited* (ancestor-owned) handle, so a
        # subtransaction abort rolls back only its own work.
        self.snapshots: Dict[Gfile, tuple] = {}
        if parent is not None:
            parent.children.add(tid)

    @property
    def depth(self) -> int:
        d, tx = 0, self.parent
        while tx is not None:
            d, tx = d + 1, tx.parent
        return d

    def involved_sites(self) -> Set[int]:
        return {h.ss_site for h in self.handles.values()}

    def check_active(self) -> None:
        if self.state is not TxState.ACTIVE:
            raise TxAborted(self.tid, f"transaction is {self.state.value}")


class TxManager:
    """Per-site transaction bookkeeping plus the 2PC handlers."""

    def __init__(self, site):
        self.site = site
        self.txs: Dict[int, Transaction] = {}
        self._seq = itertools.count(1)
        self.stats = {"begun": 0, "committed": 0, "aborted": 0,
                      "partition_aborts": 0}
        site.register_handler("tx.prepare", self.h_prepare)

    @property
    def sid(self) -> int:
        return self.site.site_id

    def reset_volatile(self) -> None:
        for tx in self.txs.values():
            tx.state = TxState.ABORTED
        self.txs.clear()

    def on_restart(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin(self, parent: Optional[Transaction] = None) -> Transaction:
        if parent is not None:
            parent.check_active()
        tid = self.sid * 1_000_000 + next(self._seq)
        tx = Transaction(self, tid, parent)
        self.txs[tid] = tx
        self.stats["begun"] += 1
        return tx

    def open(self, tx: Transaction, gfile: Gfile) -> Generator:
        """Open a file for modification inside the transaction.

        The open's CSS writer slot is the transaction's write lock; it is
        held until top-level commit or abort.
        """
        handle, __ = yield from self._open_with_owner(tx, gfile)
        return handle

    def _open_with_owner(self, tx: Transaction, gfile: Gfile) -> Generator:
        tx.check_active()
        handle = tx.handles.get(gfile)
        if handle is not None and not handle.closed:
            return handle, tx
        # Inherit an ancestor's open (nested transactions see parent state).
        ancestor = tx.parent
        while ancestor is not None:
            inherited = ancestor.handles.get(gfile)
            if inherited is not None and not inherited.closed:
                return inherited, ancestor
            ancestor = ancestor.parent
        handle = yield from self.site.fs.open_gfile(gfile, Mode.WRITE)
        tx.handles[gfile] = handle
        return handle, tx

    def write(self, tx: Transaction, gfile: Gfile, offset: int,
              data: bytes) -> Generator:
        tx.check_active()
        handle, owner = yield from self._open_with_owner(tx, gfile)
        if owner is not tx and gfile not in tx.snapshots:
            # Savepoint: remember the ancestor's staged content so aborting
            # this subtransaction restores exactly it.
            staged = yield from self.site.fs.read_all(handle)
            tx.snapshots[gfile] = (staged, owner)
        n = yield from self.site.fs.write(handle, offset, data)
        return n

    def read(self, tx: Transaction, gfile: Gfile, offset: int,
             nbytes: int) -> Generator:
        tx.check_active()
        handle = yield from self.open(tx, gfile)
        data = yield from self.site.fs.read(handle, offset, nbytes)
        return data

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(self, tx: Transaction) -> Generator:
        """Subtransaction commit folds staged work into the parent;
        top-level commit runs two-phase commit over the storage sites."""
        tx.check_active()
        if tx.children:
            active_children = [t for t in (self.txs.get(c)
                                           for c in tx.children)
                               if t is not None
                               and t.state is TxState.ACTIVE]
            if active_children:
                raise EINVAL(
                    f"transaction {tx.tid} has active subtransactions")
        if tx.parent is not None:
            tx.parent.check_active()
            for gfile, handle in tx.handles.items():
                if gfile not in tx.parent.handles:
                    tx.parent.handles[gfile] = handle
                elif handle is not tx.parent.handles[gfile]:
                    yield from self.site.fs.close(handle)
            tx.handles.clear()
            tx.snapshots.clear()   # the parent adopts the child's writes
            tx.state = TxState.COMMITTED
            self.stats["committed"] += 1
            return None
        # Top level: phase 1, every storage site must still be reachable and
        # holding the staged shadow state.
        for gfile, handle in tx.handles.items():
            if handle.closed:
                yield from self.abort(tx)
                raise TxAborted(tx.tid, f"handle for {gfile} was lost")
            try:
                ok = yield from self.site.rpc(handle.ss_site, "tx.prepare",
                                              {"gfile": gfile})
            except NetworkError:
                ok = False
            if not ok:
                yield from self.abort(tx)
                raise TxAborted(tx.tid,
                                f"storage site for {gfile} cannot prepare")
        # Phase 2: commit each file (the per-file commit is atomic at its
        # SS; an interleaved failure leaves that file committed and the
        # recovery system propagates it, matching [MEUL 83]'s model of
        # top-level actions surviving once phase 2 begins).
        for handle in tx.handles.values():
            yield from self.site.fs.commit(handle)
        for handle in tx.handles.values():
            yield from self.site.fs.close(handle)
        tx.handles.clear()
        tx.state = TxState.COMMITTED
        self.stats["committed"] += 1
        self.txs.pop(tx.tid, None)
        return None

    def h_prepare(self, src: int, p: dict) -> Generator:
        """Storage-site vote: is the staged state intact here?"""
        so = self.site.fs.ss.get(p["gfile"])
        yield from self.site.cpu(self.site.cost.buffer_hit)
        return so is not None

    # ------------------------------------------------------------------
    # Abort
    # ------------------------------------------------------------------

    def abort(self, tx: Transaction, reason: str = "") -> Generator:
        if tx.state is not TxState.ACTIVE:
            return None
        tx.state = TxState.ABORTED
        self.stats["aborted"] += 1
        # Abort subtransactions first (inside out).
        for child_tid in list(tx.children):
            child = self.txs.get(child_tid)
            if child is not None and child.state is TxState.ACTIVE:
                yield from self.abort(child, reason)
        # Restore savepoints: writes this (sub)transaction made through an
        # ancestor's handle are rolled back to the ancestor's staged state.
        for gfile, (staged, owner) in tx.snapshots.items():
            handle = owner.handles.get(gfile)
            if handle is None or handle.closed or \
                    owner.state is not TxState.ACTIVE:
                continue
            try:
                yield from self.site.fs.truncate(handle)
                if staged:
                    yield from self.site.fs.write(handle, 0, staged)
            except (NetworkError, Exception):  # noqa: BLE001
                pass
        tx.snapshots.clear()
        for handle in list(tx.handles.values()):
            if handle.closed:
                continue
            try:
                yield from self.site.fs.abort(handle)
            except (NetworkError, Exception):  # noqa: BLE001
                pass
            try:
                yield from self.site.fs.close(handle)
            except Exception:  # noqa: BLE001
                pass
        tx.handles.clear()
        self.txs.pop(tx.tid, None)
        return None

    # ------------------------------------------------------------------
    # Partition handling: "abort all related subtransactions in partition"
    # ------------------------------------------------------------------

    def on_partition_change(self, lost: Set[int]) -> Generator:
        for tx in list(self.txs.values()):
            if tx.state is not TxState.ACTIVE:
                continue
            if tx.involved_sites() & lost:
                self.stats["partition_aborts"] += 1
                yield from self.abort(
                    tx, reason=f"sites {sorted(lost)} left the partition")
        return None
