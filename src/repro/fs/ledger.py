"""Per-client idempotency ledger for exactly-once mutating syscalls.

The LOCUS paper's network error handling (section 5.6) retries stalled
operations, but only reads are naturally safe to replay: a ``commit``
whose reply was lost may or may not have applied, and blindly re-sending
it would bump the version vector (and re-run side effects) twice.  The
ledger closes that window.  Every mutating RPC carries a
``(client_id, op_seq)`` stamp; the executing site records the reply keyed
by the stamp, and a duplicate request — a supervised retry, or a replay
after write-path failover returns to the same site — is answered from the
record instead of re-executing.

Two deployment flavours share this class:

* **Durable** (storage site): one ledger per pack, living on the
  :class:`~repro.storage.pack.Pack` object.  Packs model the disk, so the
  memoized replies for ``fs.commit`` / ``fs.create_file`` survive an SS
  crash the same way committed blocks do — a retry arriving after restart
  still replays rather than double-applying.  In-flight markers are
  volatile and are dropped by ``reset_running()`` on crash.
* **Volatile** (CSS, and SS open-state ops): recreated empty by
  ``reset_volatile``.  Open/close bookkeeping dies with the site anyway,
  so durability would buy nothing; the ledger only has to absorb
  duplicate deliveries while the site is up.

Entries are garbage collected on two triggers: the client piggybacks the
highest op_seq below which **all** its operations completed (``_ack`` on
every stamped request), which retires everything at or below it; and a
bounded per-client window (``IdempotencyLedger.window``) caps memory as a
backstop, evicting oldest-first.  The window must be at least as large as
a client's maximum number of concurrently outstanding mutating ops —
LOCUS sites run a handful of kernel processes, so the default of 16 is
generous.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Tuple


class LedgerEntry:
    """One memoized reply; ``seq`` values at or below ``acked`` are gone."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


class IdempotencyLedger:
    """Bounded per-client map of ``op_seq -> memoized reply``.

    Only *successful* replies are memoized: a failed execution removes its
    in-flight marker so the retry re-executes (the error paths of the
    stamped operations either apply fully or not at all, so re-running
    after a deterministic failure is safe and lets transient failures
    heal).  A duplicate arriving while the first execution is still in
    flight waits on the recorded future rather than racing it.
    """

    def __init__(self, window: int = 16):
        self.window = max(1, int(window))
        # client -> OrderedDict[seq -> LedgerEntry], oldest first
        self._done: Dict[int, "OrderedDict[int, LedgerEntry]"] = {}
        # client -> {seq -> Future}; volatile even in the durable flavour
        self._running: Dict[int, Dict[int, Any]] = {}
        # client -> highest contiguously-acked seq (entries <= this are gone)
        self._acked: Dict[int, int] = {}
        self.replays = 0
        self.evictions = 0

    # -- lookup / record ------------------------------------------------

    def begin(self, client: int, seq: int) -> Tuple[str, Any]:
        """Classify a stamped request.

        Returns one of ``("done", memoized_reply)``,
        ``("running", future)`` — the caller should wait and re-check —
        or ``("new", None)``, in which case an in-flight marker now
        exists and the caller must call :meth:`commit` or :meth:`abort`.
        The future is created lazily by the caller via
        :meth:`set_running` because the ledger itself is sim-agnostic.
        """
        entry = self._done.get(client, {}).get(seq)
        if entry is not None:
            self.replays += 1
            return ("done", entry.value)
        fut = self._running.get(client, {}).get(seq)
        if fut is not None:
            return ("running", fut)
        return ("new", None)

    def set_running(self, client: int, seq: int, fut: Any) -> None:
        self._running.setdefault(client, {})[seq] = fut

    def commit(self, client: int, seq: int, value: Any) -> None:
        """Record a successful reply and wake any waiting duplicates."""
        fut = self._running.get(client, {}).pop(seq, None)
        done = self._done.setdefault(client, OrderedDict())
        done[seq] = LedgerEntry(value)
        while len(done) > self.window:
            done.popitem(last=False)
            self.evictions += 1
        if fut is not None and not fut.done:
            fut.resolve(None)

    def abort(self, client: int, seq: int) -> None:
        """Drop the in-flight marker after a failed execution."""
        fut = self._running.get(client, {}).pop(seq, None)
        if fut is not None and not fut.done:
            fut.resolve(None)

    # -- garbage collection ---------------------------------------------

    def ack(self, client: int, upto: int) -> None:
        """Client reports all its ops with seq <= upto completed.

        Eviction is driven by this acknowledgement, not by recording: an
        entry whose reply may still be retried (client has not confirmed
        completion) stays until the window cap forces it out.
        """
        if upto < 0:
            return
        prev = self._acked.get(client, -1)
        if upto <= prev:
            return
        self._acked[client] = upto
        done = self._done.get(client)
        if not done:
            return
        for seq in [s for s in done if s <= upto]:
            del done[seq]
            self.evictions += 1

    # -- lifecycle -------------------------------------------------------

    def reset_running(self) -> None:
        """Crash: in-flight markers are volatile even on a durable ledger."""
        self._running.clear()

    def entries(self):
        """Iterate ``(client, seq)`` of all memoized replies (for audits)."""
        for client, done in self._done.items():
            for seq in done:
                yield (client, seq)
