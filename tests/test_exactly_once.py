"""Exactly-once mutating syscalls: idempotency ledger, duplicate
suppression, and write-path failover.

The supervision layer retries stalled calls (section 5.6's network error
handling), which makes delivery at-least-once.  For mutating operations
— commit, create, open/close bookkeeping — the executing site keeps a
per-client idempotency ledger so a duplicate request *replays* the
memoized reply instead of re-executing.  The durable flavour lives on
the Pack (the disk model), so replies for ``fs.commit`` and
``fs.create_file`` survive an SS crash exactly like committed blocks do.

These tests pin the ledger unit semantics, the duplicate paths end to
end (lost reply, crash + restart, piggybacked ack eviction), the
late-reply discard in ``supervised_rpc``, the write-path failover that
re-homes an open-for-write to a surviving replica, and the conflict
window retired by ``EWOULDCONFLICT``.
"""

from __future__ import annotations

import pytest

from repro import LocusCluster, Mode
from repro.config import CostModel
from repro.errors import EBADF, NetworkError
from repro.fs.ledger import IdempotencyLedger
from repro.fs.types import ROOT_GFS
from repro.net.message import MsgKind
from repro.tools import fsck


# ---------------------------------------------------------------------------
# Ledger unit semantics.
# ---------------------------------------------------------------------------

class TestIdempotencyLedger:
    def test_duplicate_replays_memoized_reply(self):
        led = IdempotencyLedger(window=4)
        assert led.begin(1, 0) == ("new", None)
        led.commit(1, 0, "reply")
        assert led.begin(1, 0) == ("done", "reply")
        assert led.replays == 1

    def test_abort_lets_the_retry_re_execute(self):
        led = IdempotencyLedger(window=4)
        assert led.begin(1, 0) == ("new", None)
        led.abort(1, 0)
        assert led.begin(1, 0) == ("new", None)

    def test_inflight_duplicate_waits_not_races(self):
        led = IdempotencyLedger(window=4)
        led.begin(1, 0)
        fut = object()
        led.set_running(1, 0, fut)
        state, waiter = led.begin(1, 0)
        assert state == "running" and waiter is fut

    def test_a_duplicate_arriving_mid_execution_waits_and_replays(self):
        """Through a registered handler: the duplicate of a stamped request
        still executing waits for it, then replays its reply; the body
        runs once."""
        cluster = LocusCluster(n_sites=2, seed=3)
        site, led, runs = cluster.site(1), IdempotencyLedger(window=4), []

        def slow(src, p):
            runs.append(cluster.sim.now)
            yield 10.0
            return "applied"
        site.register_handler("t.slow", slow, ledger=lambda p: led)
        handler = site._handlers["t.slow"]
        calls = [cluster.spawn(1, handler(0, {"_stamp": (0, 7)}))
                 for __ in range(2)]
        cluster.settle()
        assert [c.result() for c in calls] == ["applied", "applied"]
        assert len(runs) == 1 and led.replays == 1

    def test_entries_survive_until_client_acks(self):
        """Eviction is ack-driven: an un-acked entry stays (its reply may
        still be retried); ``ack`` retires everything at or below it."""
        led = IdempotencyLedger(window=8)
        for seq in range(4):
            led.begin(1, seq)
            led.commit(1, seq, f"r{seq}")
        assert sorted(led.entries()) == [(1, s) for s in range(4)]
        led.ack(1, 2)
        assert sorted(led.entries()) == [(1, 3)]
        assert led.begin(1, 3) == ("done", "r3")
        assert led.evictions == 3

    def test_window_cap_is_an_oldest_first_backstop(self):
        led = IdempotencyLedger(window=3)
        for seq in range(5):
            led.begin(7, seq)
            led.commit(7, seq, seq)
        assert sorted(led.entries()) == [(7, 2), (7, 3), (7, 4)]
        assert led.evictions == 2

    def test_ack_never_moves_backwards(self):
        led = IdempotencyLedger(window=8)
        led.ack(1, 5)
        led.ack(1, 3)               # stale ack, ignored
        led.begin(1, 6)
        led.commit(1, 6, "kept")
        assert led.begin(1, 6) == ("done", "kept")

    def test_reset_running_drops_only_inflight_markers(self):
        led = IdempotencyLedger(window=8)
        led.begin(1, 0)
        led.commit(1, 0, "durable")
        led.begin(1, 1)
        led.set_running(1, 1, object())
        led.reset_running()
        assert led.begin(1, 0) == ("done", "durable")
        assert led.begin(1, 1) == ("new", None)     # crash killed the run


# ---------------------------------------------------------------------------
# Wire-format parity: header slots must not perturb virtual time.
# ---------------------------------------------------------------------------

def test_stamp_header_slots_are_wire_size_free():
    from repro.net.message import payload_size
    bare = {"gfile": (0, 3), "pages_sent": 2}
    stamped = dict(bare, _stamp=(0, 11), _ack=9)
    assert payload_size(stamped) == payload_size(bare)


# ---------------------------------------------------------------------------
# supervised_rpc: a late reply from a timed-out attempt is discarded.
# ---------------------------------------------------------------------------

class TestLateReplyDiscard:
    def test_late_original_reply_is_discarded_by_attempt_tag(self):
        cluster = LocusCluster(n_sites=2, seed=61)
        calls = []

        def handler(src, payload):
            calls.append(src)
            if len(calls) == 1:
                yield 1000.0        # beyond RPC_TIMEOUT; reply arrives late
            return "pong"
            yield                   # pragma: no cover

        cluster.sites[1].register_handler("t.slow", handler)
        result = cluster.call(0, cluster.sites[0].supervised_rpc(1, "t.slow"))
        assert result == "pong"
        assert len(calls) == 2      # timeout + retry both executed
        # Run past the slow attempt's completion: its reply lands on a
        # request id nobody is waiting for and must be dropped, not
        # crash or re-resolve the already-returned call.
        cluster.sim.run(until=cluster.sim.now + 2000.0)
        discarded = cluster.sites[0].metrics.counters[
            "rpc.late_replies_discarded"]
        assert discarded >= 1


# ---------------------------------------------------------------------------
# End-to-end duplicate suppression on the commit path.
# ---------------------------------------------------------------------------

def _drop_next_response(net, mtype):
    """Lose the next ``mtype`` *reply*, closing the circuit: the operation
    applied remotely but the caller cannot know — the ambiguous case the
    ledger exists for."""
    orig_send = net.send
    state = {"dropped": 0}

    def send(src, dst, msg):
        if (msg.mtype == mtype and msg.kind is MsgKind.RESPONSE
                and not state["dropped"]):
            state["dropped"] += 1
            net.stats.sent[msg.stat_key()] += 1
            net.stats.bytes_sent[msg.stat_key()] += msg.size
            net.stats.dropped += 1
            net._close_circuit(frozenset((src, dst)), "message lost")
            return
        orig_send(src, dst, msg)

    net.send = send
    return state


def _write_cluster(seed=31, root_pack_sites=(1,), n_sites=2):
    cluster = LocusCluster(n_sites=n_sites, seed=seed,
                           root_pack_sites=list(root_pack_sites))
    sh0 = cluster.shell(0)
    if len(root_pack_sites) > 1:
        sh0.setcopies(len(root_pack_sites))
    sh0.write_file("/w", b"seed" * 64)
    cluster.settle()
    ino = sh0.stat("/w")["ino"]
    return cluster, (ROOT_GFS, ino)


class TestCommitReplay:
    def test_lost_commit_reply_replays_not_reapplies(self):
        """The commit applies, the reply is lost, the supervised retry
        arrives with the same stamp: the SS answers from the ledger and
        the version vector moves exactly once."""
        cluster, gfile = _write_cluster()
        fs0 = cluster.site(0).fs
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.WRITE))
        v_before = handle.attrs["version"]
        cluster.call(0, fs0.write(handle, 0, b"X" * 1024))
        state = _drop_next_response(cluster.net, "fs.commit")
        cluster.call(0, fs0.commit(handle))
        cluster.call(0, fs0.close(handle))
        cluster.settle()
        assert state["dropped"] == 1, "fault never fired"
        pack = cluster.site(1).packs[ROOT_GFS]
        assert pack.ledger is not None and pack.ledger.replays >= 1
        stamped = [k for k in pack.applied_ops if k[0] == 0]
        assert stamped and all(pack.applied_ops[k] == 1 for k in stamped)
        # Exactly one version bump despite two deliveries.
        assert pack.inodes[gfile[1]].version == v_before.bump(1)
        assert cluster.shell(0).read_file("/w")[:8] == b"XXXXXXXX"
        assert fsck(cluster).clean

    def test_ledger_survives_ss_crash_and_restart(self):
        """The durable flavour: a duplicate arriving after the SS rebooted
        still replays — the memoized reply lives on the pack, not in
        volatile open state."""
        cluster, gfile = _write_cluster(seed=32)
        fs0 = cluster.site(0).fs
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.WRITE))
        cluster.call(0, fs0.write(handle, 0, b"Y" * 512))
        cluster.call(0, fs0.commit(handle))
        cluster.call(0, fs0.close(handle))
        cluster.settle()
        pack = cluster.site(1).packs[ROOT_GFS]
        # Client 0 stamped several mutating ops during setup (creates and
        # commits); the highest sequence is the commit just issued.
        stamp = max((k for k in pack.applied_ops if k[0] == 0),
                    key=lambda k: k[1])
        recorded = pack.ledger.begin(*stamp)[1]

        cluster.fail_site(1)
        cluster.restart_site(1)
        # The exactly-once wrapper sits on the registered handler, so the
        # duplicates arrive the way a message does: through the dispatcher.
        site1 = cluster.site(1)

        # Same stamp after reboot: replay, no EBADF, no second apply —
        # even though every SsOpen died with the crash.
        vv = cluster.call(1, site1._dispatch(
            "fs.commit", 0, {"gfile": gfile, "_stamp": list(stamp)}))
        assert vv == recorded
        assert pack.applied_ops[stamp] == 1
        # A genuinely new op against the closed file still fails.
        with pytest.raises(EBADF):
            cluster.call(1, site1._dispatch(
                "fs.commit", 0, {"gfile": gfile, "_stamp": [0, 9999]}))

    def test_piggybacked_ack_evicts_retired_entries(self):
        """Every stamped request carries the client's completion floor;
        entries at or below it are garbage collected at the server."""
        cluster, gfile = _write_cluster(seed=33)
        fs0 = cluster.site(0).fs
        site1 = cluster.site(1)
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.WRITE))
        cluster.call(1, site1._dispatch(
            "fs.commit", 0, {"gfile": gfile, "_stamp": [9, 3]}))
        pack = cluster.site(1).packs[ROOT_GFS]
        assert (9, 3) in list(pack.ledger.entries())
        cluster.call(1, site1._dispatch(
            "fs.commit", 0, {"gfile": gfile, "_stamp": [9, 5], "_ack": 3}))
        entries = list(pack.ledger.entries())
        assert (9, 3) not in entries        # acked away
        assert (9, 5) in entries            # still awaiting its ack
        cluster.call(0, fs0.abort(handle))
        cluster.call(0, fs0.close(handle))


# ---------------------------------------------------------------------------
# Write-path failover: an open-for-write re-homes to a surviving replica.
# ---------------------------------------------------------------------------

class TestWriteFailover:
    def test_open_for_write_rehomes_after_ss_crash(self):
        """The SS dies with pages staged but uncommitted: cleanup re-homes
        the descriptor to the other pack copy, the staged pages are
        replayed there, and the commit lands normally."""
        cluster, gfile = _write_cluster(seed=34, root_pack_sites=(1, 2),
                                        n_sites=3)
        fs0 = cluster.site(0).fs
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.WRITE))
        first_ss = handle.ss_site
        new = b"F" * 2048
        cluster.call(0, fs0.write(handle, 0, new))
        cluster.fail_site(first_ss)
        assert not handle.closed
        survivor = handle.ss_site
        assert survivor != first_ss
        cluster.call(0, fs0.commit(handle))
        cluster.call(0, fs0.close(handle))
        cluster.restart_site(first_ss)
        cluster.settle()
        assert cluster.shell(0).read_file("/w") == new
        assert cluster.site(0).metrics.counters["fs.write_failovers"] >= 1
        assert fsck(cluster).clean

    def test_rehome_fails_closed_when_no_copy_survives(self):
        """Single-copy file: the paper's failure action still applies —
        error in the descriptor, old content intact."""
        cluster, gfile = _write_cluster(seed=36, root_pack_sites=(1,),
                                        n_sites=2)
        fs0 = cluster.site(0).fs
        handle = cluster.call(0, fs0.open_gfile(gfile, Mode.WRITE))
        cluster.call(0, fs0.write(handle, 0, b"Q" * 1024))
        cluster.fail_site(1)
        cluster.settle()
        assert handle.closed
        assert "lost" in handle.attrs.get("error", "")
        cluster.restart_site(1)
        cluster.settle()
        assert cluster.shell(0).read_file("/w") == b"seed" * 64

    def test_flag_off_write_still_dies_with_its_ss(self):
        """With supervision off, the paper's failure action stands: the
        descriptor errors out and the partial write is discarded."""
        cost = CostModel().with_overrides(supervise_remote_ops=False)
        cluster = LocusCluster(n_sites=3, seed=35, root_pack_sites=[1, 2],
                               cost=cost)
        sh0 = cluster.shell(0)
        sh0.setcopies(2)
        sh0.write_file("/w", b"old" * 100)
        cluster.settle()
        ino = sh0.stat("/w")["ino"]
        fs0 = cluster.site(0).fs
        handle = cluster.call(
            0, fs0.open_gfile((ROOT_GFS, ino), Mode.WRITE))
        cluster.call(0, fs0.write(handle, 0, b"Z" * 1024))
        cluster.fail_site(handle.ss_site)
        cluster.settle()
        assert handle.closed
        assert cluster.shell(0).read_file("/w") == b"old" * 100
