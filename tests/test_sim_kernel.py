"""Simulator kernel: determinism pin, parity with the reference kernel,
tombstone accounting, and scheduling edge cases.

Whatever the production kernel does for speed (tuple heap entries, the
ready deque, recycled ``call_soon`` handles, tombstone compaction) must be
invisible in virtual time: these tests pin the schedule against committed
golden values and against the original kernel
(``repro.sim.legacy.LegacySimulator``), which is kept verbatim as the
reference.
"""

import hashlib
import itertools
import random

import pytest

from repro import LocusCluster, Mode
from repro.config import ClusterConfig, CostModel
from repro.sim import Simulator
from repro.sim.legacy import LegacySimulator
from repro.tools.inspect import cluster_report

KERNELS = [Simulator, LegacySimulator]


# -- determinism pin -------------------------------------------------------

# Golden observables for the pinned storm below, committed once from the
# pre-overhaul kernel.  Any change to these numbers is a schedule change
# and must be treated as a correctness regression, not re-pinned casually.
# The flight recorder always records, so the pin also proves recording
# never moves virtual time, event count or message count.  Re-pinned once
# when propagation pulls stopped sending ``fs.pull_open`` (the commit
# notify vouches for the source): four open round trips fewer, 1,330 ->
# 1,322 messages and 6,772 -> 6,736 events; the clock and the file-system
# digest are unchanged.
GOLDEN = {
    "vtime": 1271.635,
    "events": 6736,
    "messages": 1322,
    "fs_digest": "aedb8966164c528c",
}


def _pin_storm(sim_kernel="fast"):
    """A small seeded multi-site storm touching RPC, timers, watchdogs and
    the filesystem — every scheduling primitive the kernels implement."""
    cfg = ClusterConfig(
        n_sites=4, seed=1983, root_pack_sites=[0, 1], sim_kernel=sim_kernel)
    cluster = LocusCluster(config=cfg)
    sim = cluster.sim
    sites = cluster.sites

    def ping(src, payload):
        yield from sites[payload["dst"]].cpu(0.2)
        return payload["n"] * 2

    for site in sites:
        site.register_handler("pin.ping", ping)
        cluster.shell(site.site_id).write_file(
            f"/pin-{site.site_id}", bytes([site.site_id]) * 48)
    cluster.settle()

    def chatter(site, lane):
        me = site.site_id
        for n in range(6):
            yield 20.0 + sim.rng.random() * 10.0
            peer = (me + lane + n) % len(sites)
            if peer == me:
                peer = (peer + 1) % len(sites)
            watchdog = sim.schedule(500.0, lambda: None)
            resp = yield from site.rpc(peer, "pin.ping",
                                       {"n": n, "dst": peer})
            watchdog.cancel()
            assert resp == n * 2

    for site in sites:
        for lane in range(25):
            cluster.spawn(site, chatter(site, lane))
    cluster.settle()

    digest = hashlib.sha256(b"".join(
        cluster.shell(s.site_id).read_file(f"/pin-{s.site_id}")
        for s in sites)).hexdigest()[:16]
    return {
        "vtime": round(sim.now, 3),
        "events": sim.events_processed,
        "messages": cluster.stats.total_messages,
        "fs_digest": digest,
    }


class TestDeterminismPin:

    def test_fast_matches_golden(self):
        assert _pin_storm("fast") == GOLDEN

    def test_legacy_heap_matches_golden(self):
        assert _pin_storm("reference") == GOLDEN


# -- kernel parity under randomized scheduling -----------------------------

def _chaos_schedule(simcls, seed):
    """Drive one kernel through a randomized storm of every scheduling
    primitive and return the full fire log (order is the contract)."""
    sim = simcls(seed=seed)
    log = []
    handles = {}
    rng = sim.rng

    def fire(tag):
        log.append((round(sim.now, 9), tag))
        r = rng.random()
        if r < 0.30:
            # Mixed magnitudes: same instant, near and far future.
            delay = rng.choice([0.0, 0.1, 3.0, 250.0, 9e4])
            handles[tag] = sim.schedule(delay, fire, f"{tag}.s")
        elif r < 0.45:
            sim.call_soon(fire, f"{tag}.c")
        elif r < 0.55 and handles:
            victim = rng.choice(sorted(handles))
            handles.pop(victim).cancel()

    def sleeper(ident):
        for n in range(4):
            yield rng.random() * 40.0
            log.append((round(sim.now, 9), f"t{ident}.{n}"))

    for i in range(40):
        sim.schedule(rng.random() * 100.0, fire, f"e{i}")
    for i in range(20):
        sim.spawn(sleeper(i), name=f"s{i}")
    # Sliced horizons: run(until=...) must stop and restart cleanly.
    for horizon in (10.0, 10.0, 137.5, 9e4, None):
        sim.run(until=horizon)
    return log, sim.events_processed, sim._seq, sim.now


@pytest.mark.parametrize("seed", [7, 19, 1983])
def test_chaos_fire_order_parity(seed):
    new = _chaos_schedule(Simulator, seed)
    old = _chaos_schedule(LegacySimulator, seed)
    assert new == old


# -- differential property test --------------------------------------------

def _random_program(simcls, seed):
    """Run one seeded random program over every public scheduling primitive
    in slices; return the fire log and a snapshot of the kernel's
    observable state after every slice.

    The program draws its choices from its own RNG *as it runs*, so any
    difference in fire order between two kernels also changes what the
    program does next: a divergence cannot cancel out."""
    sim = simcls(seed=seed)
    rng = random.Random(seed)
    log = []
    handles = {}          # schedule() handles, kept past firing: late cancel
    soon = {}             # call_soon() handles, dropped when they fire
    futures = []          # futures some task may be blocked on
    tasks = []
    ids = itertools.count(1)

    def delay():
        r = rng.random()
        if r < 0.2:
            return 0.0
        if r < 0.55:
            return rng.random() * 4.0
        if r < 0.9:
            return rng.random() * 300.0
        return rng.uniform(1e5, 5e6)

    def act():
        n = next(ids)
        r = rng.random()
        if r < 0.22:
            handles[n] = sim.schedule(delay(), fire, n)
        elif r < 0.36:
            soon[n] = sim.call_soon(fire_soon, n)
        elif r < 0.46 and handles:
            handles[rng.choice(sorted(handles))].cancel()
        elif r < 0.52 and soon:
            soon.pop(rng.choice(sorted(soon))).cancel()
        elif r < 0.62:
            tasks.append(sim.spawn(worker(n, 2), name=f"w{n}"))
        elif r < 0.72:
            fut = sim.create_future(f"f{n}")
            futures.append(fut)
            sim.spawn(waiter(n, sim.with_timeout(fut, delay())))
        elif r < 0.84 and futures:
            futures.pop(rng.randrange(len(futures))).resolve(n)
        elif r < 0.88 and tasks:
            tasks.pop(rng.randrange(len(tasks))).cancel()

    def fire(n):
        log.append((sim.now, "fire", n))
        act()

    def fire_soon(n):
        del soon[n]
        log.append((sim.now, "soon", n))
        act()

    def worker(n, depth):
        for i in range(rng.randrange(1, 4)):
            r = rng.random()
            if r < 0.5:
                yield delay()
            elif r < 0.65:
                yield rng.randrange(0, 3)          # int delays
            elif r < 0.75:
                yield                              # bare yield
            elif r < 0.9 or not depth:
                fut = sim.create_future(f"w{n}.{i}")
                futures.append(fut)
                got = yield fut
                log.append((sim.now, "got", n, got))
            else:
                child = sim.spawn(worker(next(ids), depth - 1))
                yield child                        # join
            log.append((sim.now, "work", n, i))
            act()

    def waiter(n, fut):
        try:
            got = yield fut
        except Exception as exc:
            got = type(exc).__name__
        log.append((sim.now, "wait", n, got))

    snapshots = []

    def snap():
        snapshots.append((len(log), sim.now, sim.events_processed, sim._seq,
                          sim.pending()))

    for _ in range(12):
        act()
    for _ in range(14):
        r = rng.random()
        if r < 0.35:
            sim.run(max_events=rng.randrange(0, 25))
        elif r < 0.7:
            sim.run(until=sim.now + delay())
        elif r < 0.85:
            sim.run(until=sim.now + delay(), max_events=rng.randrange(1, 25))
        else:
            for _ in range(rng.randrange(1, 6)):
                sim.step()
        snap()
        act()
    for fut in futures:                            # unblock, then drain
        fut.resolve(None)
    sim.run()
    snap()
    return log, snapshots


def test_differential_random_programs():
    """The production kernel and the reference agree on fire order, clock,
    event count, seq allocation and pending() after every slice of 250
    random programs."""
    events = 0
    for seed in range(250):
        new = _random_program(Simulator, seed)
        old = _random_program(LegacySimulator, seed)
        assert new == old, f"seed {seed}"
        events += new[1][-1][2]
    assert events > 20_000                         # the programs do run


# -- run(max_events=...) accounting ----------------------------------------

class TestMaxEvents:

    @pytest.mark.parametrize("simcls", KERNELS)
    def test_budget_charges_processed_events_only(self, simcls):
        """Tombstone discards must not consume the event budget."""
        sim = simcls(seed=0)
        fired = []
        for i in range(1, 21):
            ev = sim.schedule(float(i), fired.append, i)
            if i % 2 == 0:
                ev.cancel()               # tombstones interleave the storm
        sim.run(max_events=5)
        assert fired == [1, 3, 5, 7, 9]
        assert sim.events_processed == 5
        sim.run(max_events=5)
        assert fired == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]

    @pytest.mark.parametrize("simcls", KERNELS)
    def test_budget_with_until(self, simcls):
        sim = simcls(seed=0)
        fired = []
        for i in range(1, 11):
            sim.schedule(float(i), fired.append, i)
        sim.run(until=100.0, max_events=3)
        assert fired == [1, 2, 3]
        sim.run(until=100.0)
        assert len(fired) == 10 and sim.now == 100.0


# -- pending() -------------------------------------------------------------

class TestPending:

    @pytest.mark.parametrize("simcls", KERNELS)
    def test_pending_excludes_tombstones(self, simcls):
        sim = simcls(seed=0)
        live = [sim.schedule(1.0 + i, lambda: None) for i in range(3)]
        dead = [sim.schedule(2.5 + i, lambda: None) for i in range(4)]
        far = [sim.schedule(1e6 + i, lambda: None) for i in range(3)]
        ready = [sim.call_soon(lambda: None) for i in range(2)]
        for ev in dead:
            ev.cancel()
        far[0].cancel()
        ready[0].cancel()
        assert sim.pending() == 3 + 2 + 1
        assert "queued=6" in repr(sim)

    def test_inspect_and_gauges_report_live_count(self):
        cluster = LocusCluster(n_sites=2, seed=5)
        sim = cluster.sim
        base = sim.pending()               # the cluster's own timers
        for i in range(5):
            ev = sim.schedule(50.0 + i, lambda: None)
            if i < 4:
                ev.cancel()
        report = cluster_report(cluster)
        assert report["events_pending"] == sim.pending() == base + 1
        assert report["events_processed"] == sim.events_processed


# -- scheduling edge cases -------------------------------------------------

class TestScheduleEdges:

    def test_mass_cancel_fires_survivors_in_order(self):
        """A watchdog storm cancelling most of what it armed must still
        fire the survivors in exact time order (the compaction path)."""
        sim = Simulator(seed=0)
        fired = []
        handles = [sim.schedule(10.0 + i * 0.01, fired.append, i)
                   for i in range(20000)]
        for i, h in enumerate(handles):
            if i % 10:
                h.cancel()
        sim.run()
        assert fired == list(range(0, 20000, 10))
        assert sim.pending() == 0
        assert sim._discards == 0          # the sweep really ran

    def test_far_future_entries_fire_in_order(self):
        """Delays spanning several orders of magnitude, scheduled out of
        order, come back sorted and leave the clock at the last one."""
        sim = Simulator(seed=0)
        fired = []
        times = [9e5, 1e5, 5e6, 2e4, 3e6, 2e4 + 0.5]
        for t in times:
            sim.schedule(t, fired.append, t)
        sim.run()
        assert fired == sorted(times)
        assert sim.now == max(times)

    def test_run_until_advances_idle_clock(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(100.0, fired.append, 1)
        sim.run(until=40.0)
        assert fired == [] and sim.now == 40.0
        sim.run(until=100.0)
        assert fired == [1] and sim.now == 100.0

    def test_short_delay_after_mass_cancel(self):
        """After a mass cancel compacts a far-future population, an entry
        scheduled ahead of all of it must still fire first."""
        sim = Simulator(seed=0)
        fired = []
        handles = [sim.schedule(5000.0 + i * 0.01, fired.append, i)
                   for i in range(8000)]
        for i, h in enumerate(handles):
            if i % 8:
                h.cancel()                 # enough discards to compact
        sim.schedule(4000.0, fired.append, "probe")
        sim.run(until=4500.0)
        assert fired == ["probe"]
        sim.run()
        assert fired[1:] == list(range(0, 8000, 8))

    def test_cancelled_call_soon_never_fires(self):
        sim = Simulator(seed=0)
        fired = []
        keep = sim.call_soon(fired.append, "keep")
        drop = sim.call_soon(fired.append, "drop")
        drop.cancel()
        drop.cancel()                      # cancel is idempotent
        sim.run()
        assert fired == ["keep"]
        assert keep.cancelled is False


# -- negative delays -------------------------------------------------------

class TestNegativeDelay:

    @pytest.mark.parametrize("simcls", KERNELS)
    @pytest.mark.parametrize("bad_delay", [-4.0, -1])
    def test_negative_yield_fails_the_task_not_the_clock(self, simcls,
                                                         bad_delay):
        """``yield -4.0`` must not resume the task in the past: the task
        gets a ValueError, the clock stays monotone, others keep going."""
        sim = simcls(seed=0)
        clock = []

        def offender():
            yield 10.0
            clock.append(sim.now)
            yield bad_delay
            clock.append(sim.now)                  # never reached

        def bystander():
            for _ in range(4):
                yield 4.0
                clock.append(sim.now)

        bad = sim.spawn(offender())
        good = sim.spawn(bystander())
        sim.run()
        assert isinstance(bad.done.exception(), ValueError)
        assert "negative delay" in str(bad.done.exception())
        assert clock == [4.0, 8.0, 10.0, 12.0, 16.0]
        assert good.finished and sim.now == 16.0

    @pytest.mark.parametrize("simcls", KERNELS)
    def test_negative_yield_after_a_caught_failure(self, simcls):
        """Same rule on the resume-by-throw path, and the task may catch
        the ValueError and carry on."""
        sim = simcls(seed=0)
        fut = sim.create_future("doomed")
        sim.schedule(3.0, fut.fail, RuntimeError("boom"))

        def task():
            try:
                yield fut
            except RuntimeError:
                try:
                    yield -2.0
                except ValueError:
                    yield 1.0
            return sim.now

        assert sim.run_task(task()) == 4.0


# -- adaptive readahead ----------------------------------------------------

def _scan_cluster(readahead_max, batch_pages=1):
    cost = CostModel().with_overrides(
        readahead_max=readahead_max, batch_pages=batch_pages)
    cluster = LocusCluster(n_sites=2, seed=11, root_pack_sites=[1],
                           cost=cost)
    sh1 = cluster.shell(1)
    sh1.write_file("/big", bytes(24 * 1024))     # 24 pages, stored at 1
    cluster.settle()
    return cluster


def _read_pages(cluster, pages):
    """Read 1 byte from each listed page of /big at site 0 (remote)."""
    from repro.net.stats import StatsWindow
    site = cluster.site(0)
    sh = cluster.shell(0)
    attrs = sh.stat("/big")
    handle = cluster.call(0, site.fs.open_gfile((0, attrs["ino"]),
                                                Mode.READ))
    win = StatsWindow(cluster.stats)
    t0 = cluster.sim.now
    for p in pages:
        data = cluster.call(0, site.fs.read(handle, p * 1024, 1))
        assert len(data) == 1
    cluster.settle()
    snap = win.close()
    reads = sum(v for k, v in snap.sent.items()
                if k in ("fs.read_page", "fs.read_pages"))
    run_len = handle.run_len
    cluster.call(0, site.fs.close(handle))
    return reads, cluster.sim.now - t0, run_len


class TestAdaptiveReadahead:

    def test_sequential_scan_grows_window_to_cap(self):
        """The observed run length widens the window up to readahead_max;
        with page batching that turns into fewer, larger read messages."""
        seq = list(range(24))
        reads_flat, __, __ = _read_pages(_scan_cluster(1, batch_pages=8),
                                         seq)
        reads_adapt, __, run_len = _read_pages(
            _scan_cluster(8, batch_pages=8), seq)
        assert run_len == len(seq) - 1     # unbroken sequential run
        assert reads_adapt < reads_flat    # windows batched into messages
        # Streaming also shortens virtual time: the scan stalls once per
        # window instead of once per page.
        __, vtime_flat, __ = _read_pages(_scan_cluster(1), seq)
        __, vtime_adapt, __ = _read_pages(_scan_cluster(8), seq)
        assert vtime_adapt < vtime_flat

    def test_random_access_keeps_window_at_one(self):
        """Non-sequential access never grows a run, so the adaptive cap
        changes nothing: same messages with cap 8 as with cap 1."""
        random_pages = [0, 12, 3, 20, 7, 16, 1, 9, 22, 5]
        reads_flat, __, run_flat = _read_pages(_scan_cluster(1),
                                               random_pages)
        reads_adapt, __, run_adapt = _read_pages(_scan_cluster(8),
                                                 random_pages)
        assert run_flat == run_adapt == 0
        assert reads_adapt == reads_flat
