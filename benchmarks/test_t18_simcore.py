"""T18 — simulator-core throughput: the production kernel ("fast") vs the
original kernel kept as the reference, on the same million-event storm.

Unlike T1–T17, the reproduced quantity here is *wall-clock* events/sec:
the virtual-time results must be byte-identical between kernels (that is
asserted, not measured), and the benchmark records how much faster the
production kernel turns the same schedule.

Two workloads:

**Kernel storm** (raw scheduler primitives, no cluster) — three phases
built to exercise every structure the production kernel has:

1. *Arm flood*: a large population of long-horizon maintenance timers
   (lease expiries, retransmit watchdogs) plus heartbeat tasks.  These sit
   pending through the whole storm — the backdrop that makes every
   reference-kernel heap operation pay a deep Python-level ``__lt__`` sift.
2. *Cascade storm*: chains of zero-delay ``call_soon`` wakeups re-armed
   every virtual second — the RPC-completion shape that dominates protocol
   runs.  The fast kernel rides the ready deque with recycled events;
   the reference pays a full-depth sift against the armed backdrop for
   every single event.
3. *Expiry flood*: most watchdogs are cancelled (their operations
   completed), the rest expire.  The reference heappops every tombstone
   individually; the fast kernel compacts them in one linear sweep.

**Cluster storm** (12 sites, RPC chatter + heartbeats + filesystem
traffic) — the end-to-end sanity check: message counts, per-site cpu and
the filesystem digest must match across kernels exactly, with tracing on
or off.

Run ``python benchmarks/test_t18_simcore.py`` to regenerate
BENCH_simcore.json (full scale, several minutes on the reference side;
the ``parent_calendar`` block in that file is PR 15's record of the
calendar-queue kernel this one replaced and is carried over by hand).
The pytest entry points run a reduced scale.
"""

import gc
import hashlib
import json
import sys
import time

import pytest

from repro import LocusCluster
from repro.config import ClusterConfig
from repro.sim.legacy import LegacySimulator
from repro.sim.simulator import Simulator
from _harness import Measure, print_table, run_experiment

# Full-scale storm (BENCH_simcore.json, __main__ only).
FULL = dict(n_timers=1_500_000, n_tasks=2000, n_chains=40, links=500,
            t_storm=50.0, stride=10)
# Reduced scale for the pytest smoke/parity runs.
SMOKE = dict(n_timers=150_000, n_tasks=500, n_chains=40, links=100,
             t_storm=25.0, stride=10)
TINY = dict(n_timers=20_000, n_tasks=200, n_chains=20, links=50,
            t_storm=10.0, stride=10)

N_SITES = 12
TASKS_PER_SITE = 250
ROUNDS = 12
HEARTBEATS = 400


# -- kernel storm ----------------------------------------------------------

def _lease_expire(ledger):
    ledger[0] += 1


class _Chain:
    """A debounced wakeup chain: every link is a zero-delay call_soon pair
    (the work item and its flush), the shape of an RPC completion burst."""

    __slots__ = ("sim", "left", "fired")

    def __init__(self, sim):
        self.sim = sim
        self.left = 0
        self.fired = 0

    def fire(self):
        self.fired += 1
        sim = self.sim
        sim.call_soon(self.flush)
        left = self.left
        if left:
            self.left = left - 1
            sim.call_soon(self.fire)

    def flush(self):
        pass


def _heartbeat(sim, ident, period):
    while True:
        yield period + (ident % 977) * 0.001


def _pacer(sim, chains, links, t_storm):
    while sim.now < t_storm:
        for c in chains:
            c.left = links
            sim.call_soon(c.fire)
        yield 1.0


def _supervisor(sim, handles, t_storm, stride):
    # Operations completed: cancel their watchdogs.  Every stride-th one
    # "times out" and is left to fire in the expiry flood.
    yield t_storm
    for i, h in enumerate(handles):
        if i % stride:
            h.cancel()


def run_kernel_storm(simcls, n_timers, n_tasks, n_chains, links,
                     t_storm, stride, seed=18):
    """Build and run the three-phase storm on a bare simulator; return
    deterministic observables plus wall-clock throughput."""
    sim = simcls(seed=seed)
    ledger = [0]
    handles = []
    ap = handles.append
    for i in range(n_timers):
        ap(sim.schedule(3600.0 + (i % 9973) * 0.01, _lease_expire, ledger))
    for i in range(n_tasks):
        sim.spawn(_heartbeat(sim, i, 3600.0), name=f"hb{i}")
    chains = [_Chain(sim) for _ in range(n_chains)]
    sim.spawn(_pacer(sim, chains, links, t_storm), name="pacer")
    sim.spawn(_supervisor(sim, handles, t_storm, stride), name="sup")
    # The measured window isolates kernel cost: the collector would
    # otherwise charge whichever kernel happens to cross a GC threshold
    # mid-run for the whole population walk (see EXPERIMENTS.md).
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        sim.run(until=3750.0)
        wall = time.perf_counter() - t0
    finally:
        gc.enable()
    return {
        "kernel": "reference" if simcls is LegacySimulator else "fast",
        "events": sim.events_processed,
        "seq": sim._seq,
        "vtime": sim.now,
        "expired": ledger[0],
        "chain_fires": sum(c.fired for c in chains),
        "pending_after": sim.pending(),
        "wall_s": round(wall, 4),
        "events_per_sec": round(sim.events_processed / wall, 1),
    }


_KERNEL_OBSERVABLES = ("events", "seq", "vtime", "expired", "chain_fires",
                       "pending_after")


# -- cluster storm ---------------------------------------------------------

def build_cluster(sim_kernel="fast", n_sites=N_SITES):
    cfg = ClusterConfig(
        n_sites=n_sites, seed=18, root_pack_sites=[0, 1],
        sim_kernel=sim_kernel)
    return LocusCluster(config=cfg)


def run_cluster_storm(cluster, tasks_per_site=TASKS_PER_SITE,
                      rounds=ROUNDS, heartbeats=HEARTBEATS):
    sim = cluster.sim
    sites = cluster.sites

    def ping_handler(src, payload):
        yield from sites[payload["dst"]].cpu(0.3)
        return {"n": payload["n"], "from": payload["dst"]}

    for site in sites:
        site.register_handler("t18.ping", ping_handler)

    # Real filesystem traffic so the post-state digest is meaningful.
    for site in sites:
        sh = cluster.shell(site.site_id)
        sh.write_file(f"/storm-{site.site_id}", bytes([site.site_id]) * 64)
    cluster.settle()

    n = len(sites)

    def chatter(site, lane):
        me = site.site_id
        for i in range(rounds):
            yield 50.0 + sim.rng.random() * 25.0
            peer = (me + lane + i) % n
            if peer == me:
                peer = (peer + 1) % n
            resp = yield from site.rpc(peer, "t18.ping",
                                       {"n": i, "dst": peer})
            assert resp["n"] == i

    def heartbeat(site):
        for _ in range(heartbeats):
            yield 7.0
            site.cpu_used += 0.01

    m = Measure(cluster)
    for site in sites:
        for lane in range(tasks_per_site):
            cluster.spawn(site, chatter(site, lane))
        cluster.spawn(site, heartbeat(site))
    cluster.settle(max_time=10_000_000.0)
    out = m.done()

    digest_parts = [cluster.shell(s.site_id).read_file(f"/storm-{s.site_id}")
                    for s in sites]
    out["fs_digest"] = hashlib.sha256(b"".join(digest_parts)).hexdigest()[:16]
    out["cpu"] = {k: round(v, 6) for k, v in out["cpu"].items()}
    out.pop("latency", None)
    return out


_CLUSTER_OBSERVABLES = ("vtime", "events", "messages", "bytes", "by_type",
                        "cpu", "fs_digest")


# -- tests -----------------------------------------------------------------

def test_t18_kernel_parity():
    """Both kernels produce the identical schedule on the kernel storm:
    same event count, same seq allocation, same clock, same side effects."""
    new = run_kernel_storm(Simulator, **TINY)
    old = run_kernel_storm(LegacySimulator, **TINY)
    for key in _KERNEL_OBSERVABLES:
        assert new[key] == old[key], (key, new[key], old[key])


def test_t18_cluster_parity_and_trace():
    """Cluster-level observables (messages, cpu, fs digest) are identical
    across kernels, and a recorded replay reproduces them."""
    outs = {}
    for kernel in ("reference", "fast"):
        cluster = build_cluster(sim_kernel=kernel, n_sites=4)
        outs[kernel] = run_cluster_storm(cluster, tasks_per_site=30,
                                         rounds=4, heartbeats=40)
    for key in _CLUSTER_OBSERVABLES:
        assert outs["reference"][key] == outs["fast"][key], key

    replay = run_cluster_storm(build_cluster(n_sites=4),
                               tasks_per_site=30, rounds=4, heartbeats=40)
    for key in _CLUSTER_OBSERVABLES:
        assert replay[key] == outs["fast"][key], key


@pytest.mark.benchmark(group="T18")
def test_t18_kernel_throughput(benchmark):
    """Reduced-scale storm: the fast kernel must beat the reference
    comfortably even at smoke scale (the full-scale ratio is recorded in
    BENCH_simcore.json)."""

    def _experiment():
        new = run_kernel_storm(Simulator, **SMOKE)
        old = run_kernel_storm(LegacySimulator, **SMOKE)
        for key in _KERNEL_OBSERVABLES:
            assert new[key] == old[key], (key, new[key], old[key])
        return {
            "events": new["events"],
            "fast_eps": new["events_per_sec"],
            "reference_eps": old["events_per_sec"],
            "speedup": round(new["events_per_sec"] /
                             old["events_per_sec"], 2),
        }

    out = run_experiment(benchmark, _experiment)
    print_table("T18 smoke: kernel storm",
                ["kernel", "events", "events/sec"],
                [["fast", out["events"], out["fast_eps"]],
                 ["reference", out["events"], out["reference_eps"]]])
    # Conservative floor: the full-scale target is >= 10x, but smoke scale
    # has a smaller backdrop (shallower reference heap) and noisy runners.
    assert out["speedup"] >= 2.5, out


# -- BENCH_simcore.json ----------------------------------------------------

def _storm_best_of_two(scale):
    """Best of two runs per kernel: the first full-scale run in a fresh
    process pays allocator warmup; observables are asserted equal on
    every run, not just the reported one."""
    results = {}
    for simcls in (Simulator, LegacySimulator):
        best = None
        for _ in range(2):
            out = run_kernel_storm(simcls, **scale)
            if best is not None:
                for key in _KERNEL_OBSERVABLES:
                    assert out[key] == best[key], key
            if best is None or \
                    out["events_per_sec"] > best["events_per_sec"]:
                best = out
        out = best
        results[out["kernel"]] = out
        print(f"kernel storm [{out['kernel']:9s}] events={out['events']} "
              f"wall={out['wall_s']:.2f}s eps={out['events_per_sec']:,.0f}",
              file=sys.stderr)
    for key in _KERNEL_OBSERVABLES:
        assert results["fast"][key] == results["reference"][key], key
    return results


def _smoke_bench():
    """Reduced-scale storm for CI: same shape, portable runtimes.  The
    speedup *ratio* is what CI regression-checks against the committed
    baseline — absolute events/sec vary across runners, ratios travel."""
    results = _storm_best_of_two(SMOKE)
    ratio = (results["fast"]["events_per_sec"] /
             results["reference"]["events_per_sec"])
    return {
        "workload": {"kernel_storm_smoke": SMOKE},
        "kernel_storm_smoke": results,
        "speedup": {"kernel_storm_smoke": round(ratio, 2)},
    }


def _bench():
    results = _storm_best_of_two(FULL)

    cluster_results = {}
    for kernel in ("reference", "fast"):
        out = run_cluster_storm(build_cluster(sim_kernel=kernel))
        cluster_results[kernel] = out
        print(f"cluster storm [{kernel:9s}] events={out['events']} "
              f"wall={out['wall_s']:.2f}s eps={out['events_per_sec']:,.0f} "
              f"msgs={out['messages']} digest={out['fs_digest']}",
              file=sys.stderr)
    for key in _CLUSTER_OBSERVABLES:
        assert cluster_results["fast"][key] == \
            cluster_results["reference"][key], key

    kernel_ratio = (results["fast"]["events_per_sec"] /
                    results["reference"]["events_per_sec"])
    cluster_ratio = (cluster_results["fast"]["events_per_sec"] /
                     cluster_results["reference"]["events_per_sec"])
    return {
        "workload": {"kernel_storm": FULL,
                     "cluster_storm": {"n_sites": N_SITES,
                                       "tasks_per_site": TASKS_PER_SITE,
                                       "rounds": ROUNDS,
                                       "heartbeats": HEARTBEATS}},
        "kernel_storm": results,
        "cluster_storm": {
            k: {key: v[key] for key in
                ("vtime", "events", "wall_s", "events_per_sec",
                 "messages", "fs_digest")}
            for k, v in cluster_results.items()},
        "speedup": {"kernel_storm": round(kernel_ratio, 2),
                    "cluster_storm": round(cluster_ratio, 2)},
    }


if __name__ == "__main__":
    bench = _smoke_bench() if "--smoke" in sys.argv[1:] else _bench()
    json.dump(bench, sys.stdout, indent=2, sort_keys=True)
    print()
