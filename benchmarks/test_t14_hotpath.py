"""T14 — hot-path ablation: name cache × batched page transfer.

Two hot paths from the paper's own profile of distributed operation:

(a) repeated pathname resolution against *remote, multi-page* directories
    (section 2.3.4's per-component interrogation — open, read the pages,
    close, for every component of every walk), and
(b) the propagation pull of a large file after a remote commit (section
    2.3.6 — one ``fs.pull_read`` round trip per page in the paper).

The two optimisations under test (DESIGN.md additions, both default-off so
every other benchmark still measures the paper's exact protocol):

* ``name_cache``   — per-site cache of decoded directory entries keyed by
  (gfile, version vector); a walk revalidates with one small version probe
  instead of re-reading the directory pages.
* ``batch_pages`` / ``pull_pipeline`` — multi-page read and pull-range
  messages (``batch_pages`` is the one batching rule: reads, readahead,
  write-behind and pulls alike), plus K range requests kept in flight
  during propagation.  Readahead is adaptive in every combo: the window
  is the observed sequential run length, capped by ``readahead_max``.

The ablation grid crosses them: off/off, cache only, batch only, both.
Acceptance: "both" achieves >= 2x reduction in message count AND virtual
time vs off/off, on both scenarios; identical seeds give identical traces.

Scenario (d) is the host's side of (a) (ISSUE 19): what the same warm
walks cost the *simulator* — directory entries decoded, profiled calls,
wall time — next to the same scenario run on the parent commit.
"""

import cProfile
import json
import statistics
import sys
import time

import pytest

from repro import LocusCluster
from repro.config import CostModel
from repro.fs.directory import DirEntry
from repro.net.stats import StatsWindow
from _harness import Measure, print_table, run_experiment

DEPTH = 3           # /dir0/dir1/dir2/leaf
FANOUT = 60         # entries per directory -> every directory is 2+ pages
REPEATS = 20        # resolutions in the measured window
PULL_KB = 32        # pages in the propagated file

SCAN_KB = 24        # pages in the remote sequential-scan file

COMBOS = [
    ("off", {}),
    ("cache", {"name_cache": True}),
    ("batch", {"batch_pages": 8, "pull_pipeline": 4}),
    ("both", {"name_cache": True, "batch_pages": 8, "pull_pipeline": 4}),
]


def _cost(flags):
    return CostModel().with_overrides(**flags)


# -- scenario (a): repeated remote path resolution -------------------------

def _walk_cluster(flags):
    """The walk workload, warmed: returns (cluster, diskless shell, leaf)."""
    cluster = LocusCluster(n_sites=2, seed=23, root_pack_sites=[0],
                           cost=_cost(flags))
    sh0 = cluster.shell(0)
    path = ""
    for d in range(DEPTH):
        path += f"/dir{d}"
        sh0.mkdir(path)
        for i in range(FANOUT):
            sh0.write_file(f"{path}/entry-{i:04d}", b"")
    leaf = path + "/leaf"
    sh0.write_file(leaf, b"L" * 2048)
    cluster.settle()
    sh1 = cluster.shell(1)
    sh1.stat(leaf)                     # cold walk: fills caches if enabled
    return cluster, sh1, leaf


def _walk_metrics(flags):
    cluster, sh1, leaf = _walk_cluster(flags)
    m = Measure(cluster)
    for __ in range(REPEATS):
        sh1.stat(leaf)
    out = m.done()
    # Every walk must see the real file, cache or no cache.
    assert sh1.stat(leaf)["size"] == 2048
    return out


# -- scenario (b): multi-page propagation pull -----------------------------

def _pull_metrics(flags):
    cluster = LocusCluster(n_sites=2, seed=23, cost=_cost(flags))
    sh0 = cluster.shell(0)
    sh0.setcopies(2)
    sh0.write_file("/big", b"s")
    cluster.settle()                   # tiny initial propagation
    data = bytes((i * 7) % 256 for i in range(PULL_KB * 1024))
    sh0.write_file("/big", data)
    # Window opens after the local write returns: the clock and the message
    # window see (almost) only site 1's pull of the new pages.
    t0 = cluster.sim.now
    win = StatsWindow(cluster.stats)
    props = StatsWindow([s.fs.propagator.stats for s in cluster.sites])
    cluster.settle()
    snap = win.close()
    pipelined = sum(p.pipelined_rounds for p in props.close())
    vtime = cluster.sim.now - t0
    assert cluster.shell(1).read_file("/big") == data
    data_msgs = sum(snap.sent.get(k, 0) for k in snap.pages)
    return {
        "vtime": vtime,
        "messages": snap.total_messages,
        "bytes": snap.total_bytes,
        "pages_per_message": (sum(snap.pages.values()) / data_msgs
                              if data_msgs else 0.0),
        "pipelined_rounds": pipelined,
    }


# -- scenario (c): remote sequential scan (adaptive readahead) -------------

def _scan_metrics(flags):
    """Page-at-a-time sequential read of a remote file.

    The shell read issues one ``fs.read`` per page; the adaptive
    readahead window grows with the observed run length up to
    ``readahead_max``, so with ``batch_pages`` the fetches travel in
    multi-page messages without being pre-sized.
    """
    cluster = LocusCluster(n_sites=2, seed=23, root_pack_sites=[0],
                           cost=_cost(flags))
    sh0 = cluster.shell(0)
    data = bytes((i * 11) % 256 for i in range(SCAN_KB * 1024))
    sh0.write_file("/seq", data)
    cluster.settle()
    m = Measure(cluster)
    assert cluster.shell(1).read_file("/seq") == data
    return m.done()


# -- scenario (d): what the walks of (a) cost the host ----------------------

HOST_WINDOWS = 15   # timed windows of REPEATS walks; the median is reported
# This scenario run against the parent commit (PR 18, 737ed48: every read
# re-parses the directory image; DirView copies the entry list and scans
# it; the name cache copies every entry in and out).  The two counts
# repeat exactly; the wall figure is the median of five runs alternated
# with this commit's (1.952 / 0.458 ms there) on the machine that recorded
# BENCH_hotpath.json.
PARENT_HOST_COST = {
    "off": {"decodes_per_walk": 192.0, "profiled_calls_per_walk": 6606.3,
            "wall_ms_per_walk": 2.918},
    "cache": {"decodes_per_walk": 0.0, "profiled_calls_per_walk": 1599.2,
              "wall_ms_per_walk": 0.709},
}


def _walk_host_cost(flags):
    """Per warm walk: ``DirEntry.from_record`` calls and profiled function
    calls (both repeat exactly), and wall milliseconds (they do not)."""
    cluster, sh1, leaf = _walk_cluster(flags)

    def window():
        for __ in range(REPEATS):
            sh1.stat(leaf)

    walls = []
    for __ in range(HOST_WINDOWS):
        t0 = time.perf_counter()
        window()
        walls.append(time.perf_counter() - t0)
    decoded = []
    real = DirEntry.from_record.__func__
    DirEntry.from_record = classmethod(
        lambda cls, rec: decoded.append(rec) or real(cls, rec))
    try:
        window()
    finally:
        DirEntry.from_record = classmethod(real)
    profile = cProfile.Profile()
    profile.enable()
    window()
    profile.disable()
    return {
        "decodes_per_walk": len(decoded) / REPEATS,
        # One entry per code object: pstats would merge every
        # dataclass-generated ``__init__`` under one ("<string>", 2) key
        # and keep whichever it saw last.
        "profiled_calls_per_walk":
            sum(e.callcount for e in profile.getstats()) / REPEATS,
        "wall_ms_per_walk":
            round(1000.0 * statistics.median(walls) / REPEATS, 3),
    }


def _host_cost():
    return {label: _walk_host_cost(flags)
            for label, flags in COMBOS if label in PARENT_HOST_COST}


def _experiment():
    rows = []
    results = {}
    for label, flags in COMBOS:
        walk = _walk_metrics(flags)
        pull = _pull_metrics(flags)
        scan = _scan_metrics(flags)
        results[label] = {"walk": walk, "pull": pull, "scan": scan}
        rows.append([
            label,
            walk["messages"], walk["vtime"],
            round(walk["name_cache_hit_rate"], 2),
            pull["messages"], pull["vtime"],
            round(pull["pages_per_message"], 1),
            scan["messages"], scan["vtime"],
        ])
    off, both = results["off"], results["both"]
    return {
        "rows": rows,
        "results": results,
        "walk_msg_ratio": off["walk"]["messages"] / both["walk"]["messages"],
        "walk_vtime_ratio": off["walk"]["vtime"] / both["walk"]["vtime"],
        "pull_msg_ratio": off["pull"]["messages"] / both["pull"]["messages"],
        "pull_vtime_ratio": off["pull"]["vtime"] / both["pull"]["vtime"],
    }


@pytest.mark.benchmark(group="T14")
def test_t14_hotpath_ablation(benchmark):
    out = run_experiment(benchmark, _experiment)
    print_table(
        f"T14: {REPEATS} remote walks ({DEPTH} deep, {FANOUT}-entry dirs) "
        f"and one {PULL_KB}-page pull",
        ["config", "walk msgs", "walk vtime", "name hit",
         "pull msgs", "pull vtime", "pages/msg",
         "scan msgs", "scan vtime"],
        out["rows"])
    # The acceptance floor: both optimisations together at least halve
    # message count and virtual time on both hot paths.
    assert out["walk_msg_ratio"] >= 2.0, out["walk_msg_ratio"]
    assert out["walk_vtime_ratio"] >= 2.0, out["walk_vtime_ratio"]
    assert out["pull_msg_ratio"] >= 2.0, out["pull_msg_ratio"]
    assert out["pull_vtime_ratio"] >= 2.0, out["pull_vtime_ratio"]
    # Each optimisation alone helps its own scenario.
    res = out["results"]
    assert res["cache"]["walk"]["messages"] < res["off"]["walk"]["messages"]
    assert res["batch"]["pull"]["messages"] < res["off"]["pull"]["messages"]
    assert res["cache"]["walk"]["name_cache_hit_rate"] > 0.5
    assert res["batch"]["pull"]["pipelined_rounds"] >= 1
    # A batched sequential scan (adaptive window, batch_pages 8) saves
    # messages with or without the name cache; the cache's attribute
    # probe may cost a handful of extra messages but no more.
    assert res["both"]["scan"]["messages"] < res["off"]["scan"]["messages"]
    assert (res["both"]["scan"]["messages"]
            <= res["batch"]["scan"]["messages"] + 4)


@pytest.mark.benchmark(group="T14")
def test_t14_determinism(benchmark):
    """Identical seeds give identical traces under the full optimisation
    set — the batching and pipelining stay deterministic."""
    def _twice():
        a = _walk_metrics(dict(COMBOS[3][1]))
        b = _walk_metrics(dict(COMBOS[3][1]))
        return {"equal": (a["vtime"] == b["vtime"]
                          and a["messages"] == b["messages"]
                          and a["by_type"] == b["by_type"])}
    out = run_experiment(benchmark, _twice)
    assert out["equal"]


@pytest.mark.benchmark(group="T14")
def test_t14_host_cost(benchmark):
    """The warm walks of scenario (a) decode nothing, and run in fewer
    profiled calls than at the parent; wall time is printed, not gated."""
    out = run_experiment(benchmark, _host_cost)
    print_table(
        f"T14: host cost per warm remote walk ({DEPTH} deep, "
        f"{FANOUT}-entry dirs)",
        ["config", "commit", "decodes", "profiled calls", "wall ms"],
        [[label, name, d["decodes_per_walk"], d["profiled_calls_per_walk"],
          d["wall_ms_per_walk"]]
         for label in out
         for name, d in (("parent", PARENT_HOST_COST[label]),
                         ("this", out[label]))])
    for label, cost in out.items():
        assert cost["decodes_per_walk"] == 0.0, (label, cost)
        assert cost["profiled_calls_per_walk"] \
            < PARENT_HOST_COST[label]["profiled_calls_per_walk"], label


if __name__ == "__main__":
    out = _experiment()
    baseline = {
        "experiment": "T14 hot-path ablation",
        "combos": {label: out["results"][label] for label, __ in COMBOS},
        "ratios": {k: round(out[k], 3) for k in
                   ("walk_msg_ratio", "walk_vtime_ratio",
                    "pull_msg_ratio", "pull_vtime_ratio")},
        "host_cost": {
            "scenario": f"{REPEATS} warm remote walks, {DEPTH} deep, "
                        f"{FANOUT}-entry directories; per walk",
            "parent": PARENT_HOST_COST,
            "change": _host_cost(),
        },
    }
    json.dump(baseline, sys.stdout, indent=2, default=str)
    print()
