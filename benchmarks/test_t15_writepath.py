"""T15 — write-path ablation: batched commit flush × manifest heal pull.

The write-side mirror of T14.  Two hot paths:

(a) a large sequential write plus its atomic commit from a diskless using
    site (section 2.3.5's one ``fs.write_page`` one-way per page, then the
    section 2.3.6 commit), and
(b) the post-heal propagation of many small files (one pinned
    ``fs.pull_read`` round trip per file in the paper's pull protocol,
    whose internal open rides the commit notify).

The two optimisations under test (both default-off, so every other
benchmark still measures the paper's exact protocol):

* ``batch_pages`` — the one batching rule: a remote write stages its page
  at the US and ships the staged pages in ``fs.write_pages`` chunks of up
  to ``batch_pages`` (a one-page chunk is the paper's ``fs.write_page``);
  the commit carries the staged-page count so a lost chunk can never
  half-commit.
* ``pull_manifest`` — service a heal backlog with one ``fs.pull_manifest``
  RPC per source plus ``pull_pipeline`` concurrent pulls, instead of one
  pull after another.

Acceptance: batching gives >= 2x fewer messages on the 32-page write +
commit.  Healing 20 small files, the paper path waits exactly one round
trip per file (PropStats.sync_waits: the pinned read) and the manifest
path at most 9 (a manifest round trip per backlog drained plus the
``pull_pipeline`` waves).  The heal ratio was gated at 3x while the paper
path also paid a per-file ``fs.pull_open`` round trip; with that gone
the pipelined path's remaining gain is the waves, so both paths are held
to absolute counts instead.
"""

import json
import sys

import pytest

from repro import LocusCluster, Mode
from repro.config import CostModel
from repro.net.stats import StatsWindow
from _harness import print_table, run_experiment

WRITE_PAGES = 32      # pages in the measured sequential write
HEAL_FILES = 20       # small files healed after the partition

COMBOS = [
    ("off", {}),
    ("batch", {"batch_pages": 8}),
    # The manifest alone: with batch_pages it would batch the writes too.
    ("manifest", {"pull_manifest": True, "pull_pipeline": 4}),
    ("both", {"pull_manifest": True, "batch_pages": 8,
              "pull_pipeline": 4}),
]


def _cost(flags):
    return CostModel().with_overrides(**flags)


# -- scenario (a): 32-page sequential write + commit -----------------------

def _write_metrics(flags):
    cluster = LocusCluster(n_sites=2, seed=23, root_pack_sites=[0],
                           cost=_cost(flags))
    psz = cluster.config.cost.page_size
    data = bytes((i * 7) % 256 for i in range(WRITE_PAGES * psz))
    sh0 = cluster.shell(0)
    sh0.write_file("/big", b"0" * len(data))     # pre-create: the window
    cluster.settle()                             # sees only write + commit
    site1 = cluster.site(1)
    ino = sh0.stat("/big")["ino"]
    handle = cluster.call(1, site1.fs.open_gfile((0, ino), Mode.WRITE))
    t0 = cluster.sim.now
    win = StatsWindow(cluster.stats)
    cluster.call(1, site1.fs.write(handle, 0, data))
    cluster.call(1, site1.fs.commit(handle))
    snap = win.close()
    vtime = cluster.sim.now - t0
    cluster.call(1, site1.fs.close(handle))
    cluster.settle()
    assert cluster.shell(0).read_file("/big") == data
    return {
        "vtime": round(vtime, 2),
        "messages": snap.total_messages,
        "bytes": snap.total_bytes,
        "write_page_msgs": snap.sent.get("fs.write_page", 0),
        "write_pages_msgs": snap.sent.get("fs.write_pages", 0),
    }


# -- scenario (b): healing 20 small diverged files -------------------------

def _heal_metrics(flags):
    cluster = LocusCluster(n_sites=2, seed=7, cost=_cost(flags))
    sh0, sh1 = cluster.shell(0), cluster.shell(1)
    sh0.setcopies(2)
    for i in range(HEAL_FILES):
        sh0.write_file(f"/f{i}", b"a" * 100)
    cluster.settle()
    cluster.partition({0}, {1})
    for i in range(HEAL_FILES):
        sh0.write_file(f"/f{i}", bytes([i]) * 200)
    # Measure the heal alone, and the puller's stats over it.
    t0 = cluster.sim.now
    win = StatsWindow(cluster.stats)
    pulls = StatsWindow(cluster.sites[1].fs.propagator.stats)
    cluster.heal()
    cluster.settle()
    snap = win.close()
    prop = pulls.close()
    vtime = cluster.sim.now - t0
    for i in range(HEAL_FILES):
        assert sh1.read_file(f"/f{i}") == bytes([i]) * 200
    return {
        "vtime": round(vtime, 2),
        "messages": snap.total_messages,
        "sync_waits": prop.sync_waits,
        "manifest_requests": prop.manifest_requests,
        "manifest_hits": prop.manifest_hits,
        "pulls": prop.pulls,
    }


def _experiment():
    rows = []
    results = {}
    for label, flags in COMBOS:
        write = _write_metrics(flags)
        heal = _heal_metrics(flags)
        results[label] = {"write": write, "heal": heal}
        rows.append([
            label,
            write["messages"], write["vtime"],
            write["write_pages_msgs"],
            heal["sync_waits"], heal["messages"], heal["vtime"],
        ])
    off, both = results["off"], results["both"]
    return {
        "rows": rows,
        "results": results,
        "write_msg_ratio": (off["write"]["messages"]
                            / both["write"]["messages"]),
        "write_vtime_ratio": (off["write"]["vtime"]
                              / both["write"]["vtime"]),
        "heal_roundtrip_ratio": (off["heal"]["sync_waits"]
                                 / both["heal"]["sync_waits"]),
        "heal_msg_ratio": (off["heal"]["messages"]
                           / both["heal"]["messages"]),
    }


@pytest.mark.benchmark(group="T15")
def test_t15_writepath_ablation(benchmark):
    out = run_experiment(benchmark, _experiment)
    print_table(
        f"T15: {WRITE_PAGES}-page write+commit and {HEAL_FILES}-file heal",
        ["config", "write msgs", "write vtime", "wp batches",
         "heal rts", "heal msgs", "heal vtime"],
        out["rows"])
    # Acceptance: >= 2x fewer messages on the sequential write + commit;
    # on the 20-file heal one round trip per file on the paper path (the
    # pinned read, no open) and at most 9 on the pipelined manifest path.
    assert out["write_msg_ratio"] >= 2.0, out["write_msg_ratio"]
    res = out["results"]
    assert res["off"]["heal"]["sync_waits"] == HEAL_FILES
    for label in ("manifest", "both"):
        assert res[label]["heal"]["sync_waits"] <= 9, \
            res[label]["heal"]["sync_waits"]
    # Each optimisation alone carries its own scenario.
    assert (res["batch"]["write"]["messages"]
            < res["off"]["write"]["messages"])
    assert (res["manifest"]["heal"]["sync_waits"]
            < res["off"]["heal"]["sync_waits"])
    # The flags engage the mechanisms they claim to.
    assert res["batch"]["write"]["write_pages_msgs"] >= 2
    assert res["off"]["write"]["write_pages_msgs"] == 0
    assert res["manifest"]["heal"]["manifest_requests"] >= 1
    assert res["manifest"]["heal"]["manifest_hits"] >= HEAL_FILES // 2
    # Every combo heals every file exactly once — no wasted pulls.
    for label, __ in COMBOS:
        assert res[label]["heal"]["pulls"] == HEAL_FILES


@pytest.mark.benchmark(group="T15")
def test_t15_determinism(benchmark):
    """Identical seeds give identical traces with both flags on — the
    staged flush and the manifest waves stay deterministic."""
    def _twice():
        a = _write_metrics(dict(COMBOS[3][1]))
        b = _write_metrics(dict(COMBOS[3][1]))
        c = _heal_metrics(dict(COMBOS[3][1]))
        d = _heal_metrics(dict(COMBOS[3][1]))
        return {"equal": a == b and c == d}
    out = run_experiment(benchmark, _twice)
    assert out["equal"]


if __name__ == "__main__":
    out = _experiment()
    baseline = {
        "experiment": "T15 write-path ablation",
        "combos": {label: out["results"][label] for label, __ in COMBOS},
        "ratios": {k: round(out[k], 3) for k in
                   ("write_msg_ratio", "write_vtime_ratio",
                    "heal_roundtrip_ratio", "heal_msg_ratio")},
    }
    json.dump(baseline, sys.stdout, indent=2, default=str)
    print()
