"""T17 — observability: flight-recorder overhead and latency percentiles.

Two claims behind the flight recorder (docs/OBSERVABILITY.md).
Scenario (a), the T14 walk with tracing on vs off, is retired: recording
is always on, and the kernel's ``GOLDEN`` pin (tests/test_sim_kernel.py)
proves it never moves virtual time, event count or message count.  The
walk is still recorded into BENCH_observe.json.

(b) **Percentiles are deterministic and meaningful.**  The per-site
    :class:`~repro.obs.registry.MetricsRegistry` histograms report
    p50/p95/p99 syscall latency through the benchmark harness's windowed
    snapshots; under the T16 fault storm the tail (p99) must reflect the
    outages that the median (p50) rides through.

(c) **Free in virtual time is not free on the host.**  Every span is
    retained until export, so what one costs in bytes — and what
    recording costs in wall time — is the recorder's real price.  On the
    T18 cluster storm (an rpc span and a handler span per round trip)
    this reports retained bytes per span (``tracemalloc``, marginal: the
    bytes a storm of 2N round trips retains minus those of N, over the
    spans added; repeats to a byte, and the CI gate) and wall seconds /
    spans per second (reported, never gated: shared runners are too
    noisy), beside the numbers measured at the commit before the span
    log went columnar and at the one before its columns became one
    packed row (those against a recorder switched off).

``python benchmarks/test_t17_observe.py`` merges its sections into
BENCH_observe.json (the T21 section is left as-is).
"""

import gc
import json
import os
import sys
import time
import tracemalloc

import pytest

from repro import LocusCluster
from repro.config import CostModel
from repro.workloads.storm import (CONTENT, READS, drive, storm_cluster,
                                   storm_plan)
from _harness import Measure, print_table, run_experiment
from test_t18_simcore import build_cluster, run_cluster_storm

DEPTH = 3
FANOUT = 60
REPEATS = 20

STORM_SEEDS = [11, 23, 47]


# -- the T14 remote-walk hot path, recorded ------------------------------

def _walk_metrics():
    cluster = LocusCluster(n_sites=2, seed=23, root_pack_sites=[0])
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
    sh1.stat(leaf)
    m = Measure(cluster)
    for __ in range(REPEATS):
        sh1.stat(leaf)
    out = m.done()
    out["spans"] = len(cluster.tracer.spans)
    return out


# -- scenario (b): T16 storm percentiles through the registry --------------

def _storm_metrics(seed):
    # Explicit default cost: tests/conftest.py's flag shim never applies.
    cluster = storm_cluster(seed, cost=CostModel())
    cluster.inject(storm_plan(seed, cluster.sim.now))
    completions = []
    m = Measure(cluster)
    drive(cluster,
          on_read=lambda __, data: completions.append(data == CONTENT))
    out = m.done()
    out["completion_rate"] = round(sum(completions) / len(completions), 4)
    out["spans"] = len(cluster.tracer.spans)
    out["instants"] = len(cluster.tracer.instants)
    return out


# -- scenario (c): host cost of recording on the T18 cluster storm ----------

BYTES_PER_SPAN_BUDGET = 40.0
# This scenario run against the two stores the packed log replaced: PR 11
# (f22e8e7: one slot-less dataclass, an attrs dict and an events list per
# span) and PR 22 (8379452: eight parallel columns, 56 B raw per span).
PARENT_HOST_COST = {
    "bytes_per_span": 600.9, "spans": 72757,
    "wall_on_s": 2.93, "wall_off_s": 1.935, "on_over_off": 1.514,
    "spans_per_s": 24835,
}
PARENT_COLUMNAR_HOST_COST = {
    "bytes_per_span": 57.5, "spans": 72757,
    "wall_on_s": 2.836, "wall_off_s": 2.345, "on_over_off": 1.209,
    "spans_per_s": 25658,
}


STORM_ROUNDS = 10


def _storm_retained(rounds):
    """Bytes a small storm leaves allocated, and the spans it recorded."""
    cluster = build_cluster(n_sites=4)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_cluster_storm(cluster, tasks_per_site=100, rounds=rounds,
                          heartbeats=40)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained, len(cluster.tracer.spans)


def _storm_wall():
    """Best-of-two wall seconds of the full T18 storm, and its spans."""
    best = None
    for __ in range(2):
        cluster = build_cluster()
        gc.collect()
        t0 = time.perf_counter()
        run_cluster_storm(cluster)
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return best, len(cluster.tracer.spans)


def _host_cost():
    bytes_n, spans_n = _storm_retained(STORM_ROUNDS)
    bytes_2n, spans_2n = _storm_retained(2 * STORM_ROUNDS)
    wall, spans = _storm_wall()
    return {
        "bytes_per_span": round((bytes_2n - bytes_n) / (spans_2n - spans_n),
                                1),
        "spans": spans,
        "wall_on_s": round(wall, 3),
        "spans_per_s": round(spans / wall),
    }


def _experiment():
    return {
        "walk": _walk_metrics(),
        "storms": {seed: _storm_metrics(seed) for seed in STORM_SEEDS},
        "host_cost": _host_cost(),
    }


@pytest.mark.benchmark(group="T17")
def test_t17_storm_percentiles(benchmark):
    """T16 storm: registry percentiles capture the outage tail."""
    def _one():
        return _storm_metrics(STORM_SEEDS[0])
    out = run_experiment(benchmark, _one)
    lat = out["latency"]
    assert "syscall.pread" in lat, sorted(lat)
    pread = lat["syscall.pread"]
    print_table(
        f"T17: storm seed {STORM_SEEDS[0]} syscall latency (registry)",
        ["metric", "count", "p50", "p95", "p99"],
        [[name, d["count"], d["p50"], d["p95"], d["p99"]]
         for name, d in sorted(lat.items())
         if name.startswith("syscall.")])
    assert pread["count"] >= READS * 0.95
    assert pread["p99"] >= pread["p50"] > 0
    # The storm's retries and failovers stretch the tail well past the
    # healthy median read.
    assert pread["p99"] > pread["p50"]
    assert out["completion_rate"] >= 0.95
    assert out["spans"] > 0 and out["instants"] > 0


@pytest.mark.benchmark(group="T17")
def test_t17_percentile_determinism(benchmark):
    """The same seed reports byte-identical percentile dicts."""
    def _twice():
        a = _storm_metrics(STORM_SEEDS[0])
        b = _storm_metrics(STORM_SEEDS[0])
        return {"equal": a["latency"] == b["latency"]
                and a["vtime"] == b["vtime"]
                and a["spans"] == b["spans"]}
    out = run_experiment(benchmark, _twice)
    assert out["equal"]


@pytest.mark.benchmark(group="T17")
def test_t17_host_cost(benchmark):
    """T18 cluster storm: bytes retained per span (gated) and the wall
    cost of recording (reported)."""
    out = run_experiment(benchmark, _host_cost)
    print_table(
        "T17: host cost of the flight recorder, T18 cluster storm",
        ["commit", "bytes/span", "wall on", "spans/s"],
        [[name, d["bytes_per_span"], d["wall_on_s"], d["spans_per_s"]]
         for name, d in (("parent", PARENT_HOST_COST),
                         ("columnar", PARENT_COLUMNAR_HOST_COST),
                         ("this", out))])
    # An rpc and a handler span per round trip, plus the set-up traffic.
    assert out["spans"] >= 2 * 12 * 250 * 12
    assert out["bytes_per_span"] <= BYTES_PER_SPAN_BUDGET


if __name__ == "__main__":
    out = _experiment()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.join(os.path.dirname(here), "BENCH_observe.json")
    baseline = {}
    if os.path.exists(target):
        with open(target) as fh:
            baseline = json.load(fh)
    baseline.update({
        "experiment": "T17 flight-recorder overhead and percentiles",
        "t14_walk": {
            **{k: out["walk"][k] for k in ("vtime", "messages", "spans")},
            "latency": out["walk"]["latency"],
        },
        "t16_storm": {
            str(seed): {
                "completion_rate": m["completion_rate"],
                "vtime": m["vtime"],
                "spans": m["spans"],
                "instants": m["instants"],
                "latency": {name: d for name, d in m["latency"].items()
                            if name.startswith(("syscall.", "rpc."))},
            }
            for seed, m in out["storms"].items()
        },
        "host_cost": {"parent": PARENT_HOST_COST,
                      "parent_columnar": PARENT_COLUMNAR_HOST_COST,
                      **out["host_cost"]},
    })
    with open(target, "w") as fh:
        json.dump(baseline, fh, indent=2, default=str)
        fh.write("\n")
    json.dump(baseline, sys.stdout, indent=2, default=str)
    print()
