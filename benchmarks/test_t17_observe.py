"""T17 — observability: flight-recorder overhead and latency percentiles.

Two claims behind the flight recorder (docs/OBSERVABILITY.md):

(a) **Tracing is free.**  Recording is observational only — it never
    charges CPU, sends messages, adds yield points, or touches the
    simulator RNG — so the T14 hot-path workload must report the *same*
    virtual time and the *same* per-type message counts with
    ``trace_enabled`` on and off.  The acceptance bound is a <5% virtual
    time delta; the expected delta is exactly zero.

(b) **Percentiles are deterministic and meaningful.**  The per-site
    :class:`~repro.obs.registry.MetricsRegistry` histograms report
    p50/p95/p99 syscall latency through the benchmark harness's windowed
    snapshots; under the T16 fault storm the tail (p99) must reflect the
    outages that the median (p50) rides through.

(c) **Free in virtual time is not free on the host.**  Every span is
    retained until export, so what one costs in bytes — and what
    recording costs in wall time — is the recorder's real price.  On the
    T18 cluster storm (an rpc span and a handler span per round trip)
    this reports retained bytes per span (``tracemalloc``, tracing on
    minus off: repeats to a byte, and the CI gate) and wall seconds / spans
    per second with tracing on vs off (reported, never gated: shared
    runners are too noisy), beside the same numbers measured the same
    way at the commit before the span log went columnar and at the one
    before its columns became one packed row.

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


# -- scenario (a): the T14 remote-walk hot path, trace on vs off -----------

def _walk_metrics(trace_enabled):
    cost = CostModel().with_overrides(trace_enabled=trace_enabled)
    cluster = LocusCluster(n_sites=2, seed=23, root_pack_sites=[0],
                           cost=cost)
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


def _storm_retained(trace_enabled):
    """Bytes a small storm leaves allocated, and the spans it recorded."""
    cluster = build_cluster(trace_enabled=trace_enabled, n_sites=4)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_cluster_storm(cluster, tasks_per_site=100, rounds=10,
                          heartbeats=40)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained, len(cluster.tracer.spans)


def _storm_wall(trace_enabled):
    """Best-of-two wall seconds of the full T18 storm, and its spans."""
    best = None
    for __ in range(2):
        cluster = build_cluster(trace_enabled=trace_enabled)
        gc.collect()
        t0 = time.perf_counter()
        run_cluster_storm(cluster)
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return best, len(cluster.tracer.spans)


def _host_cost():
    off_bytes, __ = _storm_retained(False)
    on_bytes, small_spans = _storm_retained(True)
    wall_off, __ = _storm_wall(False)
    wall_on, spans = _storm_wall(True)
    return {
        "bytes_per_span": round((on_bytes - off_bytes) / small_spans, 1),
        "spans": spans,
        "wall_on_s": round(wall_on, 3),
        "wall_off_s": round(wall_off, 3),
        "on_over_off": round(wall_on / wall_off, 3),
        "spans_per_s": round(spans / wall_on),
    }


def _experiment():
    on = _walk_metrics(True)
    off = _walk_metrics(False)
    vtime_delta = (abs(on["vtime"] - off["vtime"]) / off["vtime"]
                   if off["vtime"] else 0.0)
    storms = {seed: _storm_metrics(seed) for seed in STORM_SEEDS}
    return {
        "walk_on": on,
        "walk_off": off,
        "vtime_delta": vtime_delta,
        "storms": storms,
        "host_cost": _host_cost(),
    }


@pytest.mark.benchmark(group="T17")
def test_t17_trace_overhead(benchmark):
    """T14 walk workload: tracing on/off changes nothing measurable."""
    def _ab():
        on = _walk_metrics(True)
        off = _walk_metrics(False)
        return {"on_vtime": on["vtime"], "off_vtime": off["vtime"],
                "on_msgs": on["messages"], "off_msgs": off["messages"],
                "on_by_type": on["by_type"], "off_by_type": off["by_type"],
                "on_spans": on["spans"], "off_spans": off["spans"]}
    out = run_experiment(benchmark, _ab)
    print_table(
        f"T17: {REPEATS} remote walks, flight recorder on vs off",
        ["config", "vtime", "messages", "spans"],
        [["trace on", out["on_vtime"], out["on_msgs"], out["on_spans"]],
         ["trace off", out["off_vtime"], out["off_msgs"],
          out["off_spans"]]])
    # Acceptance: <5% virtual-time delta.  Expected: exactly zero, and
    # identical per-type message counts — tracing is purely observational.
    delta = abs(out["on_vtime"] - out["off_vtime"]) / out["off_vtime"]
    assert delta < 0.05, delta
    assert out["on_vtime"] == out["off_vtime"]
    assert out["on_by_type"] == out["off_by_type"]
    assert out["on_spans"] > 0 and out["off_spans"] == 0


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
        ["commit", "bytes/span", "wall on", "wall off", "on/off",
         "spans/s"],
        [[name, d["bytes_per_span"], d["wall_on_s"], d["wall_off_s"],
          d["on_over_off"], d["spans_per_s"]]
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
            "trace_on": {k: out["walk_on"][k]
                         for k in ("vtime", "messages", "spans")},
            "trace_off": {k: out["walk_off"][k]
                          for k in ("vtime", "messages", "spans")},
            "vtime_delta": round(out["vtime_delta"], 6),
            "latency": out["walk_on"]["latency"],
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
