"""T21 — blame tables, detection latency and the ``top`` report.

Two claims behind the measurement layer for handing the CSS role off on
load (see docs/OBSERVABILITY.md), plus the ``top`` report's determinism.
Scenario (a), load accounting on vs off, is retired: the ``top`` report
is derived from the span log after the run, so there is no accountant to
switch off.

(b) **The blame table accounts for (almost) everything.**  The
    critical-path analyzer must attribute >=95% of total syscall latency
    on the T14 walk into its queue / wire / remote-service / local
    segments; the decomposition covers the tree by construction, so the
    expected coverage is exactly 1.0.

(c) **Detection latency is measurable.**  For a planted divergence —
    commit notifies dropped by the fault injector, leaving stale
    replicas — the span log must show a positive divergence detection
    latency (fault instant → scrub classification instant, derived by
    ``convergence`` in ``repro.obs.load``), and the repair must follow.

``python benchmarks/test_t21_observe.py`` merges a ``t21`` section into
BENCH_observe.json (the T17 sections are left as-is).
"""

import json
import os
import sys

import pytest

from repro import LocusCluster
from repro.config import CostModel
from repro.faults import FaultPlan
from repro.obs.critpath import analyze
from repro.obs.load import convergence, format_top
from _harness import Measure, print_table, run_experiment

DEPTH = 3
FANOUT = 60
REPEATS = 20


# -- scenario (b): blame coverage on the T14 walk --------------------------

def _walk_cluster():
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
    return cluster, out


def _blame_metrics():
    cluster, walk = _walk_cluster()
    report = analyze(cluster.tracer)
    return {
        "vtime": walk["vtime"],
        "roots": report.root_count,
        "coverage": round(report.coverage, 6),
        "segment_totals": {k: round(v, 6)
                           for k, v in report.segment_totals.items()},
        "syscalls": {name: blame.to_dict()
                     for name, blame in sorted(report.syscalls.items())},
    }


# -- scenario (c): planted divergence, detection latency -------------------

def _detection_metrics(seed=31):
    cluster = LocusCluster(n_sites=3, seed=seed, cost=CostModel())
    sh = cluster.shell(0)
    sh.setcopies(3)
    sh.write_file("/f", b"base content " * 40)
    cluster.settle()
    # The injector's fault instant starts the clock; the dropped commit
    # notifies leave the other replicas stale.  The scrub is scheduled as
    # the write returns: left to quiescence, the circuit loss the drops
    # caused runs a merge whose recovery sweep repairs the replicas first.
    t0 = cluster.sim.now
    cluster.inject(FaultPlan(seed=seed, name="t21-divergence")
                   .drop("fs.notify", count=2, at=t0 + 10.0))
    sh.write_file("/f", b"newer content " * 40)
    gfs = 0
    css = cluster.site(0).fs.mount.css_for(gfs)
    cluster.site(css).scrub.schedule(gfs)
    cluster.settle()
    records, summary = convergence(cluster.tracer)
    latencies = [e["latency"] for e in records
                 if e["event"] == "detect" and e["latency"] is not None]
    return {
        "vtime": round(cluster.sim.now, 2),
        "faults": summary["faults"],
        "detections": summary["detections"],
        "repairs": summary["repairs"],
        "detection_latency": summary["detection_latency"],
        "min_latency": min(latencies) if latencies else None,
    }


# -- pytest entry points ---------------------------------------------------

@pytest.mark.benchmark(group="T21")
def test_t21_blame_coverage(benchmark):
    """>=95% of walk syscall latency lands in a named segment."""
    out = run_experiment(benchmark, _blame_metrics)
    print_table(
        "T21: walk blame decomposition",
        ["segment", "vtime"],
        sorted(out["segment_totals"].items(), key=lambda kv: -kv[1]))
    assert out["roots"] > 0
    assert out["coverage"] >= 0.95
    # stat is remote: the wire + remote service must dominate local work.
    totals = out["segment_totals"]
    assert totals["wire"] + totals["remote_service"] > 0


@pytest.mark.benchmark(group="T21")
def test_t21_detection_latency(benchmark):
    """Planted divergence: scrub detection latency is recorded."""
    out = run_experiment(benchmark, _detection_metrics)
    print_table(
        "T21: planted divergence (dropped notifies) detection",
        ["faults", "detections", "repairs", "latency p50"],
        [[out["faults"], out["detections"], out["repairs"],
          out["detection_latency"]["p50"]]])
    assert out["faults"] > 0
    assert out["detections"] > 0
    assert out["repairs"] > 0
    assert out["detection_latency"]["count"] > 0
    assert out["min_latency"] is not None and out["min_latency"] > 0


@pytest.mark.benchmark(group="T21")
def test_t21_top_report_deterministic(benchmark):
    """The ``cli top`` report is byte-identical for the same seed."""
    from repro.cli import _top_workload

    def _twice():
        a, __ = _top_workload(seed=5, sites=3, ops=40)
        b, __ = _top_workload(seed=5, sites=3, ops=40)
        return {"equal": format_top(a) == format_top(b),
                "lines": len(format_top(a).splitlines())}
    out = run_experiment(benchmark, _twice)
    assert out["equal"]
    assert out["lines"] > 10


# -- baseline refresh ------------------------------------------------------

def _experiment():
    return {
        "blame": _blame_metrics(),
        "detection": _detection_metrics(),
    }


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.join(os.path.dirname(here), "BENCH_observe.json")
    baseline = {}
    if os.path.exists(target):
        with open(target) as fh:
            baseline = json.load(fh)
    baseline["t21"] = {
        "experiment": "T21 blame coverage, detection latency",
        **_experiment(),
    }
    with open(target, "w") as fh:
        json.dump(baseline, fh, indent=2, default=str)
        fh.write("\n")
    json.dump(baseline["t21"], sys.stdout, indent=2, default=str)
    print()
