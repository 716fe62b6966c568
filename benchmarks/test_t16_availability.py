"""T16 — availability under a scripted fault storm: supervision ablation.

A diskless using site reads a replicated file at a steady pace while a
deterministic :class:`repro.faults.FaultPlan` storm crashes and restarts
both storage sites, loses messages, spikes latency and drops read traffic.
A light writer rewrites a second file throughout.

Two configurations:

* ``supervised`` — the default: per-op timeouts with bounded deterministic
  backoff on idempotent calls, and mid-call replica failover on the US
  read path (section 5.2 principle 3: reads continue on another copy).
* ``unsupervised`` — ``supervise_remote_ops=False``: the paper's bare
  virtual-circuit calls; a lost SS fails the whole syscall until
  reconfiguration substitutes a copy.

Metrics per seed: syscall completion rate, the longest gap between two
successful reads (time-to-recover), and the injector's invariant-checker
verdict after the storm's heals.  Acceptance: the supervised read path
completes >= 95% of syscalls on every seed and strictly beats the
unsupervised baseline; the same seed + plan replays an identical event
trace and read log.
"""

import json
import os
import sys

import pytest

from repro.config import CostModel
from repro.workloads.storm import (CONTENT, READ_INTERVAL, READS, drive,
                                   storm_cluster, storm_plan)
from _harness import print_table, run_experiment

SEEDS = [11, 23, 47]
COMBOS = [
    ("supervised", {}),
    ("unsupervised", {"supervise_remote_ops": False}),
]


def _env_flags():
    """The CI chaos-soak matrix re-runs the storm under
    ``LOCUS_COST_FLAGS`` (same syntax as tests/conftest.py).  Applied here
    so BOTH combos share the base — tests/conftest.py only touches
    default-cost clusters and would skew the ablation otherwise."""
    return CostModel.parse_flags(os.environ.get("LOCUS_COST_FLAGS", ""))


def _run_storm(seed, flags):
    # Always explicit, so tests/conftest.py's default-cost shim never
    # applies twice and the two combos differ only in supervision.
    cost = CostModel().with_overrides(**{**_env_flags(), **flags})
    cluster = storm_cluster(seed, cost=cost)
    sim = cluster.sim
    t0 = sim.now
    inj = cluster.inject(storm_plan(seed, t0))
    reads = []      # (start, end, ok)
    writes = []
    drive(cluster,
          on_read=lambda started, data: reads.append(
              (started, sim.now, data == CONTENT)),
          on_write=writes.append)

    ok_ends = [end for __, end, ok in reads if ok]
    gaps = [b - a for a, b in zip([t0] + ok_ends, ok_ends)]
    return {
        "attempts": len(reads),
        "completions": len(ok_ends),
        "completion_rate": round(len(ok_ends) / len(reads), 4),
        "max_recovery_gap": round(max(gaps), 2) if gaps else None,
        "write_attempts": len(writes),
        "write_completions": sum(writes),
        "violations": len(inj.violations),
        "trace_events": len(inj.trace),
        "storm_span": round(sim.now - t0, 1),
        "_trace": inj.trace,
        "_reads": reads,
    }


def _experiment():
    rows = []
    results = {}
    for label, flags in COMBOS:
        per_seed = {}
        for seed in SEEDS:
            m = _run_storm(seed, flags)
            per_seed[seed] = {k: v for k, v in m.items()
                              if not k.startswith("_")}
            rows.append([label, seed, m["completion_rate"],
                         m["max_recovery_gap"],
                         f"{m['write_completions']}/{m['write_attempts']}",
                         m["violations"]])
        results[label] = per_seed
    sup = [results["supervised"][s]["completion_rate"] for s in SEEDS]
    uns = [results["unsupervised"][s]["completion_rate"] for s in SEEDS]
    return {
        "rows": rows,
        "results": results,
        "supervised_min_rate": min(sup),
        "unsupervised_mean_rate": sum(uns) / len(uns),
        "supervised_mean_rate": sum(sup) / len(sup),
    }


@pytest.mark.benchmark(group="T16")
def test_t16_availability_ablation(benchmark):
    out = run_experiment(benchmark, _experiment)
    print_table(
        f"T16: {READS} paced reads through a scripted fault storm",
        ["config", "seed", "completion", "max gap", "writes", "violations"],
        out["rows"])
    # Acceptance (ISSUE 3): the supervised read path rides through the
    # storm on every seed, and strictly beats the bare-circuit baseline.
    assert out["supervised_min_rate"] >= 0.95, out["supervised_min_rate"]
    assert out["supervised_mean_rate"] > out["unsupervised_mean_rate"]
    res = out["results"]
    for seed in SEEDS:
        sup, uns = res["supervised"][seed], res["unsupervised"][seed]
        assert sup["completion_rate"] > uns["completion_rate"], seed
        # The invariant checker ran after the heals and found the store
        # intact under supervision.
        assert sup["violations"] == 0, seed
        # Time-to-recover stays bounded: no outage ever exceeds a few
        # read periods even while a storage site is down.
        assert sup["max_recovery_gap"] <= 600.0, seed
    # On average supervision recovers at least as fast as waiting for the
    # reconfiguration protocol to substitute a copy.  One read period of
    # slack: batching flags shift individual read completion times by a
    # few vtime units without changing the recovery behaviour.
    sup_gap = sum(res["supervised"][s]["max_recovery_gap"]
                  for s in SEEDS) / len(SEEDS)
    uns_gap = sum(res["unsupervised"][s]["max_recovery_gap"]
                  for s in SEEDS) / len(SEEDS)
    assert sup_gap <= uns_gap + READ_INTERVAL, (sup_gap, uns_gap)


@pytest.mark.benchmark(group="T16")
def test_t16_determinism(benchmark):
    """The same seed + plan replays an identical fault trace AND an
    identical read log — the whole storm is reproducible."""
    def _twice():
        a = _run_storm(SEEDS[0], {})
        b = _run_storm(SEEDS[0], {})
        return {"equal": a["_trace"] == b["_trace"]
                and a["_reads"] == b["_reads"]}
    out = run_experiment(benchmark, _twice)
    assert out["equal"]


if __name__ == "__main__":
    out = _experiment()
    baseline = {
        "experiment": "T16 availability under scripted fault storm",
        "seeds": SEEDS,
        "reads_per_run": READS,
        "results": {label: {str(s): out["results"][label][s] for s in SEEDS}
                    for label, __ in COMBOS},
        "supervised_min_rate": out["supervised_min_rate"],
        "supervised_mean_rate": round(out["supervised_mean_rate"], 4),
        "unsupervised_mean_rate": round(out["unsupervised_mean_rate"], 4),
    }
    with open("BENCH_availability.json", "w") as fh:
        json.dump(baseline, fh, indent=2, default=str)
        fh.write("\n")
    json.dump(baseline, sys.stdout, indent=2, default=str)
    print()
