"""T19 — chaos-fuzzer throughput and shrink efficiency.

Like T18, the reproduced quantity is partly *wall-clock* (scenarios/sec
through the generate → run → judge loop) and partly structural: the
fuzzer's value rests on two deterministic claims that are asserted, not
measured —

* same seed ⇒ byte-identical plan JSON and identical run digest, so any
  soak failure is replayable from its seed alone;
* the shrinker converges: a planted op/fault-conjunction bug in a
  generated storm reduces to its 2-event minimum, and the reduction
  ratio on the committed regression corpus is recorded.

Run ``python benchmarks/test_t19_fuzz.py`` to regenerate BENCH_fuzz.json
(a larger seed batch plus the corpus ledger; a few minutes), or with
``--ledger`` to recompute only its ``ledger`` section (about 20 s; CI
diffs the result against the committed file).  The pytest entry points
run a reduced batch.

The ``ledger`` section replays every plan of the frozen ``chaos_fuzz``
corpus (``bench/corpus/chaos_plans.json``) and, apart, the seeds the
freeze excluded, and records per plan what convergence cost: verdict, run
digest, messages, wire bytes, simulator events, recovery retries (and how
many a spent retry budget stopped), the inventory replies packs served as
whole tables, the inventory requests sent (``fs.pack_inventory`` and
``fs.scrub_digest``), the pushes recovery scheduled to storage sites
lacking the best copy, and task deaths.  Every field is
deterministic, so a diff of the committed file shows which plans a change
moved.
"""

import hashlib
import json
import os
import sys
import time

import pytest

from repro.fuzz.generate import generate_plan
from repro.fuzz.oracle import SyntheticOracle
from repro.fuzz.plan import FuzzPlan
from repro.fuzz.runner import PlanRunner, run_plan
from repro.fuzz.shrink import shrink_failing_result
from _harness import print_table, run_experiment

# Full batch (BENCH_fuzz.json, __main__ only) — the open-findings
# ledger: the same 30 seeds the nightly CI gate replays.
FULL = dict(seeds=range(1, 31), n_ops=40, n_faults=8)
# Reduced batch for the pytest smoke run.
SMOKE = dict(seeds=range(11, 15), n_ops=20, n_faults=4)
CORPUS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "corpus", "chaos_plans.json")


def _fuzz_batch(seeds, n_ops, n_faults):
    """Run one seed batch through generate → run → judge; wall-clock
    throughput plus the failure census."""
    started = time.perf_counter()
    runs = ops = fault_events = 0
    failed = {}
    for seed in seeds:
        result = run_plan(generate_plan(seed, n_ops=n_ops,
                                        n_faults=n_faults))
        runs += 1
        ops += len(result.run.oplog)
        fault_events += len(result.run.injector.trace)
        if not result.ok:
            failed[seed] = sorted({v.kind for v in result.violations})
    wall = time.perf_counter() - started
    return {
        "runs": runs, "ops": ops, "fault_events": fault_events,
        "wall_s": round(wall, 2),
        "scenarios_per_sec": round(runs / wall, 3),
        "ops_per_sec": round(ops / wall, 1),
        "fail_rate": round(len(failed) / runs, 3),
        "failed_seeds": failed,
    }


def _determinism(seed, n_ops, n_faults):
    """The replayability claim: plan JSON and run digest are pure
    functions of the seed."""
    plans = {generate_plan(seed, n_ops=n_ops, n_faults=n_faults).to_json()
             for __ in range(2)}
    digests = {PlanRunner(generate_plan(seed, n_ops=n_ops,
                                        n_faults=n_faults)).run().digest()
               for __ in range(2)}
    return {"plan_stable": len(plans) == 1,
            "digest_stable": len(digests) == 1}


def _shrink_demo():
    """The planted SyntheticOracle bug: generated storm → 2-event
    minimum, with the predicate-run budget actually spent."""
    result = run_plan(generate_plan(100, n_ops=10, n_faults=4, span=400.0),
                      oracle=SyntheticOracle())
    assert not result.ok
    started = time.perf_counter()
    outcome = shrink_failing_result(result, oracle=SyntheticOracle(),
                                    max_attempts=80)
    wall = time.perf_counter() - started
    before = result.plan.event_count()
    after = outcome.plan.event_count()
    return {"events_before": before, "events_after": after,
            "reduction": round(before / after, 2),
            "predicate_runs": outcome.attempts,
            "wall_s": round(wall, 2)}


def _scrub_overhead():
    """What the anti-entropy scrub costs: the same divergence-then-heal
    scenario with the flag on and off, compared on virtual time and
    message count.  Fault-free traffic is identical by construction (the
    sweep only triggers from the merge procedure), so the interesting
    number is the per-heal overhead of the digest rounds."""
    from repro import LocusCluster
    from repro.config import CostModel

    out = {}
    for flag in (True, False):
        cluster = LocusCluster(
            n_sites=3, seed=19,
            cost=CostModel().with_overrides(scrub_enabled=flag))
        sh = cluster.shell(0)
        sh.setcopies(3)
        for i in range(8):
            sh.write_file(f"/f{i}", bytes([i]) * 600)
        cluster.settle()
        faultfree = {"vtime": cluster.sim.now,
                     "messages": cluster.net.stats.total_messages}
        cluster.partition({0}, {1, 2})
        for i in range(8):
            sh.write_file(f"/f{i}", bytes([i + 100]) * 900)
        cluster.heal()
        cluster.settle()
        out["on" if flag else "off"] = {
            "fault_free": faultfree,
            "after_heal": {"vtime": cluster.sim.now,
                           "messages": cluster.net.stats.total_messages},
            "scrub_msgs": sum(n for k, n in cluster.net.stats.sent.items()
                              if k.startswith("fs.scrub_digest")),
        }
    on, off = out["on"], out["off"]
    out["fault_free_parity"] = on["fault_free"] == off["fault_free"]
    out["heal_overhead"] = {
        "messages": on["after_heal"]["messages"]
        - off["after_heal"]["messages"],
        "vtime": round(on["after_heal"]["vtime"]
                       - off["after_heal"]["vtime"], 1),
    }
    return out


def _ledger_row(seed, result):
    """One plan's line of the ledger."""
    cluster = result.run.cluster
    return {
        "seed": seed,
        "verdict": ", ".join(sorted({v.kind for v in result.violations}))
        or "clean",
        "digest": result.digest(),
        "messages": cluster.net.stats.total_messages,
        "bytes": cluster.net.stats.total_bytes,
        "events": cluster.sim.events_processed,
        "retries_scheduled": sum(site.recovery.stats.retries_scheduled
                                 for site in cluster.sites),
        "retries_exhausted": sum(site.recovery.stats.retries_exhausted
                                 for site in cluster.sites),
        "full_inventories": sum(site.recovery.stats.inventories_full
                                for site in cluster.sites),
        "inventories": sum(cluster.net.stats.sent[op] for op in
                           ("fs.pack_inventory", "fs.scrub_digest")),
        "pushes": sum(site.recovery.stats.propagations_scheduled
                      for site in cluster.sites),
        "pull_opens": cluster.net.stats.sent["fs.pull_open"],
        "deaths": len(result.deaths),
    }


def _ledger_totals(rows):
    digests = hashlib.sha1()
    for row in rows:
        digests.update(row["digest"].encode())
    totals = {"plans": len(rows),
              "clean": sum(row["verdict"] == "clean" for row in rows),
              "digest_of_digests": digests.hexdigest()}
    for key in ("messages", "bytes", "events", "retries_scheduled",
                "retries_exhausted", "full_inventories", "inventories",
                "pushes", "pull_opens", "deaths"):
        totals[key] = sum(row[key] for row in rows)
    return totals


def _corpus_ledger():
    """Replay the frozen corpus plan by plan, then the excluded seeds at
    the corpus's scale."""
    with open(CORPUS) as fh:
        corpus = json.load(fh)
    plans = [_ledger_row(entry["source_seed"],
                         run_plan(FuzzPlan.from_dict(entry["plan"])))
             for entry in corpus["plans"]]
    excluded = [_ledger_row(entry["source_seed"],
                            run_plan(generate_plan(entry["source_seed"],
                                                   **corpus["scale"])))
                for entry in corpus["excluded"]]
    return {"scale": corpus["scale"],
            "totals": _ledger_totals(plans),
            "excluded_totals": _ledger_totals(excluded),
            "plans": plans, "excluded": excluded}


def _experiment(scale):
    batch = _fuzz_batch(**scale)
    det = _determinism(next(iter(scale["seeds"])),
                       scale["n_ops"], scale["n_faults"])
    shrink = _shrink_demo()
    scrub = _scrub_overhead()
    return {"batch": batch, "determinism": det, "shrink": shrink,
            "scrub_overhead": scrub, "ledger": _corpus_ledger()}


# -- pytest entry points ---------------------------------------------------

@pytest.mark.benchmark(group="T19")
def test_t19_fuzz_throughput(benchmark):
    out = run_experiment(benchmark, lambda: _fuzz_batch(**SMOKE))
    print_table("T19 fuzz throughput (smoke batch)",
                ["runs", "ops", "faults", "scen/s", "fail rate"],
                [[out["runs"], out["ops"], out["fault_events"],
                  out["scenarios_per_sec"], out["fail_rate"]]])
    assert out["runs"] == len(list(SMOKE["seeds"]))
    assert out["ops"] > 0 and out["fault_events"] > 0


@pytest.mark.benchmark(group="T19")
def test_t19_seed_determinism(benchmark):
    out = run_experiment(
        benchmark, lambda: _determinism(11, SMOKE["n_ops"],
                                        SMOKE["n_faults"]))
    assert out["plan_stable"] and out["digest_stable"]


@pytest.mark.benchmark(group="T19")
def test_t19_shrink_efficiency(benchmark):
    out = run_experiment(benchmark, _shrink_demo)
    print_table("T19 shrink efficiency (planted bug)",
                ["before", "after", "reduction", "runs"],
                [[out["events_before"], out["events_after"],
                  out["reduction"], out["predicate_runs"]]])
    assert out["events_after"] <= 10
    assert out["reduction"] >= 5.0


@pytest.mark.benchmark(group="T19")
def test_t19_scrub_overhead(benchmark):
    out = run_experiment(benchmark, _scrub_overhead)
    print_table("T19 scrub overhead (divergence + heal)",
                ["ff parity", "heal msgs", "heal vtime", "digest msgs"],
                [[out["fault_free_parity"],
                  out["heal_overhead"]["messages"],
                  out["heal_overhead"]["vtime"],
                  out["on"]["scrub_msgs"]]])
    assert out["fault_free_parity"], \
        "scrub_enabled changed fault-free traffic"
    assert out["on"]["scrub_msgs"] > 0      # the sweep actually ran
    assert out["off"]["scrub_msgs"] == 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--ledger"]:
        # Only the deterministic ledger, into the committed file's other
        # sections: what CI diffs against the committed BENCH_fuzz.json.
        with open("BENCH_fuzz.json") as fh:
            baseline = json.load(fh)
        baseline["ledger"] = _corpus_ledger()
        report = {key: baseline["ledger"][key]
                  for key in ("totals", "excluded_totals")}
    else:
        out = _experiment(FULL)
        baseline = report = {
            "experiment": "T19 chaos-fuzzer throughput and shrink "
                          "efficiency",
            "batch": out["batch"],
            "determinism": out["determinism"],
            "shrink": out["shrink"],
            "scrub_overhead": out["scrub_overhead"],
            "ledger": out["ledger"],
        }
    with open("BENCH_fuzz.json", "w") as fh:
        json.dump(baseline, fh, indent=2, default=str)
        fh.write("\n")
    json.dump(report, sys.stdout, indent=2, default=str)
    print()
