"""Regenerate ``bench/corpus/chaos_plans.json``, the frozen ``chaos_fuzz`` input.

Run only by an issue whose subject is the benchmark itself: the corpus is
the workload, so regenerating it re-bases every ``chaos_fuzz`` number.

    python3 bench/freeze_corpus.py            # rewrites the corpus file

Candidates are ``generate_plan(seed, n_ops=40, n_faults=8, n_sites=3)`` for
seed = 1, 2, ... (the scale the repository's fuzz gate runs at).  Each
candidate is executed in a child interpreter with a hard timeout, because
a runaway plan can spin inside kernel code whose ``except Exception``
swallows an in-process alarm.  A candidate is admitted when its oracle
verdict is clean and it needed at most ``MAX_EVENTS`` simulator events;
otherwise it is listed under ``excluded`` with reason ``oracle_fail`` or
``runaway``, so that a later benchmark issue can re-admit it once fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CORPUS = os.path.join(HERE, "corpus", "chaos_plans.json")

SCALE = {"n_ops": 40, "n_faults": 8, "n_sites": 3}
N_PLANS = 120
MAX_EVENTS = 30_000
TIMEOUT_S = 15.0


def probe(seed: int) -> dict:
    """Generate and run one candidate in this process."""
    sys.path.insert(0, SRC)
    from repro.fuzz import generate_plan, run_plan
    plan = generate_plan(seed, **SCALE)
    result = run_plan(plan)
    return {
        "plan": plan.to_dict(),
        "events": result.run.cluster.sim.events_processed,
        "violations": sorted({v.kind for v in result.violations}),
    }


def classify(seed: int) -> dict:
    """Run ``probe(seed)`` in a child with a hard timeout and classify it."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", str(seed)],
            capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"source_seed": seed, "reason": "runaway",
                "detail": f"not finished after {TIMEOUT_S:g} s"}
    if proc.returncode != 0:
        return {"source_seed": seed, "reason": "runaway",
                "detail": "crashed: " + proc.stderr.strip().splitlines()[-1]}
    out = json.loads(proc.stdout.splitlines()[-1])
    if out["violations"]:
        return {"source_seed": seed, "reason": "oracle_fail",
                "detail": ", ".join(out["violations"])}
    if out["events"] > MAX_EVENTS:
        return {"source_seed": seed, "reason": "runaway",
                "detail": f"{out['events']} events > {MAX_EVENTS}"}
    return {"source_seed": seed, "events_at_freeze": out["events"],
            "plan": out["plan"]}


def freeze(path: str) -> None:
    plans, excluded = [], []
    seed = 0
    while len(plans) < N_PLANS:
        seed += 1
        entry = classify(seed)
        (plans if "plan" in entry else excluded).append(entry)
        print(f"seed {seed}: {entry.get('reason', 'admitted')} "
              f"{entry.get('detail', entry.get('events_at_freeze'))}",
              flush=True)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    dump = lambda obj: json.dumps(obj, sort_keys=True,
                                  separators=(",", ":"))
    with open(path, "w") as fh:
        # One plan per line: a re-freeze diffs plan by plan.
        fh.write('{"scale":%s,"max_events":%d,"timeout_s":%g,\n'
                 % (dump(SCALE), MAX_EVENTS, TIMEOUT_S))
        fh.write('"excluded":[\n'
                 + ",\n".join(dump(e) for e in excluded) + "\n],\n")
        fh.write('"plans":[\n'
                 + ",\n".join(dump(p) for p in plans) + "\n]}\n")
    print(f"wrote {path}: {len(plans)} plans from seeds 1..{seed}, "
          f"{len(excluded)} excluded")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--probe", type=int, metavar="SEED",
                    help="internal: run one candidate, print its record")
    ap.add_argument("--out", default=CORPUS)
    args = ap.parse_args(argv)
    if args.probe is not None:
        print(json.dumps(probe(args.probe)))
    else:
        freeze(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
