"""How steady is the benchmark?  The acceptance check of a benchmark issue.

    python3 bench/spread.py [--seeds 1-10] [--only WORKLOAD] [--out FILE]

Runs the command of BENCHMARK.json once per seed on every workload, exactly
as the regression driver does (``--workload W --seed N --seconds
run_seconds --trace 0``), and prints for every workload x end-to-end metric
the median over the seeds and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median.  A bound in BENCHMARK.json is sound when every spread is below
a third of it (``setup_s`` excepted: it only has to keep its median).
Takes about four minutes per seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, load_spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="FIRST-LAST")
    ap.add_argument("--only", metavar="WORKLOAD")
    ap.add_argument("--out", metavar="FILE", help="write every value here")
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = load_spec()
    values = {}     # workload -> metric -> one value per seed
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        if args.only not in (None, workload):
            continue
        per_metric = values[workload] = {}
        for seed in range(first, last + 1):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed",
                                   str(seed), "--seconds",
                                   str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"correct={result['correct']}, "
                      f"failed={result['failed']}")
                steady = False
            for name, rec in result["metrics"].items():
                per_metric.setdefault(name, []).append(rec["value"])
        print(f"{workload:<20} {'metric':<18} {'median':>13} {'spread':>8} "
              f"{'bound/3':>8}")
        for metric in spec["end_to_end"]:
            seen = per_metric[metric["name"]]
            q1, __, q3 = statistics.quantiles(seen, n=4)
            spread = (q3 - q1) / statistics.median(seen)
            ok = spread <= metric["bound"] / 3 or metric["name"] == "setup_s"
            steady = steady and ok
            print(f"{'':<20} {metric['name']:<18} "
                  f"{statistics.median(seen):>13.6g} {spread:>8.4f} "
                  f"{metric['bound'] / 3:>8.4f}{'' if ok else '  TOO WIDE'}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(values, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
