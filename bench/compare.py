"""Compare two result files of ``bench/run.py --out``: is B worse than A?

    python3 bench/compare.py A.json B.json [--exact]

One row per workload x end-to-end metric: A's value (the base), B's value,
the ratio B/A, the bound from BENCHMARK.json and a verdict:

* ``ok``          B is not worse than A by more than the bound;
* ``regressed``   it is;
* ``unresolved``  the rounds of A or of B differ among themselves by more
                  than the bound, so this pair of runs cannot tell.

Exits non-zero on a regression, on a larger share of failed ops, on a wrong
result, or on a workload missing or killed in either file.  ``--exact`` is
for two runs of the *same* commit and seed: every virtual-time and count
metric, end to end and per layer, must then agree exactly, and an
``unresolved`` row fails too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import is_host_metric, load_spec


def spread(rec: dict) -> float:
    """Distance between the quartiles of a host-time metric's rounds, as a
    share of their median (the driver's measure of spread); 0 for a metric
    that repeats exactly or has a single round."""
    rounds = rec.get("rounds", ())
    if len(rounds) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(rounds, n=4)
    return (q3 - q1) / statistics.median(rounds)


def compare(a: dict, b: dict, spec: dict, exact: bool) -> bool:
    """Print the table; return True when B passes."""
    passed = True
    print(f"{'workload':<20} {'metric':<18} {'A (base)':>13} {'B':>13} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        wa = a["workloads"].get(workload)
        wb = b["workloads"].get(workload)
        if not wa or not wb or "killed" in wa or "killed" in wb:
            print(f"{workload:<20} missing or killed in "
                  f"{'A' if not wa or 'killed' in wa else 'B'}")
            passed = False
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ra, rb = wa["end_to_end"][name], wb["end_to_end"][name]
            base, new = ra["value"], rb["value"]
            worse = (new - base) / base
            if metric["better"] == "higher":
                worse = -worse
            if max(spread(ra), spread(rb)) > bound:
                verdict = "unresolved"
                passed = passed and not exact
            elif worse > bound:
                verdict = "regressed"
                passed = False
            else:
                verdict = "ok"
            print(f"{workload:<20} {name:<18} {base:>13.6g} {new:>13.6g} "
                  f"{new / base:>7.4f} {bound:>6.3g}  {verdict}")
        share_a = wa["failed"] / wa["attempted"]
        share_b = wb["failed"] / wb["attempted"]
        if share_b > share_a or wa["wrong_results"] or wb["wrong_results"]:
            print(f"{workload:<20} failed share {share_a:.4g} -> "
                  f"{share_b:.4g}, wrong results {wa['wrong_results']} -> "
                  f"{wb['wrong_results']}  FAIL")
            passed = False
        differing = [
            f"{section}:{name}"
            for section in ("end_to_end", "per_layer")
            for name, rec in wa[section].items()
            if not is_host_metric(name)
            and wb[section][name]["value"] != rec["value"]]
        print(f"{workload:<20} virtual/count metrics that differ: "
              f"{len(differing)}"
              + (" (" + ", ".join(differing[:6])
                 + (", ..." if len(differing) > 6 else "") + ")"
                 if differing else ""))
        if exact and differing:
            passed = False
    return passed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("a", metavar="A.json", help="the base")
    ap.add_argument("b", metavar="B.json")
    ap.add_argument("--exact", action="store_true",
                    help="same commit, same seed: virtual/count metrics "
                         "must agree exactly and nothing may be unresolved")
    args = ap.parse_args(argv)
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    passed = compare(a, b, load_spec(), args.exact)
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
