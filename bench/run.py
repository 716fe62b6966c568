"""The benchmark's one command.

Two ways to call it, both from the root of a checkout:

* one workload, the form the regression driver uses::

      python3 bench/run.py --workload fs_read_zipf --seed 11 --seconds 18 --trace 0

  prints progress on stderr and, as the last line of stdout, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` holding every
  end-to-end metric of BENCHMARK.json (``--trace 0``) or every per-layer
  metric (``--trace 1``);

* the whole suite, for a person::

      python3 bench/run.py --seed 11 --out bench/results.json

  runs all four workloads, untraced then traced, prints every metric by
  name with its unit, writes the result file ``bench/compare.py`` reads,
  and exits non-zero on a wrong result, a non-deterministic round or a
  killed workload.  ``--quick`` divides every count by 10 and runs one
  round; ``--only WORKLOAD`` restricts the suite.

Each round is a fresh child interpreter (``bench/round.py``), run one after
another.  Host-time metrics are the median over the rounds; virtual-time
and count metrics must be identical in every round, or the run fails as
non-deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Wall seconds of one untraced round (set-up + window + checks) at the
# commit that added the benchmark, rounded up.  The hang guard kills a
# child that takes 10x as long; a traced round is allowed TRACED_X more.
ROUND_WALL_S = {"fs_read_zipf": 7, "fs_write_replicated": 9,
                "rpc_storm": 6, "chaos_fuzz": 13}
TRACED_X = 4
# The driver allows a run 180 s; leave room to report a killed child.
RUN_LIMIT_S = 150.0

HOST_METRICS = ("ops_per_s", "setup_s", "peak_rss_mb")
# setup_s is short and so the noisiest metric: sample it at least this
# often per run, with set-up-only children once the rounds are done.
SETUP_SAMPLES = 5


def is_host_metric(name: str) -> bool:
    """Measured on the host clock (or in host memory), so it varies from
    run to run; every other metric is virtual time or a count and repeats
    exactly for a fixed seed."""
    return (name in HOST_METRICS or name.endswith(".self_s")
            or name in ("trace_overhead_x", "profile.attributed_share",
                        "sim.host_us_per_event"))


class BenchError(Exception):
    """The run cannot produce a trustworthy result; ``planned_ops`` is how
    many ops the dead round should have run, if it got far enough to say."""

    def __init__(self, message: str, child_stdout=None):
        super().__init__(message)
        self.planned_ops = 1
        if isinstance(child_stdout, bytes):
            child_stdout = child_stdout.decode(errors="replace")
        for line in (child_stdout or "").splitlines():
            if line.startswith('{"planned_ops"'):
                self.planned_ops = json.loads(line)["planned_ops"]


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_round(workload: str, seed: int, scale: int, mode: str,
              timeout: float) -> dict:
    """One round in a child interpreter; ``mode`` is '', 'layers',
    'profile' or 'setup-only'.  Raises BenchError if the child hangs or
    crashes."""
    cmd = [sys.executable, os.path.join(HERE, "round.py"),
           "--workload", workload, "--seed", str(seed),
           "--scale", str(scale), "--t0", repr(time.time())]
    if mode:
        cmd.append("--" + mode)
    try:
        # subprocess.run kills the child and waits for it on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: round killed after {timeout:.0f} s "
                         f"(hang guard)", exc.stdout) from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: round exited with code "
                         f"{proc.returncode}", proc.stdout)
    return json.loads(proc.stdout.splitlines()[-1])


def check_identical(workload: str, rounds: list) -> None:
    """Virtual-time and count metrics repeat exactly, or the simulator is
    not deterministic and no number from this run means anything."""
    first = rounds[0]
    for i, other in enumerate(rounds[1:], start=2):
        for section in ("virtual", "counts"):
            for key, value in first[section].items():
                if other[section].get(key) != value:
                    raise BenchError(
                        f"{workload}: non-deterministic: {key} = {value!r} "
                        f"in round 1, {other[section].get(key)!r} in "
                        f"round {i}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: int = 1, max_rounds: int = 0) -> dict:
    """Run rounds of ``workload`` and fold them into one result.

    Untraced: rounds repeat until ``seconds`` of measured window have
    passed (to the nearest round, at least one, at most ``max_rounds`` if
    set).  Traced: one plain round, then one round under cProfile; the
    second is a fixed amount of work that takes about TRACED_X as long.
    """
    started = time.monotonic()

    def one(mode: str) -> dict:
        limit = ROUND_WALL_S[workload] * 10.0
        if mode == "profile":
            limit *= TRACED_X
        left = RUN_LIMIT_S - (time.monotonic() - started)
        rnd = run_round(workload, seed, scale, mode,
                        timeout=max(1.0, min(limit, left)))
        if mode != "setup-only":
            print(f"  {workload} {mode or 'plain'} round: "
                  f"{rnd['ops_per_s']:.1f} ops/s, window "
                  f"{rnd['window_s']:.2f} s, setup {rnd['setup_s']:.2f} s",
                  file=sys.stderr, flush=True)
        return rnd

    if trace:
        rounds = [one("layers"), one("profile")]
    else:
        rounds = [one("")]
        measured = rounds[0]["window_s"]
        while (len(rounds) != max_rounds      # to the nearest round:
               and measured + 0.5 * measured / len(rounds) < seconds):
            rounds.append(one(""))
            measured += rounds[-1]["window_s"]
    check_identical(workload, rounds)
    setups = [r["setup_s"] for r in rounds]
    if not trace and max_rounds != 1:
        while len(setups) < SETUP_SAMPLES:
            setups.append(one("setup-only")["setup_s"])

    first = rounds[0]
    virtual = first["virtual"]
    result = {
        "workload": workload,
        "op": first["op"],
        "seed": seed,
        "rounds": len(rounds),
        "attempted": virtual["ops"] * len(rounds),
        "failed": virtual["failed"] * len(rounds),
        "wrong": sum(r["wrong"] for r in rounds),
        "virtual": virtual,
    }
    if trace:
        plain, traced = rounds
        per_layer = dict(traced["counts"])
        per_layer.update(traced["profile"])
        per_layer["sim.host_us_per_event"] = (
            1e6 * plain["window_s"] / per_layer["sim.events"])
        per_layer["trace_overhead_x"] = (traced["window_s"]
                                         / plain["window_s"])
        result["per_layer"] = per_layer
    else:
        host = {}
        for name in HOST_METRICS:
            values = setups if name == "setup_s" else [r[name]
                                                       for r in rounds]
            host[name] = {"value": statistics.median(values),
                          "min": min(values), "max": max(values),
                          "rounds": values}
        result["host"] = host
    return result


def metric_values(result: dict, spec: dict, trace: bool) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics BENCHMARK.json
    lists; a name the run did not produce is a bug, not a zero."""
    out = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        if trace:
            value = result["per_layer"][name]
        elif name in result["host"]:
            value = result["host"][name]["value"]
        else:
            value = result["virtual"][name]
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


# ----------------------------------------------------------------------
# The whole suite
# ----------------------------------------------------------------------

def run_suite(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.only:
        if args.only not in names:
            raise SystemExit(f"unknown workload {args.only!r}; "
                             f"choose from {names}")
        names = [args.only]
    scale, max_rounds = (10, 1) if args.quick else (1, 0)
    summary = {"seed": args.seed, "seconds": args.seconds,
               "quick": args.quick, "workloads": {}}
    bad = []
    for name in names:
        try:
            plain = measure(name, args.seed, args.seconds, False,
                            scale, max_rounds)
            traced = measure(name, args.seed, args.seconds, True, scale)
            if traced["virtual"] != plain["virtual"]:
                raise BenchError(f"{name}: the traced pass changed a "
                                 f"virtual metric; tracing may only "
                                 f"change host time")
        except BenchError as exc:
            print(f"FAILED {exc}", file=sys.stderr)
            bad.append(name)
            summary["workloads"][name] = {
                "killed": str(exc), "correct": False,
                "attempted": exc.planned_ops, "failed": exc.planned_ops}
            continue
        entry = {
            "op": plain["op"],
            "rounds": plain["rounds"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "wrong_results": plain["wrong"] + traced["wrong"],
            "samples": plain["virtual"]["ops"],
            "end_to_end": metric_values(plain, spec, False),
            "per_layer": metric_values(traced, spec, True),
        }
        for metric, host in plain["host"].items():
            entry["end_to_end"][metric].update(
                min=host["min"], max=host["max"], rounds=host["rounds"])
        entry["correct"] = entry["wrong_results"] == 0
        if not entry["correct"]:
            bad.append(name)
        summary["workloads"][name] = entry
        print_workload(name, entry)
    summary["claim"] = None     # a ruler, not a result
    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    if bad:
        print(f"FAILED workloads: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


def print_workload(name: str, entry: dict) -> None:
    print(f"== {name}: {entry['rounds']} rounds, {entry['samples']} ops per "
          f"round, {entry['failed']} failed, "
          f"{entry['wrong_results']} wrong results")
    for section in ("end_to_end", "per_layer"):
        print(f"-- {section}")
        for metric, rec in entry[section].items():
            spread = (f"   (min {rec['min']:.6g}, max {rec['max']:.6g})"
                      if "min" in rec else "")
            print(f"  {metric:<34} {rec['value']:>16.6g} {rec['unit']}"
                  f"{spread}")
    sys.stdout.flush()


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run one workload and print the "
                                       "driver's one-line JSON result")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--only", metavar="WORKLOAD")
    ap.add_argument("--out", metavar="FILE")
    args = ap.parse_args(argv)

    spec = load_spec()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("bench/run.py: no src/repro beside bench/: nothing to "
              "measure", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_suite(args, spec)

    if args.workload not in ROUND_WALL_S:
        raise SystemExit(f"unknown workload {args.workload!r}")
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), 10 if args.quick else 1)
    except BenchError as exc:
        # Never a silent partial result: say what happened and fail.
        print(f"FAILED {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.planned_ops,
                          "failed": exc.planned_ops, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metric_values(result, spec, bool(args.trace)),
    }))
    return 0 if result["wrong"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
