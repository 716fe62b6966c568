"""One benchmark round in a fresh interpreter: set up, measure one window,
verify, print one JSON object on the last line of stdout.

Run by ``bench/run.py``, never by hand in a measurement (it is handy for
debugging a workload: ``python3 bench/round.py --workload rpc_storm
--seed 1 --t0 0``).  ``--t0`` is the parent's ``time.time()`` just before
it spawned this process, so ``setup_s`` covers interpreter start-up,
``import repro``, input generation, cluster build, population and settle.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile (exact, no interpolation)."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--scale", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up: one more setup_s sample")
    ap.add_argument("--layers", action="store_true",
                    help="also run the blame-table analysis and the "
                         "space census (per-layer rounds)")
    ap.add_argument("--profile", action="store_true",
                    help="run the window under cProfile and report "
                         "per-layer self time (implies --layers)")
    args = ap.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import layers
    import workloads

    profile = None
    if args.profile:
        import cProfile
        profile = cProfile.Profile()
    wl = workloads.WORKLOADS[args.workload](
        args.seed, scale=args.scale, layers=args.layers or args.profile,
        profile=profile)
    # Told to the parent first, so that a round it has to kill still
    # counts every op it should have run as failed.
    print(json.dumps({"planned_ops": wl.planned_ops}), flush=True)
    wl.setup()
    gc.collect()
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl.window()
    wl.verify()

    ops = len(wl.lat)
    lat = sorted(wl.lat)
    virtual = {
        "ops": ops,
        "fingerprint": wl.fingerprint,
        "failed": wl.failed,
        "ok_share": (ops - wl.errors) / ops,
        "vlat_p50": percentile(lat, 50),
        "vlat_p99": percentile(lat, 99),
        "vlat_mean": sum(lat) / ops,
        "window_vt": wl.window_vt,
        "vops_per_kvt": 1000.0 * ops / wl.window_vt,
        "msgs_per_op": wl.counts.raw["net.messages"] / ops,
        "wire_bytes_per_op": wl.counts.raw["net.bytes"] / ops,
    }
    out = {
        "workload": wl.name,
        "op": wl.op,
        "seed": args.seed,
        "wrong": wl.wrong,
        "setup_s": setup_s,
        "window_s": wl.window_s,
        "ops_per_s": ops / wl.window_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virtual": virtual,
        "counts": wl.counts.metrics(ops),
    }
    if profile is not None:
        out["profile"] = layers.layer_table(
            profile, wl.window_s, wl.counts.raw["net.messages"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
