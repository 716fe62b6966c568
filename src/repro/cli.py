"""An interactive operator console for a simulated LOCUS network.

Run with::

    python -m repro.cli [--sites N] [--seed S]

and type ``help`` at the prompt.  Commands operate through an ordinary
per-site shell, so everything the console does exercises the real system
call paths; topology commands drive the experiment harness's hand on the
cables (partition / heal / crash / restart).

The ``trace`` subcommand runs a canned workload (or a FaultPlan file)
with the flight recorder on and dumps the causal trace::

    python -m repro.cli trace --workload storm --seed 11 --out /tmp/t \\
        --check

producing ``trace.jsonl`` (span schema, one record per line) and
``trace.chrome.json`` (load in https://ui.perfetto.dev).  See
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from typing import Dict, List, Optional

from repro import LocusCluster
from repro.errors import LocusError
from repro.tools import cluster_report, fsck
from repro.tools.inspect import format_report

HELP = """\
commands:
  ls [path]                 list a directory
  cat <path>                print a file
  write <path> <text...>    (over)write a file with text
  append <path> <text...>   append text
  mkdir <path>              create a directory
  rm <path>                 unlink a file
  rmdir <path>              remove an empty directory
  mv <old> <new>            rename
  ln <old> <new>            hard link
  stat <path>               inode attributes
  copies <n>                set this shell's replication factor
  site <n>                  switch to a shell on site n
  partition <g1> <g2> ...   split, e.g.  partition 0,1 2,3
  heal                      repair the network and merge
  crash <n> | boot <n>      fail / restart a site
  status                    cluster report
  fsck                      consistency check
  mail <user>               read a user's mailbox
  quit
"""


class Console:
    """State of one interactive session: a cluster plus per-site shells."""

    def __init__(self, n_sites: int = 3, seed: int = 0):
        self.cluster = LocusCluster(n_sites=n_sites, seed=seed)
        self._shells: Dict[int, object] = {}
        self.current = 0

    @property
    def shell(self):
        if self.current not in self._shells:
            self._shells[self.current] = self.cluster.shell(self.current)
        return self._shells[self.current]

    # -- command dispatch -------------------------------------------------

    def run_command(self, line: str) -> Optional[str]:
        """Execute one command line; returns output text (None to quit)."""
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            return f"parse error: {exc}"
        if not argv:
            return ""
        cmd, args = argv[0], argv[1:]
        handler = getattr(self, f"cmd_{cmd}", None)
        if handler is None:
            return f"unknown command {cmd!r} (try: help)"
        try:
            return handler(args)
        except LocusError as exc:
            return f"error: {exc}"
        except (TypeError, IndexError, ValueError):
            return f"usage error for {cmd!r} (try: help)"

    # -- filesystem commands -------------------------------------------------

    def cmd_help(self, args: List[str]) -> str:
        return HELP

    def cmd_ls(self, args: List[str]) -> str:
        path = args[0] if args else "/"
        return "  ".join(self.shell.readdir(path)) or "(empty)"

    def cmd_cat(self, args: List[str]) -> str:
        return self.shell.read_file(args[0]).decode(errors="replace")

    def cmd_write(self, args: List[str]) -> str:
        self.shell.write_file(args[0], " ".join(args[1:]).encode())
        return "ok"

    def cmd_append(self, args: List[str]) -> str:
        fd = self.shell.open(args[0], "w")
        try:
            self.shell.lseek(fd, 0, "end")
            self.shell.write(fd, (" ".join(args[1:])).encode())
        finally:
            self.shell.close(fd)
        return "ok"

    def cmd_mkdir(self, args: List[str]) -> str:
        self.shell.mkdir(args[0])
        return "ok"

    def cmd_rm(self, args: List[str]) -> str:
        self.shell.unlink(args[0])
        return "ok"

    def cmd_rmdir(self, args: List[str]) -> str:
        self.shell.rmdir(args[0])
        return "ok"

    def cmd_mv(self, args: List[str]) -> str:
        self.shell.rename(args[0], args[1])
        return "ok"

    def cmd_ln(self, args: List[str]) -> str:
        self.shell.link(args[0], args[1])
        return "ok"

    def cmd_stat(self, args: List[str]) -> str:
        attrs = self.shell.stat(args[0])
        return "\n".join(
            f"{key}: {attrs[key]}"
            for key in ("ino", "ftype", "size", "owner", "perms", "nlink",
                        "storage_sites", "version", "conflict"))

    def cmd_copies(self, args: List[str]) -> str:
        self.shell.setcopies(int(args[0]))
        return f"replication factor {args[0]}"

    def cmd_mail(self, args: List[str]) -> str:
        site = self.cluster.site(self.current)
        mail = self.cluster.call(self.current,
                                 site.recovery.read_mail(args[0]))
        if not mail:
            return "(no mail)"
        return "\n".join(f"[{m.subject}] {m.body}" for m in mail)

    # -- topology commands -------------------------------------------------

    def cmd_site(self, args: List[str]) -> str:
        n = int(args[0])
        if not 0 <= n < len(self.cluster.sites):
            return f"no site {n}"
        self.current = n
        return f"now at site {n}"

    def cmd_partition(self, args: List[str]) -> str:
        groups = [{int(x) for x in group.split(",")} for group in args]
        self.cluster.partition(*groups)
        return "partitioned: " + " | ".join(
            str(sorted(g)) for g in groups)

    def cmd_heal(self, args: List[str]) -> str:
        self.cluster.heal()
        return "healed; partition sets: " + str(
            [sorted(s.topology.partition_set)
             for s in self.cluster.sites if s.up])

    def cmd_crash(self, args: List[str]) -> str:
        self.cluster.fail_site(int(args[0]))
        self._shells.pop(int(args[0]), None)
        return f"site {args[0]} crashed"

    def cmd_boot(self, args: List[str]) -> str:
        self.cluster.restart_site(int(args[0]))
        return f"site {args[0]} rejoined"

    def cmd_status(self, args: List[str]) -> str:
        return format_report(cluster_report(self.cluster))

    def cmd_fsck(self, args: List[str]) -> str:
        return fsck(self.cluster).summary()

    def cmd_quit(self, args: List[str]) -> Optional[str]:
        return None

    cmd_exit = cmd_quit


# ----------------------------------------------------------------------
# trace subcommand: run a workload or FaultPlan, dump the flight recording
# ----------------------------------------------------------------------

def _run_traced_workload(workload: str, seed: int, sites: int,
                         plan_file: Optional[str] = None):
    """Build a cluster with tracing on, drive the workload, return it."""
    from repro.faults import FaultPlan
    from repro.workloads import storm

    if workload == "storm":
        cluster = storm.storm_cluster(seed, n_sites=max(sites, 3))
    else:
        cluster = LocusCluster(n_sites=sites, seed=seed,
                               root_pack_sites=[0] if sites > 1 else None)
        storm.populate(cluster, copies=min(2, sites))

    if plan_file is not None:
        with open(plan_file) as fh:
            cluster.inject(FaultPlan.from_json(fh.read()))
    elif workload == "storm":
        cluster.inject(storm.storm_plan(seed, cluster.sim.now))

    full = workload == "storm" or plan_file
    storm.drive(cluster, reads=60 if full else 8, writes=12 if full else 2)
    return cluster


def trace_main(argv: List[str]) -> int:
    from repro.obs import export_chrome, export_jsonl, validate_trace_jsonl
    parser = argparse.ArgumentParser(
        prog="repro.cli trace",
        description="Run a workload with the flight recorder on and dump "
                    "the trace (JSONL + Chrome/Perfetto format).")
    parser.add_argument("--workload", choices=("smoke", "storm"),
                        default="smoke")
    parser.add_argument("--plan", default=None,
                        help="FaultPlan JSON file to inject instead of the "
                             "canned storm")
    parser.add_argument("--sites", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--check", action="store_true",
                        help="validate the exported JSONL against the span "
                             "schema; non-zero exit on problems")
    parser.add_argument("--critical-path", action="store_true",
                        help="decompose each syscall's latency into "
                             "queue/wire/service/local blame tables "
                             "(also writes critpath.json)")
    opts = parser.parse_args(argv)

    cluster = _run_traced_workload(opts.workload, opts.seed, opts.sites,
                                   plan_file=opts.plan)
    os.makedirs(opts.out, exist_ok=True)
    jsonl_path = os.path.join(opts.out, "trace.jsonl")
    chrome_path = os.path.join(opts.out, "trace.chrome.json")
    from repro.obs.load import load_records
    n_records = export_jsonl(cluster.tracer, jsonl_path,
                             extra=load_records(cluster))
    n_events = export_chrome(cluster.tracer, chrome_path)

    tracer = cluster.tracer
    print(f"workload={opts.workload} seed={opts.seed} "
          f"vtime={cluster.sim.now:.1f}")
    print(f"{len(tracer.spans)} spans, {len(tracer.instants)} instants")
    print(f"wrote {jsonl_path} ({n_records} records)")
    print(f"wrote {chrome_path} ({n_events} events)")
    for site in cluster.sites:
        for name, stats in sorted(
                site.metrics.latency_summary("syscall.").items()):
            print(f"  site{site.site_id} {name}: n={stats['count']} "
                  f"p50={stats['p50']} p95={stats['p95']} "
                  f"p99={stats['p99']}")
    if opts.critical_path:
        import json
        from repro.obs.critpath import analyze, format_blame
        report = analyze(cluster.tracer)
        print(format_blame(report))
        critpath_path = os.path.join(opts.out, "critpath.json")
        with open(critpath_path, "w") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"wrote {critpath_path}")
    if opts.check:
        problems = validate_trace_jsonl(jsonl_path)
        if problems:
            for p in problems:
                print(f"SCHEMA: {p}", file=sys.stderr)
            return 1
        print("schema check: ok")
    return 0


# ----------------------------------------------------------------------
# top subcommand: deterministic cluster status report
# ----------------------------------------------------------------------

def _top_workload(seed: int, sites: int, ops: int):
    """Drive a Zipf-skewed read workload over two filegroups and return
    ``(cluster, paths)``.  Everything is derived from the seed, so the
    ``top`` report over the result is byte-deterministic."""
    import random
    from repro.workloads.generators import build_tree, sample_paths

    rng = random.Random(seed * 7919 + 13)
    cluster = LocusCluster(n_sites=sites, seed=seed)
    setup = cluster.shell(0)
    paths = build_tree(setup, n_dirs=3, files_per_dir=4, file_size=512,
                       rng=rng, prefix="/w", copies=min(2, sites))
    # A second, cold filegroup so the CSS table has something to rank.
    setup.mkdir("/aux")
    cluster.add_filegroup("aux", pack_sites=[sites - 1], mount_at="/aux")
    setup.write_file("/aux/cold", b"c" * 256)
    cluster.settle()
    reader = cluster.shell(min(1, sites - 1))
    for path in sample_paths(rng, paths, ops):
        try:
            reader.read_file(path)
        except LocusError:
            pass
    try:
        reader.read_file("/aux/cold")
    except LocusError:
        pass
    cluster.settle()
    return cluster, paths


def top_main(argv: List[str]) -> int:
    from repro.obs.load import format_top
    parser = argparse.ArgumentParser(
        prog="repro.cli top",
        description="Deterministic cluster status report: per-site "
                    "syscall/RPC rates, hottest inodes, CSS load ranking, "
                    "open conflicts and scrub/recovery backlog.")
    parser.add_argument("--sites", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=60,
                        help="Zipf-sampled reads to drive before reporting")
    opts = parser.parse_args(argv)
    cluster, __ = _top_workload(opts.seed, opts.sites, opts.ops)
    print(format_top(cluster))
    return 0


# ----------------------------------------------------------------------
# fuzz subcommand: randomized scenarios, auto-shrinking, soak loops
# ----------------------------------------------------------------------

def fuzz_main(argv: List[str]) -> int:
    from repro.fuzz import FuzzPlan, run_plan, soak
    parser = argparse.ArgumentParser(
        prog="repro.cli fuzz",
        description="Chaos fuzzing: run seeded random workload+fault "
                    "scenarios against the cluster, judge the merged end "
                    "state, auto-shrink failures to minimal replayable "
                    "plans (see docs/FAULTS.md).")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; soak runs use seed, seed+1, ...")
    parser.add_argument("--runs", type=int, default=None,
                        help="number of scenarios (default 1, or until "
                             "--soak expires)")
    parser.add_argument("--soak", type=float, default=None, metavar="MIN",
                        help="keep fuzzing for this many wall-clock "
                             "minutes")
    parser.add_argument("--shrink", action="store_true",
                        help="auto-shrink failing scenarios to minimal "
                             "plans")
    parser.add_argument("--replay", default=None, metavar="PLAN.json",
                        help="replay a committed FuzzPlan instead of "
                             "generating scenarios")
    parser.add_argument("--ops", type=int, default=60,
                        help="workload ops per generated scenario")
    parser.add_argument("--faults", type=int, default=8,
                        help="fault events per generated scenario")
    parser.add_argument("--sites", type=int, default=3)
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write failing plans (and shrunk minima) "
                             "here, named fuzz-<seed>[-shrunk].json")
    opts = parser.parse_args(argv)

    if opts.replay is not None:
        with open(opts.replay) as fh:
            plan = FuzzPlan.from_json(fh.read())
        result = run_plan(plan)
        print(result.report())
        digest = result.digest()
        print(f"run digest: {digest}")
        if plan.expect_digest is not None and digest != plan.expect_digest:
            # The plan no longer reproduces the interleaving it was
            # minimised for: its regression value is gone even if the run
            # happens to pass, so fail loudly and say what drifted.
            print(f"digest mismatch: expected {plan.expect_digest}, "
                  f"got {digest} — the recorded fault interleaving no "
                  f"longer reproduces")
            return 1
        return 0 if result.ok else 1

    runs = opts.runs
    if runs is None and opts.soak is None:
        runs = 1
    stats = soak(opts.seed, runs=runs, minutes=opts.soak,
                 n_ops=opts.ops, n_faults=opts.faults,
                 n_sites=opts.sites, shrink=opts.shrink,
                 out_dir=opts.out, log=print)
    print(stats.report())
    return 0 if stats.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "top":
        return top_main(argv[1:])
    if argv and argv[0] == "fuzz":
        return fuzz_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    opts = parser.parse_args(argv)
    console = Console(n_sites=opts.sites, seed=opts.seed)
    print(f"LOCUS console: {opts.sites} sites (type 'help')")
    while True:
        try:
            line = input(f"locus[site {console.current}]$ ")
        except EOFError:
            break
        out = console.run_command(line)
        if out is None:
            break
        if out:
            print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
