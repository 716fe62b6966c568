"""The flight recorder: histograms, registry, causal traces, exports.

The load-bearing guarantees tested here:

* histograms and percentiles are pure functions of the bucket counts
  (deterministic across platforms and insertion orders);
* tracing is observational only — recording is always on, and the
  kernel's ``GOLDEN`` pin (``test_sim_kernel.py``) proves it never moves
  virtual time, event count or message count;
* the same seed + fault plan exports byte-identical trace files;
* a fault-storm trace contains complete causal chains (US syscall span →
  RPC span → SS handler span) with fault instants and failover
  annotations attached.
"""

import filecmp
import json

import pytest

from repro import LocusCluster
from repro.net.stats import StatsWindow, snapshot
from repro.obs import (BUCKET_EDGES, Histogram, MetricsRegistry,
                       causal_chains, export_chrome, export_jsonl,
                       merge_windows, validate_trace_jsonl)
from repro.workloads.storm import drive, populate, storm_cluster, storm_plan


# ----------------------------------------------------------------------
# Histogram / registry units
# ----------------------------------------------------------------------

class TestHistogram:
    def test_bucket_ladder_shape(self):
        assert BUCKET_EDGES[0] == pytest.approx(0.1)
        assert BUCKET_EDGES[-1] == 100000.0
        assert list(BUCKET_EDGES) == sorted(BUCKET_EDGES)

    def test_observe_and_aggregates(self):
        h = Histogram()
        for v in (0.05, 1.0, 3.0, 250.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(254.05)
        assert h.min == pytest.approx(0.05)
        assert h.max == pytest.approx(250.0)
        assert h.mean == pytest.approx(254.05 / 4)

    def test_percentile_is_bucket_upper_edge(self):
        h = Histogram()
        for __ in range(99):
            h.observe(0.9)     # bucket with edge 1.0
        h.observe(90.0)        # bucket with edge 100.0
        assert h.percentile(50) == 1.0
        assert h.percentile(99) == 1.0
        assert h.percentile(100) == 100.0

    def test_percentile_insertion_order_invariant(self):
        values = [0.3, 7.0, 42.0, 0.15, 900.0, 3.0, 3.0, 61.0]
        a, b = Histogram(), Histogram()
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        for p in (50, 95, 99):
            assert a.percentile(p) == b.percentile(p)

    def test_overflow_bucket_reports_top_edge(self):
        h = Histogram()
        h.observe(1e9)
        assert h.percentile(99) == BUCKET_EDGES[-1]

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(99) == 0.0

    def test_snapshot_diff_windows(self):
        h = Histogram()
        h.observe(1.0)
        win = StatsWindow(h)
        h.observe(500.0)
        h.observe(600.0)
        window = win.close()
        assert window.count == 2
        assert window.total == pytest.approx(1100.0)
        assert window.percentile(50) == 500.0     # the 1.0 is outside
        assert window.min is None and window.max is None   # not counts
        assert h.min == 1.0 and h.max == 600.0

    def test_merge_windows_sums_buckets(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        a.observe(1.0)
        b.observe(800.0)
        merged = merge_windows([{"m": a}, {"m": b}])["m"]
        assert merged["count"] == 3
        assert merged["p50"] == 1.0
        assert merged["p99"] == 1000.0

    def test_to_dict_round_numbers(self):
        h = Histogram()
        h.observe(2.0)
        d = h.to_dict()
        assert d["count"] == 1 and d["p50"] == 2.0 and d["max"] == 2.0


class TestClusterMerge:
    """The public percentile-merge API the benchmark harness runs on."""

    def test_merge_snapshots_empty_site_list(self):
        assert merge_windows([{"m": Histogram()}]) == {}
        assert Histogram().percentile(99) == 0.0

    def test_merge_snapshots_mismatched_ladder_raises(self):
        foreign = Histogram()
        foreign.counts, foreign.count = [1, 2, 3], 6
        with pytest.raises(ValueError, match="mismatched bucket ladder"):
            merge_windows([{"m": Histogram()}, {"m": foreign}])

    def test_merge_windows_empty_sites(self):
        assert merge_windows([]) == {}

    def test_merge_windows_skips_missing_and_empty_metrics(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        windows = [
            {"syscall.read": a, "syscall.write": b},
            {"syscall.read": Histogram()},  # site 1 lacks write
        ]
        out = merge_windows(windows)
        assert list(out) == ["syscall.read"]      # empty write dropped
        assert out["syscall.read"]["count"] == 1

    def test_merge_windows_prefix_filter(self):
        h = Histogram()
        h.observe(5.0)
        windows = [{"syscall.read": h, "prop.lag": h}]
        out = merge_windows(windows, prefix="syscall.")
        assert list(out) == ["syscall.read"]

    def test_merge_windows_mismatched_ladder_raises(self):
        foreign = Histogram()
        foreign.counts, foreign.count = [1], 1
        with pytest.raises(ValueError, match="mismatched bucket ladder"):
            merge_windows([{"m": foreign}])


class TestMetricsRegistry:
    def test_observe_count_and_summary(self):
        reg = MetricsRegistry("t")
        reg.observe("syscall.read", 1.5)
        reg.observe("syscall.read", 2.5)
        reg.count("retries")
        reg.count("retries", 2)
        reg.hist("empty")
        assert reg.hist("syscall.read").count == 2
        assert reg.counters["retries"] == 3
        summary = reg.latency_summary()
        assert list(summary) == ["syscall.read"]      # empty ones skipped
        assert summary["syscall.read"]["count"] == 2
        assert reg.latency_summary("nope") == {}

    def test_snapshot_diff_handles_new_hists(self):
        """A histogram or counter first seen mid-window counts from zero,
        and the windows on either side of its arrival still add up."""
        reg = MetricsRegistry("t")
        reg.observe("early", 1.0)
        ab, ac = StatsWindow(reg), StatsWindow(reg)
        reg.count("c", 2)
        ab = ab.close()
        bc = StatsWindow(reg)
        reg.observe("late.arrival", 3.0)
        reg.observe("early", 900.0)
        reg.count("c", 5)
        reg.count("late.counter")
        bc, ac = bc.close(), ac.close()
        assert "late.arrival" not in ab.hists
        assert bc.hists["late.arrival"].count == 1
        assert bc.counters["c"] == 5
        assert bc.owner == "t"
        _assert_additive(ab, bc, ac)


# ----------------------------------------------------------------------
# One window rule for every counter store
# ----------------------------------------------------------------------

STORE_KINDS = ("net", "registry", "cache", "name_cache", "propagation",
               "scrub", "recovery", "topology")


def _stores(cluster, kind):
    """Every store of one kind: the network's, or one per site."""
    if kind == "net":
        return [cluster.stats]
    if kind == "registry":
        return [cluster.net.metrics] + [s.metrics for s in cluster.sites]
    return [{"cache": s.cache.stats, "name_cache": s.name_cache.stats,
             "propagation": s.fs.propagator.stats, "scrub": s.scrub.stats,
             "recovery": s.recovery.stats,
             "topology": s.topology.stats}[kind] for s in cluster.sites]


def _flat(store, path=""):
    """A store's numbers by path: every count, bucket and total."""
    if isinstance(store, (int, float)):
        return {path: store}
    if isinstance(store, dict):
        items = store.items()
    elif isinstance(store, list):
        items = enumerate(store)
    else:
        names = vars(store) if hasattr(store, "__dict__") else store.__slots__
        items = ((name, getattr(store, name)) for name in names)
    out = {}
    for key, value in items:
        if value is not None and not isinstance(value, str):
            out.update(_flat(value, f"{path}/{key}"))
    return out


def _assert_additive(ab, bc, ac):
    """window [a, b] + window [b, c] == window [a, c]; a key missing from
    a window did not move in it."""
    ab, bc, ac = _flat(ab), _flat(bc), _flat(ac)
    for key in set(ab) | set(bc) | set(ac):
        assert ab.get(key, 0) + bc.get(key, 0) == \
            pytest.approx(ac.get(key, 0)), key


@pytest.fixture(scope="module")
def storm_windows():
    """Windows over every store kind across the T16 storm, with a = the
    cluster just built, b = mid-storm (between site 1's restart and site
    2's crash) and c = storm over: per kind, the snapshot at a, the
    windows [a, b], [b, c] and [a, c], and the snapshot at c."""
    cluster = LocusCluster(n_sites=3, seed=11, root_pack_sites=[1, 2])
    stores = {kind: _stores(cluster, kind) for kind in STORE_KINDS}
    built = {kind: snapshot(s) for kind, s in stores.items()}
    first = {kind: StatsWindow(s) for kind, s in stores.items()}
    whole = {kind: StatsWindow(s) for kind, s in stores.items()}
    second = {}

    def mid_storm():
        for kind, s in stores.items():
            first[kind].close()
            second[kind] = StatsWindow(s)

    populate(cluster)
    cluster.inject(storm_plan(11, cluster.sim.now))
    cluster.sim.schedule(2500.0, mid_storm)
    drive(cluster, reads=60, writes=12)
    return {kind: (built[kind], first[kind].close(), second[kind].close(),
                   whole[kind].close(), snapshot(stores[kind]))
            for kind in STORE_KINDS}


class TestWindows:
    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_windows_add_up_on_the_storm(self, storm_windows, kind):
        built, ab, bc, ac, end = storm_windows[kind]
        _assert_additive(ab, bc, ac)
        # Nothing is counted before a cluster runs, so the whole-run
        # window is the cumulative count.
        assert not any(_flat(built).values())
        assert _flat(ac) == pytest.approx(_flat(end))
        # The name cache is off by default, so its window stays all zero.
        assert any(_flat(ac).values()) or kind == "name_cache"


# ----------------------------------------------------------------------
# Satellites: stats snapshot fields, propagator accessor
# ----------------------------------------------------------------------

class TestStatsCircuits:
    def test_snapshot_and_diff_carry_circuit_counts(self):
        cluster = LocusCluster(n_sites=3, seed=5)
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/f", b"x")
        cluster.settle()
        before = snapshot(cluster.stats)
        win = StatsWindow(cluster.stats)
        cluster.fail_site(2)
        sh.write_file("/f", b"y")
        cluster.settle()
        after = snapshot(cluster.stats)
        assert after.circuits_closed >= 1
        window = win.close()
        assert window.circuits_closed == (after.circuits_closed
                                          - before.circuits_closed)
        assert window.circuits_opened == (after.circuits_opened
                                          - before.circuits_opened)


class TestPropagatorPending:
    def test_pending_accessor_tracks_private_set(self):
        cluster = LocusCluster(n_sites=3, seed=5)
        prop = cluster.site(0).fs.propagator
        assert prop.pending() == []
        cluster.partition({0}, {1, 2})
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/p", b"x")
        pending = cluster.site(0).fs.propagator.pending()
        assert pending == sorted(cluster.site(0).fs.propagator._pending)
        cluster.heal()
        cluster.settle()
        assert cluster.site(0).fs.propagator.pending() == []


# ----------------------------------------------------------------------
# Tracing: context propagation, causal chains, faults
# ----------------------------------------------------------------------

def _storm_cluster(seed=11):
    """A small fault-storm run with tracing on (what ``cli trace
    --workload storm`` runs)."""
    cluster = storm_cluster(seed)
    cluster.inject(storm_plan(seed, cluster.sim.now))
    drive(cluster, reads=60, writes=12)
    return cluster


@pytest.fixture(scope="module")
def storm():
    return _storm_cluster()


class TestCausalTracing:
    def test_syscall_spans_exist_and_finish(self, storm):
        sys_spans = [s for s in storm.tracer.spans if s.kind == "syscall"]
        assert sys_spans
        for s in sys_spans:
            assert s.end is not None and s.end >= s.start

    def test_complete_causal_chain_across_sites(self, storm):
        """At least one US syscall → RPC span → SS handler chain, with the
        handler running on a different site than the syscall."""
        good = []
        for chain in causal_chains(storm.tracer, leaf_kind="handler"):
            kinds = [s.kind for s in chain]
            if (kinds[0] == "syscall" and "rpc" in kinds
                    and kinds[-1] == "handler"
                    and chain[0].site != chain[-1].site):
                good.append(chain)
        assert good, "no complete cross-site causal chain in storm trace"

    def test_handler_spans_parent_under_rpc(self, storm):
        handlers = [s for s in storm.tracer.spans if s.kind == "handler"
                    and s.parent_id is not None]
        assert handlers
        parent = storm.tracer.span(handlers[0].parent_id)
        assert parent is not None
        assert parent.trace_id == handlers[0].trace_id

    def test_fault_instants_recorded(self, storm):
        names = {i["name"] for i in storm.tracer.instants}
        assert "fault.crash" in names
        assert "fault.heal" in names or "net.heal" in names
        assert any(n.startswith("recovery.") for n in names)

    def test_failover_annotation_on_affected_span(self, storm):
        annotated = [s for s in storm.tracer.spans
                     if any(e[1] in ("failover", "retry")
                            for e in s.events)]
        assert annotated, "no failover/retry events despite SS crashes"
        # The annotation rides on a span inside a syscall's trace.
        roots = {s.trace_id for s in storm.tracer.spans
                 if s.kind == "syscall"}
        assert any(s.trace_id in roots for s in annotated)

    def test_latency_histograms_populated(self, storm):
        merged = merge_windows([s.metrics.hists for s in storm.sites],
                               "syscall.pread")["syscall.pread"]
        assert merged["count"] > 0
        assert merged["p99"] >= merged["p50"] > 0

    def test_instants_are_sequenced(self, storm):
        seqs = [i["seq"] for i in storm.tracer.instants]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


# ----------------------------------------------------------------------
# Export determinism + schema
# ----------------------------------------------------------------------

class TestExportDeterminism:
    def test_byte_identical_replay(self, tmp_path, storm):
        replay = _storm_cluster()
        paths = {}
        for tag, cluster in (("a", storm), ("b", replay)):
            jp = tmp_path / f"{tag}.jsonl"
            cp = tmp_path / f"{tag}.chrome.json"
            export_jsonl(cluster.tracer, str(jp))
            export_chrome(cluster.tracer, str(cp))
            paths[tag] = (jp, cp)
        assert filecmp.cmp(paths["a"][0], paths["b"][0], shallow=False)
        assert filecmp.cmp(paths["a"][1], paths["b"][1], shallow=False)

    def test_different_seed_differs(self, tmp_path, storm):
        other = _storm_cluster(seed=12)
        p1, p2 = tmp_path / "s11.jsonl", tmp_path / "s12.jsonl"
        export_jsonl(storm.tracer, str(p1))
        export_jsonl(other.tracer, str(p2))
        assert not filecmp.cmp(p1, p2, shallow=False)


class TestExportSchema:
    def test_valid_export_passes(self, tmp_path, storm):
        path = tmp_path / "t.jsonl"
        n = export_jsonl(storm.tracer, str(path))
        assert n == 1 + len(storm.tracer.spans) + len(storm.tracer.instants)
        assert validate_trace_jsonl(str(path)) == []

    def test_corrupted_export_fails(self, tmp_path, storm):
        path = tmp_path / "bad.jsonl"
        export_jsonl(storm.tracer, str(path))
        lines = path.read_text().splitlines()
        # Corrupt: drop the meta line, break one JSON line, orphan a span.
        span = json.loads(lines[1])
        span["parent_id"] = 10 ** 9
        lines[1] = json.dumps(span)
        lines[2] = "{not json"
        path.write_text("\n".join(lines[1:]) + "\n")
        problems = validate_trace_jsonl(str(path))
        assert any("not JSON" in p for p in problems)
        assert any("dangling parent_id" in p for p in problems)
        assert any("no meta record" in p for p in problems)

    def test_missing_keys_flagged(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"type":"meta","spans":0,"instants":0,"vtime":0}\n'
                        '{"type":"span","span_id":1}\n'
                        '{"type":"instant"}\n'
                        '{"type":"martian"}\n')
        problems = validate_trace_jsonl(str(path))
        assert any("span missing" in p for p in problems)
        assert any("instant missing" in p for p in problems)
        assert any("martian" in p for p in problems)

    def test_chrome_export_loads_as_json(self, tmp_path, storm):
        path = tmp_path / "t.chrome.json"
        n = export_chrome(storm.tracer, str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "i"}
        assert any(e.get("s") == "g" for e in doc["traceEvents"])


# ----------------------------------------------------------------------
# CLI subcommand
# ----------------------------------------------------------------------

class TestTraceCli:
    def test_smoke_run_with_check(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["trace", "--workload", "smoke", "--seed", "3",
                   "--out", str(tmp_path), "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "schema check: ok" in out
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "trace.chrome.json").exists()
        assert validate_trace_jsonl(str(tmp_path / "trace.jsonl")) == []

    def test_plan_file_injection(self, tmp_path):
        from repro.cli import trace_main
        plan = storm_plan(9, 1000.0)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json())
        rc = trace_main(["--workload", "smoke", "--seed", "9",
                         "--plan", str(plan_path), "--out", str(tmp_path),
                         "--check"])
        assert rc == 0
