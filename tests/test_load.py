"""The ``top`` report derived from the span log, convergence derived from
its instants, and the ``load`` / ``detection`` export records."""

import json

import pytest

from repro import LocusCluster
from repro.cli import _top_workload
from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.obs.export import validate_trace_jsonl
from repro.obs.load import (_rate, cluster_load_report, convergence,
                            format_top, load_records, span_load)
from repro.workloads.storm import drive, storm_cluster, storm_plan


class FakeSim:
    def __init__(self, now=0.0):
        self.now = now


def _storm(seed=11):
    cluster = storm_cluster(seed)
    cluster.inject(storm_plan(seed, cluster.sim.now))
    drive(cluster)
    return cluster


# ----------------------------------------------------------------------
# Rate window: 8 buckets of 2000 vtime, by span end time
# ----------------------------------------------------------------------

class TestRateWindow:
    def test_counts_within_window(self):
        assert _rate([0.0, 1500.0, 1600.0], now=1600.0) == 3 / 2000.0

    def test_old_buckets_age_out(self):
        # At 20000 the live buckets are 3..10: an event at 5999 is out.
        assert _rate([0.0] * 5 + [5999.0], now=20000.0) == 0.0
        assert _rate([6000.0], now=20000.0) == round(1 / 16000.0, 6)

    def test_rate_uses_elapsed_then_window_span(self):
        # Early in the run the denominator is clamped to one width.
        assert _rate([500.0] * 10, now=1000.0) == 10 / 2000.0
        assert _rate([10.0] * 3 + [99000.0] * 4,
                     now=100000.0) == 4 / 16000.0


# ----------------------------------------------------------------------
# Convergence, derived from the instants
# ----------------------------------------------------------------------

def _instants(*stamped):
    """A tracer holding ``(ts, name, site, gfile)`` instants in order."""
    sim = FakeSim()
    tracer = Tracer(sim)
    for ts, name, site, gfile in stamped:
        sim.now = ts
        tracer.instant(name, site=site,
                       attrs={"gfile": gfile} if gfile else {})
    return tracer


class TestConvergence:
    def test_detection_latency_from_last_fault(self):
        records, summary = convergence(_instants(
            (100.0, "fault.crash", None, None),
            (160.0, "scrub.digest_skew", 1, [0, 5]),
            (200.0, "repair.propagate", 1, [0, 5])))
        det, rep = records
        assert det == {"type": "detection", "seq": 1, "ts": 160.0,
                       "event": "detect", "kind": "digest_skew", "site": 1,
                       "gfile": [0, 5], "fault_ts": 100.0, "latency": 60.0}
        assert (rep["seq"], rep["event"], rep["kind"]) \
            == (2, "repair", "propagate")
        assert rep["latency"] == pytest.approx(100.0)
        # Only detections feed the latency histogram.
        assert (summary["faults"], summary["detections"],
                summary["repairs"]) == (1, 1, 1)
        assert summary["detection_latency"]["count"] == 1

    def test_latency_measured_from_most_recent_fault(self):
        records, __ = convergence(_instants(
            (0.0, "fault.crash", None, None),
            (500.0, "fault.loss_burst", None, None),
            (530.0, "scrub.reconcile", 0, None)))
        assert records[0]["latency"] == pytest.approx(30.0)
        assert records[0]["gfile"] is None

    def test_detection_without_fault_has_no_latency(self):
        records, summary = convergence(_instants(
            (0.0, "scrub.placement", 0, [0, 2])))
        assert records[0]["fault_ts"] is None
        assert records[0]["latency"] is None
        assert summary["detection_latency"]["count"] == 0

    def test_pass_markers_are_not_detections(self):
        records, summary = convergence(_instants(
            (10.0, "fault.partition", None, None),
            (20.0, "scrub.start", 0, None),
            (30.0, "recovery.start", 0, None),
            (40.0, "recovery.complete", 0, None),
            (50.0, "scrub.complete", 0, None),
            (60.0, "net.heal", None, None)))
        assert records == []
        assert (summary["faults"], summary["detections"],
                summary["repairs"]) == (1, 0, 0)

    def test_restores_and_audits_never_reset_fault_ts(self):
        records, summary = convergence(_instants(
            (100.0, "fault.latency_spike", None, None),
            (150.0, "fault.latency_restore", None, None),
            (160.0, "fault.loss_restore", None, None),
            (170.0, "fault.invariant_check", None, None),
            (200.0, "scrub.dangling", 2, [0, 9])))
        assert records[0]["fault_ts"] == 100.0
        assert records[0]["latency"] == pytest.approx(100.0)
        assert summary["faults"] == 1

    def test_divergence_scenario_matches_the_online_monitor(self):
        # T21 (c): dropped commit notifies leave stale replicas for the
        # scrub to find.  The records were first the ones the online
        # recorder this derivation replaced wrote for the same run; they
        # are re-pinned when a protocol change re-times the run (smaller
        # delta inventory replies, then seeded first replies, then
        # field-level patches, then pulls without ``fs.pull_open``, moved
        # both timestamps).  The scrub is scheduled as the write returns:
        # left to quiescence, the circuit loss the drops caused runs a
        # merge whose recovery sweep repairs the replica first.
        seed = 31
        cluster = LocusCluster(n_sites=3, seed=seed)
        sh = cluster.shell(0)
        sh.setcopies(3)
        sh.write_file("/f", b"base content " * 40)
        cluster.settle()
        cluster.inject(FaultPlan(seed=seed, name="t21-divergence").drop(
            "fs.notify", count=2, at=cluster.sim.now + 10.0))
        sh.write_file("/f", b"newer content " * 40)
        cluster.site(cluster.site(0).fs.mount.css_for(0)).scrub.schedule(0)
        cluster.settle()
        records, summary = convergence(cluster.tracer)
        fault_ts = 175.91399999999996
        assert records == [
            {"type": "detection", "seq": 1, "ts": 415.66200000000003,
             "event": "detect", "kind": "reconcile", "site": 0,
             "gfile": [0, 2], "fault_ts": fault_ts, "latency": 239.748},
            {"type": "detection", "seq": 2, "ts": 504.446,
             "event": "repair", "kind": "propagate", "site": 0,
             "gfile": [0, 2], "fault_ts": fault_ts, "latency": 328.532}]
        assert summary == {
            "faults": 3, "detections": 1, "repairs": 1,
            "detection_latency": {
                "count": 1, "total": 239.748, "mean": 239.748,
                "min": 239.748, "max": 239.748,
                "p50": 500.0, "p95": 500.0, "p99": 500.0}}


# ----------------------------------------------------------------------
# Conservation: the span log and the registry count the same events
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=["top", "storm"])
def workload(request):
    if request.param == "top":
        return _top_workload(seed=5, sites=3, ops=60)[0]
    return _storm()


class TestConservation:
    def test_syscalls_equal_syscall_histogram_counts(self, workload):
        loads = span_load(workload)
        for site in workload.sites:
            hists = site.metrics.latency_summary("syscall.")
            assert len(loads[site.site_id].syscall_ends) == sum(
                h["count"] for h in hists.values()), site.site_id
        assert any(load.syscall_ends for load in loads.values())

    def test_hot_inode_total_equals_open_histogram_count(self, workload):
        loads = span_load(workload)
        for site in workload.sites:
            opens = site.metrics.hists.get("fs.open")
            assert sum(loads[site.site_id].opens.values()) == (
                opens.count if opens else 0), site.site_id
        assert any(load.opens for load in loads.values())


def test_served_rpcs_equal_remote_calls_when_fault_free():
    # Every remote call a client timed was served exactly once; one-way
    # messages (notifies, write-behind) have no client-side histogram.
    cluster, __ = _top_workload(seed=5, sites=3, ops=60)
    served, called = {}, {}
    for load in span_load(cluster).values():
        for op, (count, __) in load.rpc_ops.items():
            served[op] = served.get(op, 0) + count
    for site in cluster.sites:
        for name, hist in site.metrics.latency_summary("rpc.").items():
            op = name[len("rpc."):]
            called[op] = called.get(op, 0) + hist["count"]
    assert called and called == {op: served[op] for op in called}


# ----------------------------------------------------------------------
# The ``top`` report
# ----------------------------------------------------------------------

class TestTopReport:
    def test_byte_deterministic(self):
        a, __ = _top_workload(seed=5, sites=3, ops=40)
        b, __ = _top_workload(seed=5, sites=3, ops=40)
        assert format_top(a) == format_top(b)

    def test_ranks_zipf_hot_inodes_and_filegroups(self):
        cluster, paths = _top_workload(seed=5, sites=3, ops=60)
        report = cluster_load_report(cluster)
        counts = [count for __, count in report["hot_inodes"]]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > 1                  # Zipf head is genuinely hot
        # The root filegroup carries the workload; /aux saw one read.
        css = report["css"]
        assert css[0]["gfs"] == 0
        assert css[0]["opens"] > css[-1]["opens"]
        assert len(css) >= 2

    def test_css_opens_count_synchronized_opens(self):
        # A CSS close notification is not an open: the table counts one
        # per synchronized fs.open span of the filegroup.
        cluster, __ = _top_workload(seed=5, sites=3, ops=60)
        spans = {}
        for span in cluster.tracer.spans:
            if span.name == "fs.open":
                gfs = span.attrs["gfile"][0]
                spans[gfs] = spans.get(gfs, 0) + 1
        css = {e["gfs"]: e["opens"]
               for e in cluster_load_report(cluster)["css"]}
        assert css == spans
        assert css[0] == 94

    def test_hot_inode_ties_rank_by_gfile(self):
        cluster, __ = _top_workload(seed=5, sites=3, ops=60)
        hot = [(-count, tuple(gfile))
               for gfile, count in cluster_load_report(cluster)["hot_inodes"]]
        assert hot == sorted(hot)
        assert len({count for count, __ in hot}) < len(hot)   # ties exist

    def test_css_row_names_the_current_css(self):
        # Through the storm the CSS role moves; the row names where it
        # sits now, and only that site's load record carries the filegroup.
        cluster = _storm()
        css = cluster.site(0).fs.mount.css_for(0)
        row, = cluster_load_report(cluster)["css"]
        assert (row["gfs"], row["site"]) == (0, css)
        holders = [r["site"] for r in load_records(cluster)
                   if r["type"] == "load" and r["css"]]
        assert holders == [css]

    def test_report_sections_present(self):
        cluster, __ = _top_workload(seed=3, sites=2, ops=20)
        text = format_top(cluster)
        for marker in ("LOCUS top", "-- sites --", "hottest inodes",
                       "CSS load by filegroup", "backlog:", "convergence:"):
            assert marker in text

    def test_load_records_validate_in_export(self, tmp_path):
        from repro.obs.export import export_jsonl
        cluster, __ = _top_workload(seed=3, sites=2, ops=20)
        records = load_records(cluster)
        loads = [r for r in records if r["type"] == "load"]
        assert [r["site"] for r in loads] == [0, 1]
        for r in loads:
            assert all(len(entry) == 2 for entry in r["hot_inodes"])
            assert all(set(cell) == {"opens"} for cell in r["css"].values())
        path = tmp_path / "t.jsonl"
        n = export_jsonl(cluster.tracer, str(path), extra=records)
        assert n > 0
        assert validate_trace_jsonl(str(path)) == []


# ----------------------------------------------------------------------
# Schema validation: forged load/detection records must be rejected
# ----------------------------------------------------------------------

class TestForgedRecords:
    META = '{"type":"meta","spans":0,"instants":0,"vtime":0}\n'

    def test_forged_load_record_rejected(self, tmp_path):
        path = tmp_path / "forged.jsonl"
        path.write_text(self.META + '{"type":"load","site":0}\n')
        problems = validate_trace_jsonl(str(path))
        assert any("load missing" in p for p in problems)

    def test_forged_detection_record_rejected(self, tmp_path):
        path = tmp_path / "forged.jsonl"
        path.write_text(self.META + '{"type":"detection","seq":1}\n')
        problems = validate_trace_jsonl(str(path))
        assert any("detection missing" in p for p in problems)

    def test_detection_event_vocabulary_enforced(self, tmp_path):
        rec = {"type": "detection", "seq": 1, "ts": 0.0, "event": "guess",
               "kind": "digest_skew", "site": 0, "gfile": [0, 1],
               "fault_ts": None, "latency": None}
        path = tmp_path / "forged.jsonl"
        path.write_text(self.META + json.dumps(rec) + "\n")
        problems = validate_trace_jsonl(str(path))
        assert any("not detect/repair" in p for p in problems)

    def test_wellformed_records_pass(self, tmp_path):
        load = {"type": "load", "site": 0, "ts": 1.0,
                "window": [2000.0, 8], "syscalls": 1, "syscall_rate": 0.0,
                "rpcs": 0, "rpc_rate": 0.0, "rpc_ops": {},
                "hot_inodes": [[[0, 2], 1]], "css": {"0": {"opens": 1}},
                "queues": {}, "replication": {}}
        det = {"type": "detection", "seq": 1, "ts": 2.0, "event": "detect",
               "kind": "digest_skew", "site": 0, "gfile": [0, 1],
               "fault_ts": 1.0, "latency": 1.0}
        path = tmp_path / "ok.jsonl"
        path.write_text(self.META + json.dumps(load) + "\n"
                        + json.dumps(det) + "\n")
        assert validate_trace_jsonl(str(path)) == []
