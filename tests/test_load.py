"""The ``top`` report derived from the span log, the convergence monitor,
and the ``load`` / ``detection`` export records."""

import json

import pytest

from repro import LocusCluster
from repro.cli import _top_workload
from repro.config import CostModel
from repro.obs.export import validate_trace_jsonl
from repro.obs.load import (ConvergenceMonitor, _rate, cluster_load_report,
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
# Convergence monitor
# ----------------------------------------------------------------------

class TestConvergenceMonitor:
    def test_detection_latency_from_last_fault(self):
        sim = FakeSim(now=100.0)
        mon = ConvergenceMonitor(sim)
        mon.note_fault("crash")
        sim.now = 160.0
        mon.note_detection("digest_skew", site=1, gfile=(0, 5))
        sim.now = 200.0
        mon.note_repair("propagate", site=1, gfile=(0, 5))
        assert len(mon.detections()) == 1
        assert len(mon.repairs()) == 1
        det = mon.detections()[0]
        assert det["fault_ts"] == 100.0
        assert det["latency"] == pytest.approx(60.0)
        # Only detections feed the latency histogram.
        assert mon.detection_latency.count == 1
        summary = mon.summary()
        assert summary["faults"] == 1
        assert summary["detection_latency"]["count"] == 1

    def test_latency_measured_from_most_recent_fault(self):
        sim = FakeSim(now=0.0)
        mon = ConvergenceMonitor(sim)
        mon.note_fault("crash")
        sim.now = 500.0
        mon.note_fault("loss_burst")
        sim.now = 530.0
        mon.note_detection("reconcile")
        assert mon.detections()[0]["latency"] == pytest.approx(30.0)

    def test_detection_without_fault_has_no_latency(self):
        mon = ConvergenceMonitor(FakeSim())
        mon.note_detection("placement", site=0, gfile=(0, 2))
        det = mon.detections()[0]
        assert det["fault_ts"] is None and det["latency"] is None
        assert mon.detection_latency.count == 0


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

    def test_tracing_off_reports_no_span_derived_load(self):
        cluster = LocusCluster(n_sites=2, seed=3,
                               cost=CostModel(trace_enabled=False))
        cluster.shell(1).write_file("/f", b"x" * 64)
        cluster.settle()
        report = cluster_load_report(cluster)
        assert [s["syscalls"] for s in report["sites"]] == [0, 0]
        assert report["hot_inodes"] == [] and report["css"] == []
        assert "LOCUS top" in format_top(cluster)

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
