"""Critical-path analyzer: exact decomposition on hand-built trees, and
blame tables over live storm traces (ISSUE 10)."""

import pytest

from repro import LocusCluster
from repro.obs.critpath import (SEGMENTS, _Analyzer, analyze, analyze_spans,
                                format_blame)
from repro.obs.span import Span
from repro.workloads.storm import drive, storm_cluster, storm_plan


def mkspan(span_id, name, kind, start, end, parent_id=None, site=0,
           events=()):
    span = Span(span_id=span_id, trace_id=1, parent_id=parent_id,
                name=name, kind=kind, site=site, start=start)
    span.end = end
    span.events = list(events)
    return span


class TestHandBuiltDecomposition:
    def test_known_segments_decompose_exactly(self):
        # syscall.read [0, 100]
        #   └ rpc:fs.read_page [10, 90] with 20 vtime of queue_wait
        #       └ serve:fs.read_page [40, 70]
        # => local 20 (gaps 0-10 + 90-100), queue 20, wire 30 (rpc self
        #    50 minus queued 20), remote_service 30.
        spans = [
            mkspan(1, "syscall.read", "syscall", 0.0, 100.0),
            mkspan(2, "rpc:fs.read_page", "rpc", 10.0, 90.0, parent_id=1,
                   events=[(15.0, "queue_wait", {"delay": 12.0}),
                           (75.0, "queue_wait", {"delay": 8.0})]),
            mkspan(3, "serve:fs.read_page", "handler", 40.0, 70.0,
                   parent_id=2, site=1),
        ]
        report = analyze_spans(spans)
        blame = report.syscalls["syscall.read"]
        assert blame.count == 1
        assert blame.total == pytest.approx(100.0)
        assert blame.segments["local"] == pytest.approx(20.0)
        assert blame.segments["queue"] == pytest.approx(20.0)
        assert blame.segments["wire"] == pytest.approx(30.0)
        assert blame.segments["remote_service"] == pytest.approx(30.0)
        assert blame.segments["retry_wait"] == 0.0
        assert report.coverage == pytest.approx(1.0)

    def test_recorded_backoff_is_retry_wait(self):
        # Two rpc attempts of one supervised call under the syscall; the
        # gap between them is retry_wait as far as the retry event the loop
        # recorded on the caller's span says it slept (30 of the 40), local
        # beyond that.  A one-way's queue_wait on the same span is not a
        # wait: the sender never waited for its message.
        spans = [
            mkspan(1, "syscall.open", "syscall", 0.0, 100.0,
                   events=[(20.0, "retry", {"op": "fs.css_open",
                                            "attempt": 0, "backoff": 30.0,
                                            "error": "SimTimeout"}),
                           (50.0, "queue_wait", {"delay": 4.0})]),
            mkspan(2, "rpc:fs.css_open", "rpc", 0.0, 20.0, parent_id=1),
            mkspan(3, "rpc:fs.css_open", "rpc", 60.0, 100.0, parent_id=1),
        ]
        report = analyze_spans(spans)
        blame = report.syscalls["syscall.open"]
        assert blame.segments["retry_wait"] == pytest.approx(30.0)
        assert blame.segments["local"] == pytest.approx(10.0)
        assert blame.segments["wire"] == pytest.approx(60.0)
        assert blame.segments["queue"] == 0.0
        assert report.coverage == pytest.approx(1.0)

    def test_conflict_wait_counts_and_backoff_is_clipped(self):
        # A refused writer's patient sleep is retry_wait too, and recorded
        # sleeps can never exceed the caller's self time.
        spans = [
            mkspan(1, "syscall.open", "syscall", 0.0, 50.0),
            mkspan(2, "fs.open", "fs", 0.0, 50.0, parent_id=1,
                   events=[(10.0, "conflict_wait",
                            {"op": "fs.css_open", "attempt": 0,
                             "error": "EWOULDCONFLICT", "backoff": 25.0}),
                           (45.0, "retry", {"op": "fs.css_open",
                                            "attempt": 0, "backoff": 80.0,
                                            "error": "Unreachable"})]),
            mkspan(3, "rpc:fs.css_open", "rpc", 0.0, 10.0, parent_id=2),
            mkspan(4, "rpc:fs.css_open", "rpc", 35.0, 45.0, parent_id=2),
        ]
        blame = analyze_spans(spans).syscalls["syscall.open"]
        assert blame.segments["retry_wait"] == pytest.approx(30.0)
        assert blame.segments["local"] == 0.0
        assert blame.segments["wire"] == pytest.approx(20.0)

    def test_local_collapse_call_is_the_callers_self_time(self):
        # dst == self: no rpc child, the handler ran as a procedure call
        # inside the caller's own span.
        spans = [
            mkspan(1, "syscall.open", "syscall", 0.0, 30.0),
            mkspan(2, "fs.open", "fs", 5.0, 25.0, parent_id=1),
        ]
        blame = analyze_spans(spans).syscalls["syscall.open"]
        assert blame.segments["local"] == pytest.approx(30.0)
        assert blame.segments["retry_wait"] == 0.0

    def test_oneway_handler_is_not_on_the_senders_path(self):
        # A one-way fs.write_page's handler parents under the sender's
        # syscall span, but the sender never waited for it: the syscall is
        # all local.  Only a handler under an rpc span is remote_service.
        spans = [
            mkspan(1, "syscall.write", "syscall", 0.0, 100.0),
            mkspan(2, "serve:fs.write_page", "handler", 10.0, 40.0,
                   parent_id=1, site=1),
            mkspan(3, "rpc:fs.read_page", "rpc", 50.0, 90.0, parent_id=1),
            mkspan(4, "serve:fs.read_page", "handler", 60.0, 80.0,
                   parent_id=3, site=1),
        ]
        report = analyze_spans(spans)
        blame = report.syscalls["syscall.write"]
        assert blame.segments["local"] == pytest.approx(60.0)
        assert blame.segments["wire"] == pytest.approx(20.0)
        assert blame.segments["remote_service"] == pytest.approx(20.0)
        assert report.coverage == pytest.approx(1.0)

    def test_overlapping_children_counted_once(self):
        # Two pipelined rpc pulls overlap [10,60] and [40,90]: the overlap
        # [40,60] must be attributed once, not twice.
        spans = [
            mkspan(1, "syscall.pread", "syscall", 0.0, 100.0),
            mkspan(2, "rpc:fs.pull_read_range", "rpc", 10.0, 60.0,
                   parent_id=1),
            mkspan(3, "rpc:fs.pull_read_range", "rpc", 40.0, 90.0,
                   parent_id=1),
        ]
        report = analyze_spans(spans)
        blame = report.syscalls["syscall.pread"]
        assert sum(blame.segments.values()) == pytest.approx(100.0)
        assert blame.segments["local"] == pytest.approx(20.0)  # 0-10, 90-100
        assert blame.segments["wire"] == pytest.approx(80.0)

    def test_unfinished_child_clipped_at_now(self):
        # A handler that never finished (its site crashed) is clipped at
        # the analysis timestamp, not dropped.
        child = mkspan(2, "rpc:fs.read_page", "rpc", 10.0, None,
                       parent_id=1)
        child.end = None
        spans = [mkspan(1, "syscall.read", "syscall", 0.0, 50.0), child]
        report = analyze_spans(spans, now=200.0)
        blame = report.syscalls["syscall.read"]
        # The child is clipped to the parent window [10, 50].
        assert blame.segments["local"] == pytest.approx(10.0)
        assert blame.segments["wire"] == pytest.approx(40.0)
        assert report.coverage == pytest.approx(1.0)

    def test_child_outliving_parent_clipped(self):
        # A spawned child that outlives its parent contributes only the
        # part inside the parent's window.
        spans = [
            mkspan(1, "syscall.write", "syscall", 0.0, 50.0),
            mkspan(2, "rpc:fs.notify", "rpc", 30.0, 500.0, parent_id=1),
        ]
        report = analyze_spans(spans)
        blame = report.syscalls["syscall.write"]
        assert blame.total == pytest.approx(50.0)
        assert blame.segments["local"] == pytest.approx(30.0)
        assert blame.segments["wire"] == pytest.approx(20.0)

    def test_rpc_table_independent_of_nesting(self):
        spans = [
            mkspan(1, "syscall.read", "syscall", 0.0, 100.0),
            mkspan(2, "rpc:fs.read_page", "rpc", 10.0, 90.0, parent_id=1),
            mkspan(3, "serve:fs.read_page", "handler", 40.0, 70.0,
                   parent_id=2, site=1),
        ]
        report = analyze_spans(spans)
        rpc = report.rpcs["rpc:fs.read_page"]
        assert rpc.total == pytest.approx(80.0)
        assert rpc.segments["remote_service"] == pytest.approx(30.0)
        assert rpc.segments["wire"] == pytest.approx(50.0)

    def test_queue_events_clamped_to_self_time(self):
        # Over-reported queue delays can never exceed the rpc's own self
        # time (wire never goes negative).
        spans = [
            mkspan(1, "syscall.read", "syscall", 0.0, 10.0),
            mkspan(2, "rpc:fs.read_page", "rpc", 0.0, 10.0, parent_id=1,
                   events=[(5.0, "queue_wait", {"delay": 50.0})]),
        ]
        report = analyze_spans(spans)
        blame = report.syscalls["syscall.read"]
        assert blame.segments["queue"] == pytest.approx(10.0)
        assert blame.segments["wire"] == pytest.approx(0.0)
        assert report.coverage == pytest.approx(1.0)

    def test_format_blame_deterministic(self):
        spans = [
            mkspan(1, "syscall.read", "syscall", 0.0, 100.0),
            mkspan(2, "rpc:fs.read_page", "rpc", 10.0, 90.0, parent_id=1),
        ]
        a = format_blame(analyze_spans(spans))
        b = format_blame(analyze_spans(spans))
        assert a == b
        assert "syscall.read" in a and "rpc:fs.read_page" in a


def _storm_cluster(seed=11):
    cluster = storm_cluster(seed)
    cluster.inject(storm_plan(seed, cluster.sim.now))
    drive(cluster, reads=60, writes=12)
    return cluster


def _assert_segments_sum_per_root(tracer):
    """Conservation: every syscall root's segments sum to its duration."""
    spans = list(tracer.spans)
    analyzer = _Analyzer(spans, tracer.sim.now)
    roots = [s for s in spans
             if s.parent_id is None and s.name.startswith("syscall.")]
    assert roots
    for root in roots:
        segs = analyzer.decompose(root)
        assert sum(segs.values()) == pytest.approx(
            analyzer._end(root) - root.start, abs=1e-6), root
        assert min(segs.values()) >= 0.0, root


class TestConservation:
    def test_fault_free_run_has_no_retry_and_no_repair(self):
        # Replicated writes and reads from a site that stores nothing,
        # plus CSS-local opens (no rpc child): no fault, so nothing waited
        # on a retry or on repair work.
        cluster = LocusCluster(n_sites=3, seed=7, root_pack_sites=[0, 1])
        sh0, sh2 = cluster.shell(0), cluster.shell(2)
        sh0.setcopies(2)
        sh0.mkdir("/d")
        for i in range(6):
            sh0.write_file(f"/d/f{i}", bytes([i]) * 3000)
            sh2.write_file(f"/d/g{i}", bytes([i]) * 700)
        cluster.settle()
        for i in range(6):
            assert sh2.read_file(f"/d/f{i}") == bytes([i]) * 3000
            assert sh0.read_file(f"/d/g{i}") == bytes([i]) * 700
        report = analyze(cluster.tracer)
        assert report.root_count > 30
        assert report.segment_totals["retry_wait"] == 0.0
        assert report.segment_totals["repair"] == 0.0
        assert report.segment_totals["other"] == 0.0
        _assert_segments_sum_per_root(cluster.tracer)

    @pytest.mark.parametrize("seed", [11, 23])
    def test_storm_segments_sum_per_root(self, seed):
        _assert_segments_sum_per_root(_storm_cluster(seed).tracer)


class TestStormTrace:
    def test_supervision_retries_in_blame_table(self):
        cluster = _storm_cluster()
        report = analyze(cluster.tracer)
        assert report.root_count > 0
        # The storm forces supervised retries; their backoff shows up as
        # retry_wait somewhere in the syscall blame tables.
        total_retry = report.segment_totals["retry_wait"]
        assert total_retry > 0.0
        assert report.coverage >= 0.95

    def test_live_trace_coverage_complete(self):
        cluster = _storm_cluster(seed=23)
        report = analyze(cluster.tracer)
        # Every root window instant is attributed to exactly one segment.
        assert report.coverage == pytest.approx(1.0, abs=1e-9)
        for blame in report.syscalls.values():
            assert blame.attributed == pytest.approx(blame.total, abs=1e-6)

    def test_failover_spans_present(self):
        cluster = _storm_cluster()
        names = {s.name for s in cluster.tracer.spans}
        assert "fs.failover" in names or "fs.write_failover" in names

    def test_segment_names_stable(self):
        assert SEGMENTS == ("local", "queue", "wire", "remote_service",
                            "retry_wait", "repair", "other")
