"""Unit tests for metric collection and the run report."""

import math

import pytest

from repro.core.tracker import RequestTracker
from repro.serving.metrics import (
    RunReport,
    aggregate_reports,
    build_report,
    report_fingerprint,
)
from repro.workload.request import RequestState
from tests.conftest import make_request


def tracked_run():
    """Two finished requests with known token timings."""
    tracker = RequestTracker()
    fast = make_request(req_id=1, arrival=0.0, output=5, rate=10.0)
    slow = make_request(req_id=2, arrival=0.0, output=5, rate=10.0)
    for request in (fast, slow):
        tracker.register(request)
        request.transition(RequestState.PREFILLING)
        request.transition(RequestState.RUNNING)
    for idx in range(5):
        tracker.deliver_tokens(1, [0.5 + 0.1 * idx])      # ttft 0.5, steady
    for idx in range(5):
        tracker.deliver_tokens(2, [5.0 + 1.0 * idx])      # ttft 5, stalls
    for request in (fast, slow):
        request.transition(RequestState.FINISHED)
    tracker.mark_finished(1, 0.9)
    tracker.mark_finished(2, 9.0)
    return tracker


class TestBuildReport:
    def test_counts(self):
        report = build_report("test", tracked_run(), makespan=9.0)
        assert report.n_requests == 2
        assert report.n_finished == 2
        assert report.total_tokens == 10

    def test_throughput(self):
        report = build_report("test", tracked_run(), makespan=10.0)
        assert report.throughput == pytest.approx(1.0)

    def test_ttft_stats(self):
        report = build_report("test", tracked_run(), makespan=9.0)
        assert report.ttft_mean == pytest.approx((0.5 + 5.0) / 2)
        assert report.ttft_p50 == pytest.approx(2.75)

    def test_stalls_counted(self):
        report = build_report("test", tracked_run(), makespan=9.0)
        # Request 2 gets tokens 1 s apart but reads at 10 tok/s:
        # 0.9 s of stall per gap, four gaps.
        assert report.stall_total == pytest.approx(3.6)

    def test_effective_tokens_bounded_by_total(self):
        report = build_report("test", tracked_run(), makespan=9.0)
        assert 0 < report.effective_tokens <= report.total_tokens

    def test_qos_penalises_the_slow_request(self):
        report = build_report("test", tracked_run(), makespan=9.0)
        by_id = {m.req_id: m for m in report.per_request}
        assert by_id[1].qos_term > by_id[2].qos_term

    def test_per_request_fields(self):
        report = build_report("test", tracked_run(), makespan=9.0)
        metrics = report.per_request[0]
        assert metrics.generated == 5
        assert metrics.output_len == 5
        assert metrics.preemptions == 0

    def test_unstarted_request_has_nan_free_handling(self):
        tracker = RequestTracker()
        tracker.register(make_request(req_id=1))
        report = build_report("test", tracker, makespan=5.0)
        assert report.n_finished == 0
        assert math.isnan(report.ttft_mean)

    def test_summary_row_shape(self):
        report = build_report("test", tracked_run(), makespan=9.0)
        row = report.summary_row()
        assert row[0] == "test"
        assert len(row) == len(RunReport.summary_headers())


class TestAggregateReportsEdgeCases:
    def test_single_report_identity(self):
        # Folding one report must reproduce it exactly — every
        # aggregate and every per-request record.
        report = build_report("solo", tracked_run(), makespan=9.0)
        folded = aggregate_reports([report], system="solo")
        assert report_fingerprint(folded) == report_fingerprint(report)

    def test_zero_finished_requests(self):
        # A run where nothing ever started: registered requests with
        # no tokens, no TTFTs — aggregates must stay NaN-safe.
        tracker = RequestTracker()
        tracker.register(make_request(req_id=1))
        tracker.register(make_request(req_id=2))
        report = build_report("stalled", tracker, makespan=5.0)
        folded = aggregate_reports([report])
        assert folded.n_requests == 2
        assert folded.n_finished == 0
        assert folded.total_tokens == 0
        assert folded.throughput == 0.0
        assert math.isnan(folded.ttft_mean)
        assert math.isnan(folded.ttft_p99)
        assert folded.stall_total == 0.0

    def test_empty_instance_does_not_skew_makespan(self):
        # A cluster instance that served nothing reports n_requests=0
        # with the floor makespan; the aggregate must take its wall
        # from instances that actually served requests.
        busy = build_report("busy", tracked_run(), makespan=9.0)
        idle_tracker = RequestTracker()
        idle = build_report("idle", idle_tracker, makespan=0.0)
        folded = aggregate_reports([busy, idle])
        assert folded.makespan == busy.makespan
        assert folded.n_requests == busy.n_requests
        assert folded.throughput == pytest.approx(busy.throughput)
        assert folded.ttft_mean == pytest.approx(busy.ttft_mean)

    def test_all_instances_empty(self):
        reports = [build_report(f"n{i}", RequestTracker(), makespan=0.0)
                   for i in range(3)]
        folded = aggregate_reports(reports)
        assert folded.n_requests == 0
        assert folded.makespan == pytest.approx(1e-9)
        assert math.isnan(folded.ttft_mean)

    def test_no_reports_at_all(self):
        folded = aggregate_reports([])
        assert folded.n_requests == 0
        assert folded.preemptions == 0
