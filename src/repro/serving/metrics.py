"""Run metrics: per-request records, streaming accumulators, report.

Computes every metric the paper evaluates (§7.1.3): TTFT (mean / P50 /
P99), raw token throughput, *effective* throughput (tokens weighted by
buffer occupancy, τ₁ = 10 % / τ₂ = 20 % of output length), the QoS
score of Eq. 2, stall/rebuffer totals, and preemption/IO counters.

Two collection modes share these formulas:

* **Retained** (the default, ``ServingConfig.retain_per_request=True``)
  — every request keeps a :class:`RequestMetrics` record and the
  report is an exact fold over them, bit-identical to the historical
  pipeline (goldens pin this).
* **Streaming** (``retain_per_request=False``) — finished requests are
  *retired* into a :class:`StreamingRunStats` accumulator the moment
  they complete: counts and sums fold exactly; TTFT/stall percentiles
  come from a mergeable log-bucketed :class:`QuantileSketch` with
  bounded relative error.  Memory stays O(active requests) however
  many requests a run serves — the telemetry half of the streaming
  workload plane (ARCHITECTURE.md, "Streaming plane").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.stats import summarize
from repro.core.qos import QoSParams, fold_hist_metrics
from repro.core.tracker import RequestTracker


@dataclass(frozen=True)
class RequestMetrics:
    """Final per-request measurements."""

    req_id: int
    arrival_time: float
    ttft: Optional[float]
    finish_time: Optional[float]
    generated: int
    output_len: int
    rate: float
    stall_time: float
    effective_tokens: float
    preemptions: int
    qos_term: float


class QuantileSketch:
    """Mergeable log-bucketed quantile sketch (DDSketch-style).

    Values land in geometric buckets ``[γ^i, γ^(i+1))`` with
    ``γ = (1+α)/(1-α)``; reporting a bucket's midpoint bounds the
    relative error of any quantile estimate by ``α`` (default 1 %).
    Buckets are a sparse dict, so memory is O(distinct magnitudes) —
    tens of entries for latency-shaped data — independent of how many
    values are observed.  Sketches with equal ``rel_accuracy`` merge
    by bucket-count addition, which is what lets cluster and matrix
    aggregation fold per-instance streaming reports without per-request
    records.

    Exact count/sum/min/max ride along, so means are exact and the
    extreme quantiles clamp to true observations.
    """

    __slots__ = ("rel_accuracy", "_gamma_log", "count", "total",
                 "_buckets", "_zero_count", "minimum", "maximum")

    # Values below this are indistinguishable from zero for latency
    # metrics and would explode the log bucketing.
    _EPS = 1e-12

    def __init__(self, rel_accuracy: float = 0.01) -> None:
        if not 0 < rel_accuracy < 1:
            raise ValueError("rel_accuracy must be in (0, 1)")
        self.rel_accuracy = rel_accuracy
        self._gamma_log = math.log((1 + rel_accuracy) / (1 - rel_accuracy))
        self.count = 0
        self.total = 0.0
        self._buckets: dict = {}
        self._zero_count = 0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation (must be non-negative)."""
        if value < 0:
            raise ValueError(f"sketch values must be non-negative, got {value}")
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= self._EPS:
            self._zero_count += 1
            return
        key = math.ceil(math.log(value) / self._gamma_log)
        self._buckets[key] = self._buckets.get(key, 0) + 1

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (same ``rel_accuracy``)."""
        if other.rel_accuracy != self.rel_accuracy:
            raise ValueError(
                f"cannot merge sketches with different accuracies "
                f"({self.rel_accuracy} vs {other.rel_accuracy})"
            )
        self.count += other.count
        self.total += other.total
        self._zero_count += other._zero_count
        for key, n in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + n
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Approximate the ``q``-th percentile (``q`` in [0, 100]).

        Returns the midpoint of the bucket holding the order statistic
        at rank ``(count-1)·q/100`` — within ``rel_accuracy`` of the
        exact value — clamped to the observed min/max.  NaN when empty.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return float("nan")
        target = (self.count - 1) * q / 100.0
        cum = self._zero_count
        if cum > target:
            return 0.0
        gamma = math.exp(self._gamma_log)
        for key in sorted(self._buckets):
            cum += self._buckets[key]
            if cum > target:
                # Midpoint of [γ^(k-1), γ^k): 2·γ^k/(γ+1).
                estimate = 2.0 * math.exp(key * self._gamma_log) / (gamma + 1.0)
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum

    def copy(self) -> "QuantileSketch":
        clone = QuantileSketch(self.rel_accuracy)
        clone.count = self.count
        clone.total = self.total
        clone._buckets = dict(self._buckets)
        clone._zero_count = self._zero_count
        clone.minimum = self.minimum
        clone.maximum = self.maximum
        return clone

    def to_dict(self) -> dict:
        """JSON-safe summary (bucket detail elided)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(50),
            "p99": self.quantile(99),
            "rel_accuracy": self.rel_accuracy,
        }

    # Pickle support for __slots__ (reports cross process boundaries
    # in the matrix orchestrator).
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)


class StreamingRunStats:
    """Bounded-memory fold of per-request metrics.

    The telemetry sink of the streaming plane: the
    :class:`~repro.core.tracker.RequestTracker` retires each finished
    request into :meth:`observe` the moment it completes, after which
    the request's tracker entry (buffer, token timestamps) is dropped.
    Counts and sums fold exactly — throughput, effective throughput,
    QoS, total/mean stalls and TTFT *means* are exact; TTFT/stall
    *percentiles* come from :class:`QuantileSketch` within its
    ``rel_accuracy``.  Everything merges, so cluster/matrix
    aggregation works without per-request records.

    QoS bookkeeping: Eq. 2's per-request term is linear in its
    penalties, so requests without a TTFT (never started — the
    retained path substitutes the run makespan, only known at report
    time) accumulate their utility−rebuffer part in ``qos_pending``
    and the makespan penalty is applied once at :meth:`assemble`.
    """

    def __init__(
        self,
        qos_params: Optional[QoSParams] = None,
        rel_accuracy: float = 0.01,
    ) -> None:
        self.qos_params = qos_params if qos_params is not None else QoSParams()
        self.rel_accuracy = rel_accuracy
        self.n_requests = 0
        self.n_finished = 0
        self.total_tokens = 0
        self.effective_total = 0.0
        self.qos_sum = 0.0          # finalised per-request QoS terms
        self.qos_pending = 0.0      # utility − μ·rebuffer of TTFT-less requests
        self.n_no_ttft = 0
        self.stall_total = 0.0
        self.preemptions = 0
        self.ttft = QuantileSketch(rel_accuracy)
        self.stall = QuantileSketch(rel_accuracy)

    # --- folding ------------------------------------------------------
    def observe(self, request, buffer) -> None:
        """Retire one request: fold its final metrics and let the
        caller drop the per-request state."""
        params = self.qos_params
        effective, utility_sum = fold_hist_metrics(
            buffer.occupancy_counts, request.output_len, params
        )
        ttft = request.ttft
        rebuffer = 0.0 if request.is_agent else buffer.stall_time
        self.n_requests += 1
        self.total_tokens += request.generated
        self.effective_total += effective
        self.stall_total += buffer.stall_time
        self.stall.add(buffer.stall_time)
        self.preemptions += request.preemption_count
        if request.is_finished:
            self.n_finished += 1
        if ttft is not None:
            self.ttft.add(ttft)
            self.qos_sum += (
                utility_sum - params.lam * ttft - params.mu * rebuffer
            )
        else:
            self.qos_pending += (
                utility_sum - params.lam * 0.0 - params.mu * rebuffer
            )
            self.n_no_ttft += 1

    def observe_metrics(self, metrics: RequestMetrics) -> None:
        """Fold one retained :class:`RequestMetrics` record (mixed
        retained/streaming aggregation).  The record's ``qos_term`` is
        already final — its source report resolved any makespan
        substitution — so it lands in ``qos_sum`` directly."""
        self.n_requests += 1
        self.total_tokens += metrics.generated
        self.effective_total += metrics.effective_tokens
        self.qos_sum += metrics.qos_term
        self.stall_total += metrics.stall_time
        self.stall.add(metrics.stall_time)
        self.preemptions += metrics.preemptions
        if metrics.finish_time is not None:
            self.n_finished += 1
        if metrics.ttft is not None:
            self.ttft.add(metrics.ttft)

    def merge(self, other: "StreamingRunStats") -> None:
        """Fold ``other``'s accumulators into this one."""
        self.n_requests += other.n_requests
        self.n_finished += other.n_finished
        self.total_tokens += other.total_tokens
        self.effective_total += other.effective_total
        self.qos_sum += other.qos_sum
        self.qos_pending += other.qos_pending
        self.n_no_ttft += other.n_no_ttft
        self.stall_total += other.stall_total
        self.preemptions += other.preemptions
        self.ttft.merge(other.ttft)
        self.stall.merge(other.stall)

    def copy(self) -> "StreamingRunStats":
        clone = StreamingRunStats(self.qos_params, self.rel_accuracy)
        clone.n_requests = self.n_requests
        clone.n_finished = self.n_finished
        clone.total_tokens = self.total_tokens
        clone.effective_total = self.effective_total
        clone.qos_sum = self.qos_sum
        clone.qos_pending = self.qos_pending
        clone.n_no_ttft = self.n_no_ttft
        clone.stall_total = self.stall_total
        clone.preemptions = self.preemptions
        clone.ttft = self.ttft.copy()
        clone.stall = self.stall.copy()
        return clone

    # --- reporting ----------------------------------------------------
    def assemble(
        self,
        system: str,
        makespan: float,
        timeline: Optional[list] = None,
        executor_stats: Optional[dict] = None,
        kv_stats: Optional[dict] = None,
        scheduler_stats: Optional[dict] = None,
    ) -> "RunReport":
        """Build a sketch-backed :class:`RunReport` (``per_request`` is
        empty; the resolved stats ride on ``report.stream_stats`` so
        downstream aggregation can keep folding)."""
        makespan = max(makespan, 1e-9)
        resolved = self.copy()
        if resolved.n_no_ttft:
            # The retained path substitutes the makespan for a missing
            # TTFT; Eq. 2 is linear, so apply it in bulk here.
            resolved.qos_sum += (
                resolved.qos_pending
                - self.qos_params.lam * makespan * resolved.n_no_ttft
            )
            resolved.qos_pending = 0.0
            resolved.n_no_ttft = 0
        has_ttft = resolved.ttft.count > 0
        return RunReport(
            system=system,
            n_requests=resolved.n_requests,
            n_finished=resolved.n_finished,
            makespan=makespan,
            total_tokens=resolved.total_tokens,
            throughput=resolved.total_tokens / makespan,
            effective_tokens=resolved.effective_total,
            effective_throughput=resolved.effective_total / makespan,
            qos=resolved.qos_sum / makespan,
            ttft_mean=resolved.ttft.mean if has_ttft else float("nan"),
            ttft_p50=resolved.ttft.quantile(50) if has_ttft else float("nan"),
            ttft_p99=resolved.ttft.quantile(99) if has_ttft else float("nan"),
            stall_total=resolved.stall_total,
            stall_mean=resolved.stall_total / max(1, resolved.n_requests),
            preemptions=resolved.preemptions,
            per_request=[],
            timeline=timeline if timeline is not None else [],
            executor_stats=executor_stats if executor_stats is not None else {},
            kv_stats=kv_stats if kv_stats is not None else {},
            scheduler_stats=scheduler_stats if scheduler_stats is not None else {},
            stream_stats=resolved,
        )


@dataclass
class RunReport:
    """Aggregate results of one serving run."""

    system: str
    n_requests: int
    n_finished: int
    makespan: float
    total_tokens: int
    throughput: float
    effective_tokens: float
    effective_throughput: float
    qos: float
    ttft_mean: float
    ttft_p50: float
    ttft_p99: float
    stall_total: float
    stall_mean: float
    preemptions: int
    per_request: list = field(default_factory=list)
    timeline: list = field(default_factory=list)  # (t, queued, running)
    executor_stats: dict = field(default_factory=dict)
    kv_stats: dict = field(default_factory=dict)
    scheduler_stats: dict = field(default_factory=dict)
    # Streaming-mode runs carry their resolved accumulator here (and an
    # empty per_request); retained runs leave it None.
    stream_stats: Optional[StreamingRunStats] = None

    def summary_row(self) -> list:
        """The four headline metrics as a table row."""
        return [
            self.system,
            round(self.effective_throughput, 1),
            round(self.throughput, 1),
            round(self.ttft_mean, 3),
            round(self.ttft_p99, 3),
        ]

    @staticmethod
    def summary_headers() -> list:
        return ["system", "eff_thpt(tok/s)", "thpt(tok/s)", "mean_ttft(s)", "p99_ttft(s)"]


def build_report(
    system: str,
    tracker: RequestTracker,
    makespan: float,
    qos_params: Optional[QoSParams] = None,
    timeline: Optional[list] = None,
    executor_stats: Optional[dict] = None,
    kv_stats: Optional[dict] = None,
    scheduler_stats: Optional[dict] = None,
    stream_stats: Optional[StreamingRunStats] = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from tracker state.

    ``makespan`` is the overall request-process time T of Eq. 2 —
    first arrival to last activity.

    When ``stream_stats`` is given (streaming-telemetry runs), the
    report is assembled from that accumulator — already holding every
    retired request — plus a fold of whatever entries are still live
    in the tracker (unfinished or cancelled stragglers); the retained
    per-request walk below never runs.
    """
    if stream_stats is not None:
        stats = stream_stats.copy()
        for entry in tracker.entries():
            stats.observe(entry.request, entry.buffer)
        return stats.assemble(
            system=system,
            makespan=makespan,
            timeline=timeline,
            executor_stats=executor_stats,
            kv_stats=kv_stats,
            scheduler_stats=scheduler_stats,
        )
    params = qos_params if qos_params is not None else QoSParams()
    per_request: list = []
    total_tokens = 0
    effective_total = 0.0
    qos_terms: list = []
    ttfts: list = []
    stalls: list = []
    preemptions = 0
    n_finished = 0
    for entry in tracker.entries():
        request, buffer = entry.request, entry.buffer
        # The dense occupancy counts stand in for the per-token
        # B_{i,j} list — they work whether or not the buffer keeps full
        # traces, and evaluate each weight once per distinct value.
        effective, utility_sum = fold_hist_metrics(
            buffer.occupancy_counts, request.output_len, params
        )
        ttft = request.ttft
        # Agent clients (§8) have no real-time consumer: their
        # reference rate is a priority signal, so "stalls" against it
        # carry no experience penalty.
        rebuffer = 0.0 if request.is_agent else buffer.stall_time
        qos_term = (
            utility_sum
            - params.lam * (ttft if ttft is not None else makespan)
            - params.mu * rebuffer
        )
        per_request.append(
            RequestMetrics(
                req_id=request.req_id,
                arrival_time=request.arrival_time,
                ttft=ttft,
                finish_time=request.finish_time,
                generated=request.generated,
                output_len=request.output_len,
                rate=request.rate,
                stall_time=buffer.stall_time,
                effective_tokens=effective,
                preemptions=request.preemption_count,
                qos_term=qos_term,
            )
        )
        total_tokens += request.generated
        effective_total += effective
        qos_terms.append(qos_term)
        preemptions += request.preemption_count
        if ttft is not None:
            ttfts.append(ttft)
        stalls.append(buffer.stall_time)
        if request.is_finished:
            n_finished += 1

    return _assemble_report(
        system=system,
        per_request=per_request,
        makespan=makespan,
        total_tokens=total_tokens,
        effective_total=effective_total,
        qos_terms=qos_terms,
        ttfts=ttfts,
        stalls=stalls,
        preemptions=preemptions,
        n_finished=n_finished,
        timeline=timeline,
        executor_stats=executor_stats,
        kv_stats=kv_stats,
        scheduler_stats=scheduler_stats,
    )


def _assemble_report(
    system: str,
    per_request: list,
    makespan: float,
    total_tokens: int,
    effective_total: float,
    qos_terms: list,
    ttfts: list,
    stalls: list,
    preemptions: int,
    n_finished: int,
    timeline: Optional[list] = None,
    executor_stats: Optional[dict] = None,
    kv_stats: Optional[dict] = None,
    scheduler_stats: Optional[dict] = None,
) -> RunReport:
    """Fold accumulated per-request terms into a :class:`RunReport`.

    Shared by the single-node :func:`build_report` and the cluster
    aggregation in :func:`aggregate_reports`, so cluster-level
    throughput/TTFT/stall numbers use exactly the single-node formulas
    (same percentile definition, same makespan flooring).
    """
    makespan = max(makespan, 1e-9)
    ttft_summary = summarize(ttfts) if ttfts else None
    return RunReport(
        system=system,
        n_requests=len(per_request),
        n_finished=n_finished,
        makespan=makespan,
        total_tokens=total_tokens,
        throughput=total_tokens / makespan,
        effective_tokens=effective_total,
        effective_throughput=effective_total / makespan,
        qos=sum(qos_terms) / makespan,
        ttft_mean=ttft_summary.mean if ttft_summary else float("nan"),
        ttft_p50=ttft_summary.p50 if ttft_summary else float("nan"),
        ttft_p99=ttft_summary.p99 if ttft_summary else float("nan"),
        stall_total=float(sum(stalls)),
        stall_mean=float(sum(stalls)) / max(1, len(stalls)),
        preemptions=preemptions,
        per_request=per_request,
        timeline=timeline if timeline is not None else [],
        executor_stats=executor_stats if executor_stats is not None else {},
        kv_stats=kv_stats if kv_stats is not None else {},
        scheduler_stats=scheduler_stats if scheduler_stats is not None else {},
    )


def report_fingerprint(report: RunReport) -> tuple:
    """Every aggregate number plus exact per-request detail, as one
    hashable value.

    The determinism-audit primitive: two runs of the same scenario are
    "bit-identical" iff their fingerprints compare equal (used by the
    orchestrator's matrix-vs-solo parity tests and available for ad-hoc
    reproducibility checks).  Floats are compared exactly — no
    tolerance — which is the point.
    """
    per_request = tuple(
        (m.req_id, m.ttft, m.finish_time, m.generated, m.stall_time,
         m.effective_tokens, m.qos_term, m.preemptions)
        for m in report.per_request
    )
    return (report.n_requests, report.n_finished, report.total_tokens,
            report.throughput, report.effective_throughput, report.qos,
            report.ttft_mean, report.ttft_p50, report.ttft_p99,
            report.stall_total, report.preemptions, per_request)


def aggregate_reports(reports: Sequence, system: str = "cluster") -> RunReport:
    """Fold per-instance :class:`RunReport` objects into one aggregate.

    Used by the cluster layer so cluster-level throughput, TTFT
    percentiles, stall totals and QoS come from the *same* formulas as
    the single-node report (no duplicated aggregation code).  The
    cluster makespan is the longest per-instance makespan among
    instances that served requests — every instance shares one engine
    clock, so this is the wall of the whole run.

    Sketch-backed reports (streaming telemetry) aggregate by merging
    their accumulators; a mix of retained and streaming reports is
    handled by folding the retained per-request rows into the merged
    accumulator, so the aggregate is sketch-backed whenever any input
    is.  All-retained inputs keep the exact historical fold.
    """
    makespan = max((r.makespan for r in reports if r.n_requests), default=1e-9)
    if any(r.stream_stats is not None for r in reports):
        merged: Optional[StreamingRunStats] = None
        retained: list = []
        for report in reports:
            if report.stream_stats is None:
                retained.append(report)
            elif merged is None:
                merged = report.stream_stats.copy()
            else:
                merged.merge(report.stream_stats)
        assert merged is not None
        for report in retained:
            for metrics in report.per_request:
                merged.observe_metrics(metrics)
        return merged.assemble(system=system, makespan=makespan)
    per_request = [m for report in reports for m in report.per_request]
    return _assemble_report(
        system=system,
        per_request=per_request,
        makespan=makespan,
        total_tokens=sum(r.total_tokens for r in reports),
        effective_total=sum(r.effective_tokens for r in reports),
        qos_terms=[m.qos_term for m in per_request],
        ttfts=[m.ttft for m in per_request if m.ttft is not None],
        stalls=[m.stall_time for m in per_request],
        preemptions=sum(r.preemptions for r in reports),
        n_finished=sum(r.n_finished for r in reports),
    )
