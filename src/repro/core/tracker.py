"""Request Tracker (paper §3.1, first component).

Monitors each request's runtime status: buffer token counts, required
consumption rate, preemption history, and resource usage.  Both the
scheduler (buffer occupancy in tokens and in seconds of playback) and
the metrics pipeline (QoS inputs) read from here.

Every buffer query reads the request's :class:`ClientBuffer` cursor
directly at ``now``; queries come at non-decreasing ``now``, so the
cursor walk is O(1) amortised and no per-instant cache is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.client.buffer import ClientBuffer
from repro.workload.request import Request


@dataclass
class TrackedRequest:
    """A request together with its client-side buffer."""

    request: Request
    buffer: ClientBuffer


class RequestTracker:
    """Registry of all requests seen by the serving system.

    With ``retire_into`` set (streaming telemetry, see
    :class:`~repro.serving.metrics.StreamingRunStats`), a finished
    request is *retired* the moment :meth:`mark_finished` runs: its
    final metrics fold into the sink and its entry — request object
    and buffer — is dropped, so tracker memory is O(active requests)
    rather than O(total).  The earliest arrival, which report building
    needs across retirements, is maintained incrementally.
    """

    def __init__(self, record_traces: bool = True, retire_into=None) -> None:
        self._entries: dict[int, TrackedRequest] = {}
        self._record_traces = record_traces
        # Retirement sink: any object with observe(request, buffer).
        self._retire_sink = retire_into
        self._min_arrival: Optional[float] = None

    # --- registration ------------------------------------------------------
    def register(self, request: Request) -> TrackedRequest:
        if request.req_id in self._entries:
            raise ValueError(f"request {request.req_id} already tracked")
        entry = TrackedRequest(
            request=request,
            buffer=ClientBuffer(rate=request.rate, record_trace=self._record_traces),
        )
        self._entries[request.req_id] = entry
        if self._min_arrival is None or request.arrival_time < self._min_arrival:
            self._min_arrival = request.arrival_time
        return entry

    def get(self, req_id: int) -> TrackedRequest:
        if req_id not in self._entries:
            raise KeyError(f"request {req_id} is not tracked")
        return self._entries[req_id]

    def __contains__(self, req_id: int) -> bool:
        return req_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries_by_id(self) -> dict:
        """Live ``{req_id -> TrackedRequest}`` map (treat read-only).

        Exposed for the batch plane's token delivery, which mutates the
        requests and buffers directly.
        """
        return self._entries

    # --- event hooks --------------------------------------------------------
    def deliver_tokens(self, req_id: int, timestamps: list) -> None:
        """Record ``len(timestamps)`` generated tokens, one at each
        (non-decreasing) instant, flowing into the client buffer.

        The one per-request delivery entry point outside the batch
        plane's :func:`~repro.serving.batchstate.deliver_batch` (its
        scalar fallback for one request calls it).  Raises before any
        state moves if the tokens would exceed ``output_len`` or the
        first timestamp precedes the buffer's last delivery.
        """
        entry = self._entries.get(req_id)
        if entry is None:
            raise KeyError(f"request {req_id} is not tracked")
        request = entry.request
        n = len(timestamps)
        if request.generated + n > request.output_len:
            raise RuntimeError(
                f"request {req_id} would exceed its {request.output_len} tokens"
            )
        buffer = entry.buffer
        first = timestamps[0]
        last_gen = buffer._last_gen
        if last_gen is not None and first < last_gen:
            raise ValueError("deliveries must have non-decreasing timestamps")
        if request.ttft is None:
            request.ttft = first - request.arrival_time
        request.generated += n
        buffer.deliver_many(timestamps)

    def mark_finished(self, req_id: int, timestamp: float) -> None:
        entry = self.get(req_id)
        entry.request.finish_time = timestamp
        if self._retire_sink is not None:
            self._retire_sink.observe(entry.request, entry.buffer)
            del self._entries[req_id]

    # --- scheduler queries -----------------------------------------------------
    def occupancy(self, req_id: int, now: float) -> int:
        """b_rem: unread tokens currently buffered for this request."""
        return self._entries[req_id].buffer.occupancy(now)

    def buffer_seconds(self, req_id: int, now: float) -> float:
        """Buffer occupancy measured in seconds of consumption: the
        slack before this request's buffer runs dry at its current rate."""
        buffer = self._entries[req_id].buffer
        return buffer.occupancy(now) * buffer.interval

    def buffer_seconds_many(self, requests: Sequence, now: float) -> list:
        """:meth:`buffer_seconds` for each request, one flat pass.

        Batched for the scheduler's ranking passes, which
        decorate-sort the result instead of paying a key callback per
        element.
        """
        entries = self._entries
        out = []
        append = out.append
        for request in requests:
            buffer = entries[request.req_id].buffer
            append(buffer.occupancy(now) * buffer.interval)
        return out

    def min_buffer_seconds(self, requests: Sequence, now: float) -> float:
        """Smallest ``buffer_seconds`` across ``requests`` (non-empty).

        The bulk query behind the serving loop's per-iteration
        min-buffer index.
        """
        entries = self._entries
        smallest: Optional[float] = None
        for request in requests:
            buffer = entries[request.req_id].buffer
            seconds = buffer.occupancy(now) * buffer.interval
            if smallest is None or seconds < smallest:
                smallest = seconds
        if smallest is None:
            raise ValueError("min_buffer_seconds needs a non-empty request set")
        return smallest

    def peek_buffers_hold(self, requests: Sequence, at: float,
                          seconds: float) -> bool:
        """Does every request's buffer hold at least ``seconds`` at the
        future instant ``at``?  Read without moving any consumption
        cursor.

        The answer is the one ``min(buffer_seconds_many(requests, at))
        >= seconds`` would give.  The fusion plane's idle-tick
        certificate asks this about boundaries inside a window it may
        still reject, so a query here must leave every buffer as a
        later real query expects.  A closed-form lower bound on each
        buffer settles most requests; the rest take the exact walk.
        """
        entries = self._entries
        for request in requests:
            buffer = entries[request.req_id].buffer
            delivered = buffer.delivered
            interval = buffer.interval
            if (delivered - buffer.peek_consumed_at_most(at)) * interval >= seconds:
                continue
            if (delivered - buffer.peek_consumed_count(at)) * interval < seconds:
                return False
        return True

    # --- metric queries --------------------------------------------------------
    def entries(self) -> Iterable[TrackedRequest]:
        return self._entries.values()

    def first_arrival(self) -> Optional[float]:
        """Earliest arrival ever registered (tracked incrementally, so
        the answer survives retirement of the entry that set it)."""
        return self._min_arrival
