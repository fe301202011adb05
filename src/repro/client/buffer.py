"""Client-side token buffer with consumption and stall accounting.

The consumer model follows the paper (§3.2): the user starts reading
at the first token's arrival and wants one token every ``1/rate``
seconds thereafter.  Token ``j`` is *consumed* at

    c_j = max(c_{j-1} + 1/rate, g_j)

where ``g_j`` is its generation (delivery) time.  Whenever
``g_j > c_{j-1} + 1/rate`` the user wanted a token that did not exist
yet — the difference accrues as rebuffer (stall) time.

Everything is computed incrementally, O(1) per delivered token.  The
consumption schedule is piecewise arithmetic: between *anchors* (a
stall, which re-bases consumption at the late token's arrival, or a
mid-stream rate change) consumption times advance by exactly one
``interval`` per token.  The buffer therefore keeps only the anchor
*segments* plus a cursor, giving closed-form O(1) occupancy queries —
``consumed_count`` replays the identical float additions the delivery
path performed, so results are bit-identical to a per-token scan.

The buffer also records ``B_{i,j}`` — the buffered-token count at the
moment token ``j`` was generated — which both the QoS metric (Eq. 1)
and the effective-throughput weight need.  It is kept as a dense
typed count array, ``counts[B]`` tokens generated at occupancy ``B``:
the first token always sees ``B = 0`` and ``B`` rises by at most one
per delivered token, so the counts of ``0..n-1`` are all non-zero and
an array indexed by ``B`` stores the histogram exactly.  It is an
``array('I')`` (unsigned 32-bit): one bucket counts one request's
tokens, far below 2**32, and an array raises ``OverflowError`` rather
than wrap.  Full per-token
traces (generation/consumption timestamps) are recorded only when
``record_trace`` is enabled, so memory-lean simulations can switch
them off without changing any metric.
"""

from __future__ import annotations

from array import array
from typing import Optional


# Typecode of the occupancy count array: unsigned 32-bit, numpy's
# ``uintc``, so the batch plane copies its ``np.bincount`` windows in
# as raw bytes.
OCC_COUNT_TYPECODE = "I"


class ClientBuffer:
    """Token buffer for one streaming request."""

    def __init__(self, rate: float, record_trace: bool = True) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        # Public, read-only by convention: the current pacing interval
        # (1/rate).  A plain attribute (not a property) because the
        # scheduler reads it on every buffer-seconds query.
        self.interval = 1.0 / rate
        self._delivered = 0
        self._stall_time = 0.0
        self._last_gen: Optional[float] = None
        self._last_consume: Optional[float] = None
        # Pacing interval of the newest (tail) segment; a delivery whose
        # current interval differs starts a fresh segment.
        self._tail_interval: Optional[float] = None
        # Consumption cursor: `_consumed` tokens have consumption time
        # <= the latest query; `_next_consume` is the consumption time
        # of token index `_consumed` (None when everything delivered is
        # consumed); `_cursor_interval` advances the cursor within its
        # current segment; `_segments` holds (first_index,
        # first_consume_time, interval) for segments the cursor has not
        # reached yet, oldest first.  Queries must come with
        # non-decreasing ``now`` (true for a simulation), which keeps
        # this O(1) amortised.  A list, not a deque: the queue is
        # almost always empty (a record needs a stall or rate change
        # behind an unconsumed backlog), so ``pop(0)`` stays cheap and
        # an idle buffer holds 56 bytes instead of a 760-byte block.
        self._consumed = 0
        # Latest instant the cursor was walked to (a query or a batch
        # delivery); an earlier query raises.
        self._queried = float("-inf")
        self._next_consume: Optional[float] = None
        self._cursor_interval = 0.0
        self._segments: list = []
        # Compact aggregate: ``_occ_counts[B]`` tokens were generated
        # at occupancy B, enough for Eq. 1 / §7.1.3 weights.  The batch
        # plane adds its windows' counts in place.
        self._occ_counts = array(OCC_COUNT_TYPECODE)
        # Optional unbounded per-token traces.
        self._trace = record_trace
        self._gen_times: Optional[list] = [] if record_trace else None
        self._consume_times: Optional[list] = [] if record_trace else None

    def set_rate(self, rate: float) -> None:
        """Change the consumption rate from now on (adaptive clients, §8).

        Already-scheduled consumption times are unchanged; only the
        pacing of future tokens uses the new rate.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if rate != self.rate:
            self.rate = rate
            self.interval = 1.0 / rate

    # --- delivery --------------------------------------------------------
    def deliver(self, timestamp: float) -> None:
        """Record delivery of one token at ``timestamp``.

        NOTE: this is the reference recurrence.  The batch plane runs
        it as is for small windows and evaluates it in closed form in
        its array kernel (:mod:`repro.serving.batchstate`) for large
        ones; any semantic or float-op change here must be mirrored in
        the kernel's formulas, or decode parity breaks.
        """
        if self._last_gen is not None and timestamp < self._last_gen:
            raise ValueError("deliveries must have non-decreasing timestamps")
        self._last_gen = timestamp
        interval = self.interval
        last_consume = self._last_consume
        if last_consume is not None:
            ideal = last_consume + interval
            if timestamp > ideal:
                # The consumer wanted this token before it existed:
                # rebuffer, then consumption re-bases at its arrival.
                self._stall_time += timestamp - ideal
                consume = timestamp
                fresh_segment = True
            else:
                consume = ideal
                fresh_segment = interval != self._tail_interval
        else:
            # First token: consumption starts when it arrives; startup
            # delay is charged via the TTFT penalty, not as a stall.
            consume = timestamp
            fresh_segment = True
        index = self._delivered
        if self._next_consume is None and self._consumed == index:
            # Cursor is parked at the end of the stream: point it at
            # this token directly (no segment record needed).
            self._next_consume = consume
            self._cursor_interval = interval
        elif fresh_segment:
            self._segments.append((index, consume, interval))
        if fresh_segment:
            self._tail_interval = interval
        self._last_consume = consume
        self._delivered = index + 1
        if self._trace:
            self._gen_times.append(timestamp)
            self._consume_times.append(consume)
        # Occupancy at generation; inline consumed_count's no-advance
        # early exit (the common case — consumption is mid-interval).
        nxt = self._next_consume
        if nxt is None or nxt > timestamp:
            occupancy = self._delivered - self._consumed
        else:
            occupancy = self._delivered - self.consumed_count(timestamp)
        counts = self._occ_counts
        if occupancy < len(counts):
            counts[occupancy] += 1
        else:
            # A new top bucket: occupancy == len(counts) (module docstring).
            counts.append(1)

    def deliver_many(self, timestamps) -> None:
        """Record delivery of one token at each of ``timestamps``, in
        order, through :meth:`deliver`.

        The batch plane's reference path: ``deliver_batch`` calls it
        per request for small windows, and for the rows of a large
        window its array kernel cannot represent, through
        :meth:`RequestTracker.deliver_tokens`.  Like the kernel, it
        walks the query guard to its last timestamp, so a later query
        for an earlier instant raises.
        """
        for timestamp in timestamps:
            self.deliver(timestamp)
        if self._last_gen is not None and self._last_gen > self._queried:
            self._queried = self._last_gen

    # --- queries ---------------------------------------------------------
    def consumed_count(self, now: float) -> int:
        """Number of tokens consumed by time ``now``.

        Queries must come with non-decreasing ``now`` (true for a
        simulation): the cursor never moves backwards, so a ``now``
        earlier than the latest instant it was walked to — by a query,
        or by :meth:`deliver_many` / the batch plane's
        ``deliver_batch``, which walk it to their last timestamp —
        raises ``ValueError`` rather than answer with a later count.
        :meth:`peek_consumed_count` answers without moving the cursor.
        """
        if now < self._queried:
            raise ValueError(
                f"consumed_count queried backwards: now={now} after {self._queried}"
            )
        self._queried = now
        nxt = self._next_consume
        if nxt is None or nxt > now:
            return self._consumed
        consumed = self._consumed
        delivered = self._delivered
        interval = self._cursor_interval
        segments = self._segments
        while nxt is not None and nxt <= now:
            consumed += 1
            if segments and segments[0][0] == consumed:
                _, nxt, interval = segments.pop(0)
            elif consumed < delivered:
                # Same arithmetic (and float rounding) as deliver():
                # one repeated addition per token within a segment.
                nxt = nxt + interval
            else:
                nxt = None
        self._consumed = consumed
        self._next_consume = nxt
        self._cursor_interval = interval
        return consumed

    def peek_consumed_count(self, at: float) -> int:
        """:meth:`consumed_count` at ``at`` without moving the cursor.

        The same float additions from the same cursor, so the count is
        the one a real query at ``at`` would return; ``at`` must not
        precede the last query (the cursor may already be past it).
        """
        nxt = self._next_consume
        consumed = self._consumed
        if nxt is None or nxt > at:
            return consumed
        delivered = self._delivered
        interval = self._cursor_interval
        segments = self._segments
        pending = 0  # segment records the cursor would have popped
        while nxt is not None and nxt <= at:
            consumed += 1
            if pending < len(segments) and segments[pending][0] == consumed:
                _, nxt, interval = segments[pending]
                pending += 1
            elif consumed < delivered:
                nxt = nxt + interval
            else:
                nxt = None
        return consumed

    def peek_consumed_at_most(self, at: float) -> int:
        """An O(1) upper bound on :meth:`peek_consumed_count` at ``at``.

        Exact when nothing is due by ``at``; otherwise counts the
        cursor segment's due instants in closed form with one token of
        slack for the repeated additions' rounding.  That slack is
        provably enough while the walk spans < 2**18 tokens and ``at``
        < interval * 2**33 (the additions then drift by far less than
        one interval); outside that, and when a later segment is
        pending, the bound is simply everything delivered.
        """
        nxt = self._next_consume
        if nxt is None or nxt > at:
            return self._consumed
        interval = self._cursor_interval
        steps = (at - nxt) / interval
        if self._segments or steps >= 2.0 ** 18 or at >= interval * 2.0 ** 33:
            return self._delivered
        bound = self._consumed + int(steps) + 2
        return bound if bound < self._delivered else self._delivered

    def occupancy(self, now: float) -> int:
        """Tokens delivered but not yet consumed at ``now`` (b_rem)."""
        return self._delivered - self.consumed_count(now)

    @property
    def delivered(self) -> int:
        """Total tokens delivered so far."""
        return self._delivered

    @property
    def stall_time(self) -> float:
        """Accumulated rebuffer time (seconds), excluding startup delay."""
        return self._stall_time

    @property
    def occupancy_counts(self) -> array:
        """Tokens generated at each occupancy ``B = 0, 1, ...``, as a
        typed ``array('I')`` of unsigned 32-bit counts (treat
        read-only); every entry is at least one.

        ``B`` is the buffered-token count at a token's generation
        instant — the compact aggregate behind Eq. 1 and the §7.1.3
        effective-throughput weights.  Compare with ``list(...)``: an
        ``array`` never equals a list.
        """
        return self._occ_counts

    def _require_trace(self) -> None:
        if not self._trace:
            raise RuntimeError(
                "per-token traces are disabled for this buffer "
                "(construct ClientBuffer(..., record_trace=True))"
            )

    @property
    def generation_times(self) -> list:
        """Per-token delivery timestamps (single materialisation —
        callers must treat the returned list as read-only)."""
        self._require_trace()
        return self._gen_times

    @property
    def consumption_times(self) -> list:
        """Per-token consumption timestamps (read-only view)."""
        self._require_trace()
        return self._consume_times

    def final_consumption_time(self) -> Optional[float]:
        """When the user finishes the stream (None if nothing delivered)."""
        return self._last_consume
