"""PCIe link model: per-direction bandwidth queues.

PCIe is full duplex, so host-to-device (loads) and device-to-host
(evictions / write-through) are modelled as two independent FIFO
directions.  Each direction tracks a ``busy_until`` horizon; submitting
a transfer appends it after any in-flight work, and the chunked writer
can instead *steal idle time* inside a bounded window — the mechanism
behind the paper's synchronous chunked writing (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransferJob:
    """One completed-in-the-future transfer reservation."""

    nbytes: float
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class PCIeDirection:
    """One direction of the host link (a bandwidth-limited FIFO)."""

    def __init__(self, bandwidth_bytes_per_s: float, name: str = "") -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth_bytes_per_s
        self.name = name
        self._busy_until = 0.0
        self._busy_time = 0.0

    # --- queries -----------------------------------------------------------
    def busy_until(self) -> float:
        return self._busy_until

    def queueing_delay(self, now: float) -> float:
        """Seconds a transfer submitted at ``now`` waits before starting."""
        return max(0.0, self._busy_until - now)

    def transfer_seconds(self, nbytes: float) -> float:
        return nbytes / self.bandwidth

    @property
    def busy_time(self) -> float:
        return self._busy_time

    # --- mutation ------------------------------------------------------------
    def submit(self, nbytes: float, now: float, earliest_start: float = 0.0) -> TransferJob:
        """Queue a transfer of ``nbytes``; returns its reservation.

        The transfer starts when the direction is free and not before
        ``earliest_start`` (used to serialise against the other
        direction when load-evict overlap is disabled).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        start = max(now, self._busy_until, earliest_start)
        duration = self.transfer_seconds(nbytes)
        end = start + duration
        self._busy_until = end
        self._busy_time += duration
        return TransferJob(nbytes=nbytes, start=start, end=end)

    def idle_bytes_within(self, now: float, horizon: float) -> float:
        """Bytes transferable in ``[now, horizon]`` after queued work."""
        window_start = max(now, self._busy_until)
        if horizon <= window_start:
            return 0.0
        return (horizon - window_start) * self.bandwidth

    def occupy(self, nbytes: float, now: float) -> None:
        """Account a chunked-writer transfer without a reservation.

        Same state mutations as :meth:`submit` (start at
        ``max(now, busy_until)``, extend the busy horizon, count busy
        time) but skips building a :class:`TransferJob` — the
        chunked writer issues one of these per dirty record per
        iteration and never needs the reservation back.
        """
        start = now if now >= self._busy_until else self._busy_until
        duration = nbytes / self.bandwidth
        self._busy_until = start + duration
        self._busy_time += duration

    def occupy_drains(self, n: int, nbytes_each: float, starts) -> None:
        """Account ``n`` equal chunked-writer transfers at each instant
        in ``starts``, in order: one drain per instant.

        One call in place of ``n`` :meth:`occupy` calls per drain — the
        uniform write drain of one iteration (``starts`` of length 1)
        or of every interior boundary of a fused decode window.
        ``busy_until`` is *live* simulation state — future budget and
        queueing queries read it — so a drain whose transfers the next
        drain could observe replays the exact per-transfer float
        additions.  Only the last drain always can: the window planner
        sized every iteration's d2h budget to cover its drain with a
        6.25% margin, so an earlier chain whose closed-form end (plus a
        rounding bound far above the ``n`` additions' error) falls
        before the next start leaves that drain starting on an idle
        link whatever the chain's exact value, and is skipped.  The
        busy-time total only feeds reporting; each drain adds its
        total in closed form (within float summation-order error of
        the per-transfer path).
        """
        if n <= 0 or nbytes_each <= 0:
            return
        duration = nbytes_each / self.bandwidth
        drain_busy = duration * n
        busy_time = self._busy_time
        busy = self._busy_until
        last = len(starts) - 1
        for j, start in enumerate(starts):
            busy_time += drain_busy
            if start >= busy:
                busy = start
            if j < last:
                end = busy + drain_busy
                if end + n * (end + duration) * 2.0 ** -50 < starts[j + 1]:
                    busy = end
                    continue
            for _ in range(n):
                busy = busy + duration
        self._busy_until = busy
        self._busy_time = busy_time


class PCIeLink:
    """The full-duplex host link: h2d (loads) + d2h (evictions)."""

    def __init__(self, bandwidth_bytes_per_s: float) -> None:
        self.h2d = PCIeDirection(bandwidth_bytes_per_s, name="h2d")
        self.d2h = PCIeDirection(bandwidth_bytes_per_s, name="d2h")

    def utilisation(self, elapsed: float) -> dict:
        """Fractional busy time per direction over ``elapsed`` seconds."""
        if elapsed <= 0:
            return {"h2d": 0.0, "d2h": 0.0}
        return {
            "h2d": min(1.0, self.h2d.busy_time / elapsed),
            "d2h": min(1.0, self.d2h.busy_time / elapsed),
        }
