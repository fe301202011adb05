"""Event types and the timestamp-ordered event queue.

Events are opaque callbacks tagged with a timestamp and an insertion
sequence number.  Ordering is (timestamp, sequence), so events that
share a timestamp run in the order they were scheduled — this keeps
runs deterministic without relying on heap tie-breaking accidents.

Cancellation is lazy in the heap (the entry is discarded when it
surfaces) but eager in the accounting: :meth:`Event.cancel` notifies
the owning queue immediately, so ``len(queue)`` never
overcount between a cancel and the eventual pop.  When cancelled
entries come to dominate the heap (>50 % dead), the queue compacts —
rebuilding the heap from the live entries — so long cluster runs with
heavy cancellation keep the heap proportional to the live event count.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Event:
    """A scheduled callback.

    Heaps order events by ``(time, seq)`` tuple keys pushed alongside
    them, so an ``Event`` itself is never compared.

    Attributes:
        time: absolute simulation time at which the event fires.
        seq: insertion order, used to break timestamp ties.
        action: zero-argument callable executed when the event fires.
        label: human-readable tag for debugging and tracing.
        cancelled: set via :meth:`cancel`; cancelled events are skipped.
    """

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    # Owning queue while the event is live in it; cleared on pop so a
    # late cancel() cannot double-decrement the live count.
    _queue: Optional["EventQueue"] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Idempotent; the owning queue's live count is corrected at
        cancel time, not when the stale heap entry is discarded.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancelled()


class EventQueue:
    """Min-heap of ``(time, seq, event)`` entries.

    ``seq`` is unique per queue, so heap comparisons settle on the two
    leading numbers and never reach the event.
    """

    # Compaction threshold: never compact heaps smaller than this (the
    # O(n) rebuild must stay amortised against real dead-entry volume).
    _COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def push(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute ``time`` and return the event."""
        seq = next(self._counter)
        event = Event(time=time, seq=seq, action=action, label=label, _queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def _note_cancelled(self) -> None:
        """Accounting hook: a live event of ours was just cancelled.

        Compacts the heap when cancelled entries exceed half of it:
        each compaction removes >n/2 dead entries and costs O(n), so
        the rebuild work is amortised O(1) per cancellation, and
        ordering is untouched (entries compare by (time, seq)).
        """
        self._live -= 1
        heap = self._heap
        if (
            len(heap) >= self._COMPACT_MIN_SIZE
            and (len(heap) - self._live) * 2 > len(heap)
        ):
            self._heap = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(self._heap)

    def pop(self) -> Optional[Event]:
        """Pop the earliest live event, or ``None`` if the queue is empty.

        Cancelled events are discarded transparently (their live count
        was already corrected at cancel time).
        """
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if event.cancelled:
                continue
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest live event, or ``None``.

        Dead (cancelled) heads are discarded on the way, so the value
        is exact, not an upper bound — callers use it both as the run
        loop's next-event probe and as the *decision horizon* for
        closed-form multi-step advances (nothing scheduled can fire
        strictly before this time).
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def peek(self, ignore: Optional[Event] = None) -> Optional[Event]:
        """The earliest live event other than ``ignore``, or ``None``.

        Skipping ``ignore`` pops it off the heap and pushes it back:
        the heap's layout may change, but entries are ordered by their
        unique ``(time, seq)`` keys, so the pop order does not.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        head = heap[0]
        if head[2] is not ignore:
            return head[2]
        heapq.heappop(heap)
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        event = heap[0][2] if heap else None
        heapq.heappush(heap, head)
        return event

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
