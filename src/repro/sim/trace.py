"""Structured event tracing for simulation runs.

A :class:`TraceRecorder` collects `(time, category, event, fields)`
records from any component that accepts one.  The serving loop emits
executor events (one per prefill or decode event; a fused decode
window is one record carrying its iteration count) and request
lifecycle events when given a recorder, which makes scheduling
pathologies (starvation, thrash, OOM storms) visible without ad-hoc
prints, and exports cleanly to JSONL for external tooling.

Recording is opt-in and only observes: an attached recorder never
changes which code path runs, and the no-recorder path costs one
`is None` check per recorded event site.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from pathlib import Path
from typing import Optional, Sequence, Union


class TraceRecord:
    """One trace event."""

    __slots__ = ("time", "category", "event", "fields")

    def __init__(self, time: float, category: str, event: str, fields: dict) -> None:
        self.time = time
        self.category = category
        self.event = event
        self.fields = fields

    def as_dict(self) -> dict:
        return {
            "time": self.time,
            "category": self.category,
            "event": self.event,
            **self.fields,
        }

    def __repr__(self) -> str:
        return f"TraceRecord(t={self.time:.4f}, {self.category}.{self.event}, {self.fields})"


class TraceRecorder:
    """In-memory trace sink with category filtering.

    Args:
        categories: if given, only these categories are recorded.
        capacity: ring-buffer bound; oldest records are dropped beyond
            it, in O(1) per record (None = unbounded).
    """

    def __init__(
        self,
        categories: Optional[Sequence] = None,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self._categories = frozenset(categories) if categories is not None else None
        self.records: deque = deque(maxlen=capacity)
        self.dropped = 0

    def wants(self, category: str) -> bool:
        return self._categories is None or category in self._categories

    def record(self, time: float, category: str, event: str, **fields) -> None:
        """Append one event (dropped silently if filtered out)."""
        if not self.wants(category):
            return
        if len(self.records) == self.records.maxlen:
            self.dropped += 1
        self.records.append(TraceRecord(time, category, event, fields))

    # --- queries ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def by_category(self, category: str) -> list:
        return [r for r in self.records if r.category == category]

    def by_event(self, event: str) -> list:
        return [r for r in self.records if r.event == event]

    def counts(self) -> dict:
        """{(category, event): count} summary."""
        return dict(Counter((r.category, r.event) for r in self.records))

    def between(self, start: float, end: float) -> list:
        return [r for r in self.records if start <= r.time <= end]

    # --- export --------------------------------------------------------------
    def to_jsonl(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record.as_dict()) + "\n")
        return path
