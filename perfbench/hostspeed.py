"""Host-speed reference: a fixed workload timed next to every sample.

On a shared host the same code runs 20–30% faster or slower from one
minute to the next as neighbours load the machine.  ``reference_work``
is a fixed mix of the operations the simulator's hot paths spend their
time on, kept here so that no change to the program can alter it.  Its
wall time is measured right before and right after each timed sample;
the sample is then scaled to a host on which the reference takes
``NOMINAL_S``:

    scaled = sample * NOMINAL_S / mean(reference before, reference after)

so a slower minute lengthens the sample and the reference alike, and
the scaled value stays put.  The raw values are printed alongside.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# Wall time of reference_work() on a 2-CPU Xeon container at its
# typical speed; scaled values are seconds on such a host.
NOMINAL_S = 0.15


class _Item:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.next = None


def reference_work(n: int = 60_000) -> float:
    """Heap pushes and pops, dict updates, slotted-object attribute
    access, float arithmetic and small numpy ops, in fixed proportions."""
    heap, table, items = [], {}, []
    acc = 0.0
    arr = np.arange(64, dtype=np.float64)
    x = 0.5
    for i in range(n):
        x = (x * 3.9) % 1.0
        heapq.heappush(heap, (x, i))
        if len(heap) > 512:
            heapq.heappop(heap)
        k = i & 1023
        table[k] = table.get(k, 0.0) + x
        item = _Item(k, x)
        if items:
            items[-1].next = item
        items.append(item)
        if len(items) > 2048:
            del items[:1024]
        acc += item.value * 1e-6
        if i % 64 == 0:
            arr = np.maximum.accumulate(arr * 1.0000001 + x)
    return acc + float(arr[-1])


def measure() -> float:
    """Wall seconds of one ``reference_work()``."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scaled(sample: float, before: float, after: float) -> float:
    """``sample`` rescaled to the nominal host (see module docstring)."""
    return sample * NOMINAL_S / ((before + after) / 2.0)
