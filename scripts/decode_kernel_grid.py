"""Time the batch plane's delivery paths over a B × K grid.

``repro.serving.batchstate.deliver_batch`` delivers a window of at
most ``REFERENCE_MAX_ELEMENTS`` rows × K (and every one-token window)
through the reference recurrence, ``ClientBuffer.deliver_many`` per
row, and a larger one through the numpy array kernel.  This script
times both paths on the same buffers for every (rows, K) cell and
prints µs per call and which path is faster, then the largest element
count up to which the reference path won every cell, so the crossover
can be re-derived on other hardware::

    PYTHONPATH=src python scripts/decode_kernel_grid.py [--repeat 200]

The array kernel only reads buffer state (``deliver_batch`` writes it
back), so each cell times repeated calls on one set of warmed-up
buffers, without the write-back, which favours the kernel.
``deliver_many`` mutates its buffer, so each of its calls gets a
fresh copy, made outside the timed region.  Buffers get mixed states:
some carry a backlog of unconsumed tokens, some are drained, and read
rates vary, so the window has stalls.  ``--repeat 1`` is a quick smoke
that every path still runs.

A second table times burst-shaped windows (96 rows × K from a
preemptive burst's fused windows) through the array kernel's row
slicing at several caps, with the ``tracemalloc`` peak of one call,
so ``ARRAY_KERNEL_MAX_ELEMENTS`` can be re-derived the same way; a
cap of 0 means one unsliced call.
"""

from __future__ import annotations

import argparse
import copy
import random
import time
import tracemalloc

from repro.client.buffer import ClientBuffer
from repro.serving import batchstate
from repro.serving.batchstate import (
    ARRAY_KERNEL_MAX_ELEMENTS,
    REFERENCE_MAX_ELEMENTS,
    _array_kernel,
    _array_kernel_sliced,
)

ROWS = (1, 2, 4, 8, 16, 32, 64, 96)
KS = (2, 4, 8, 16, 32, 64, 128)
# Burst-shaped windows: a preemptive burst decodes about 96 rows, and
# its longest fused windows run hundreds of iterations.
BURST_ROWS = 96
BURST_KS = (156, 576, 698)
CAPS = (0, 4096, 8192, 16384)
# One decode iteration.  Not 0.03: its multiples meet the read
# intervals' (0.3 = 3 × 0.1), and the array kernel hands such near-tie
# rows to the reference path, which the timing would then leave out.
STEP_S = 0.0301


def make_buffers(n_rows: int, rng: random.Random) -> list:
    buffers = []
    for _ in range(n_rows):
        buffer = ClientBuffer(rate=rng.choice((5.0, 10.0, 20.0, 40.0)),
                              record_trace=False)
        # Warm up until the segment queue is empty (the array kernel's
        # entry condition), ending just before the timed window at t = 1.0.
        warm = [1.0 - STEP_S * i for i in range(rng.randint(1, 20), 0, -1)]
        buffer.deliver_many(warm)
        buffer.consumed_count(warm[-1])
        while buffer._segments:
            buffer.consumed_count(buffer._segments[0][1])
        buffers.append(buffer)
    return buffers


def best_us(kernel, buffers, times, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        rows, segments = kernel(buffers, times)
        list(rows), list(segments)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def reference_us(buffers, times, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        fresh = copy.deepcopy(buffers)
        t0 = time.perf_counter()
        for buffer in fresh:
            buffer.deliver_many(times)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def peak_mib(kernel, buffers, times) -> float:
    tracemalloc.start()
    rows, segments = kernel(buffers, times)
    list(rows), list(segments)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def burst_table(rng: random.Random, repeat: int) -> None:
    print(f"Array kernel row slicing, {BURST_ROWS} rows "
          f"(ARRAY_KERNEL_MAX_ELEMENTS = {ARRAY_KERNEL_MAX_ELEMENTS}; "
          "cap 0 = unsliced)")
    print(f"{'K':>5} {'cap':>6} {'slice rows':>10} {'ms':>8} {'peak MiB':>9}")
    buffers = make_buffers(BURST_ROWS, rng)
    try:
        for k in BURST_KS:
            times = [1.0 + STEP_S * (i + 1) for i in range(k)]
            for cap in CAPS:
                batchstate.ARRAY_KERNEL_MAX_ELEMENTS = cap or BURST_ROWS * k
                step = max(1, batchstate.ARRAY_KERNEL_MAX_ELEMENTS // k)
                ms = best_us(_array_kernel_sliced, buffers, times, repeat) / 1e3
                peak = peak_mib(_array_kernel_sliced, buffers, times)
                print(f"{k:>5} {cap:>6} {min(step, BURST_ROWS):>10} "
                      f"{ms:>8.2f} {peak:>9.2f}")
    finally:
        batchstate.ARRAY_KERNEL_MAX_ELEMENTS = ARRAY_KERNEL_MAX_ELEMENTS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=200,
                        help="calls per cell and kernel; the best is kept")
    args = parser.parse_args()
    rng = random.Random(0)
    print(f"REFERENCE_MAX_ELEMENTS = {REFERENCE_MAX_ELEMENTS}")
    print(f"{'rows':>5} {'K':>4} {'elements':>8} {'ref µs':>9} "
          f"{'array µs':>9}  faster")
    array_wins = []
    for n_rows in ROWS:
        buffers = make_buffers(n_rows, rng)
        for k in KS:
            times = [1.0 + STEP_S * (i + 1) for i in range(k)]
            reference = reference_us(buffers, times, args.repeat)
            array = best_us(_array_kernel, buffers, times, args.repeat)
            if array <= reference:
                array_wins.append(n_rows * k)
            faster = "reference" if reference < array else "array"
            print(f"{n_rows:>5} {k:>4} {n_rows * k:>8} {reference:>9.1f} "
                  f"{array:>9.1f}  {faster}")
    cells = sorted({n_rows * k for n_rows in ROWS for k in KS})
    below = [n for n in cells if not array_wins or n < min(array_wins)]
    print(f"reference path faster in every cell up to "
          f"{below[-1] if below else 0} elements")
    burst_table(rng, args.repeat)


if __name__ == "__main__":
    main()
