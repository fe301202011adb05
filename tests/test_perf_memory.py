"""Memory gates for a preemptive burst and a prefix-sharing run.

A burst run's memory should grow with its requests, not with the
tokens they generate.  The TABLE1 h200/(a) cell (400 requests, about
825k tokens) executes under ``tracemalloc``:

* the traced peak stays below a bound midway between a run that kept
  every token's timestamp on its request (14.0 MiB) and this one
  (7.3 MiB), so a per-token list put back on ``Request`` fails;
* the peak sits close to what the finished run still holds (0.1 MiB
  apart), because the array kernel's B × K scratch arrays are bounded
  by ``ARRAY_KERNEL_MAX_ELEMENTS``; one unsliced call on the run's
  biggest window (96 rows × 698 iterations) lifts the peak 3.7 MiB
  above it;
* no request holds a container of any kind.

A run's telemetry (the utilisation timeline, each buffer's occupancy
counts and segment queue) is kept in typed columns, not a Python
object per sample or bucket.  The ``rag-replay`` cell at scale 12
(576 requests, 16,216 timeline samples) executes under
``tracemalloc`` after an untraced warm-up run, so lazy imports and
caches stay out of the trace:

* the traced peak stays below a bound midway between boxed telemetry
  ((t, queued, running) tuples, count lists and a deque per buffer:
  3.20 MiB) and typed columns (1.50 MiB); tuple samples alone put
  back read 2.68 MiB;
* every buffer's occupancy counts are an ``array``.

Measured with Python 3.11 and numpy 2.4; tracemalloc counts Python and
numpy allocations, not the interpreter's own RSS.
"""

import gc
import tracemalloc
from array import array
from collections import deque

import numpy as np
import pytest

from repro.scenarios import build_run, get_scenario

pytestmark = pytest.mark.slow  # one full-size cell, about 15 s traced

MIB = 2**20
# Midway between 14.0 MiB (per-token timestamps on every request) and
# 7.3 MiB (none).
PEAK_BOUND_MIB = 10.65
# Scratch headroom over the finished run's heap: 0.1 MiB measured,
# 3.7 MiB with the biggest window in one array-kernel call.
SCRATCH_BOUND_MIB = 2.0
# Midway between 3.20 MiB (boxed telemetry) and 1.50 MiB (typed
# columns) on rag-replay at scale 12.
PREFIX_PEAK_BOUND_MIB = 2.35


def test_burst_memory_grows_with_requests_not_tokens():
    run = build_run(get_scenario("table1-h200-a", scale=1.0, seed=0))
    gc.collect()
    tracemalloc.start()
    try:
        report = run.execute()
        final, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_finished == 400
    assert peak / MIB < PEAK_BOUND_MIB
    assert (peak - final) / MIB < SCRATCH_BOUND_MIB
    containers = (list, tuple, dict, set, deque, np.ndarray)
    for entry in run.target.tracker.entries():
        held = [name for name, value in vars(entry.request).items()
                if isinstance(value, containers)]
        assert not held, (entry.request.req_id, held)


def test_prefix_run_keeps_telemetry_in_typed_columns():
    build_run(get_scenario("rag-replay", scale=1.0, seed=1)).execute()
    run = build_run(get_scenario("rag-replay", scale=12.0, seed=0))
    gc.collect()
    tracemalloc.start()
    try:
        report = run.execute()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_finished == 576
    assert len(report.timeline) == 16_216
    assert peak / MIB < PREFIX_PEAK_BOUND_MIB
    for entry in run.target.tracker.entries():
        assert isinstance(entry.buffer.occupancy_counts, array)
