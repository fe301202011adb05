"""Batch plane: one decode window's token delivery for a batch.

:func:`deliver_batch` is the only way a generated token reaches a
request and its client buffer: every decode window, fused (K >= 2) or
not (K = 1), and every prefill's first token go through it.  Nothing
here is kept per token: a request counts its tokens, and a buffer
keeps closed-form state plus its occupancy counts (and per-token
traces only when it records them).

Two paths, chosen by the window's size:

- A small window, one token or at most ``REFERENCE_MAX_ELEMENTS``
  rows × K, runs the reference recurrence itself:
  ``ClientBuffer.deliver_many`` per request, one
  ``ClientBuffer.deliver`` per token.  For so few tokens that is
  cheaper than batching them (``scripts/decode_kernel_grid.py``).
- A larger window goes to the array kernel, which advances every row
  through the window at once in numpy and writes the results back to
  the per-request objects at the window boundary.

The maths: with a shared strictly-increasing timestamp vector ``t``
(one entry per fused iteration) and per-row pacing interval ``iv``,
the consumption recurrence ``c_i = max(c_{i-1} + iv, t_i)`` is solved
through the classic transform ``d_i = c_i - iv*i``::

    d_i = max(d_{i-1}, t_i - iv*i)      (a running maximum)
    c_i = d_i + iv*i,   re-based to exactly t_i at stalls

The first window column uses the untransformed scalar operations
(``lc + iv`` and its comparison).  Deeper columns replace K repeated
additions with one multiply.

Consumption counting is closed-form instead of cursor replay: tokens
delivered before the window sit on one arithmetic chain (the kernel
requires the segment queue to be empty), so the number consumed by
``t_j`` is ``clip(floor((t_j - nxt0)/civ) + 1, 0, backlog)``;
within-window consumptions are the ``c_m <= t_j`` count.
Occupancy-at-generation, the stall accumulator, the occupancy
histogram, and the cursor/segment write-back all follow from those
counts.  The histogram is the buffer's dense typed count array
(``ClientBuffer.occupancy_counts``, an ``array('I')``): the kernel
returns each row's window as its lowest occupancy ``lo`` and an
``array('I')`` of counts over ``lo..hi``, a slice of one
``np.bincount`` copied into an array.  The write-back appends new top
buckets as one array-to-array copy and sums the buckets the buffer
already has element by element into a typed slice.  It takes no
numpy view of the buffer's array: an array that exports its buffer
raises ``BufferError`` when it grows.

The kernel costs about 50 numpy calls whatever the window's size,
so it wins on big windows (a preemptive burst's 90-row batches).  Its
scratch arrays are rows × K, so a window above
``ARRAY_KERNEL_MAX_ELEMENTS`` runs as row slices of at most that many
elements each (``_array_kernel_sliced``); every op is per row, so the
slices' concatenated results are the one call's.  It returns per-row
results as native Python values, so no ``np.float64`` leaks into
buffer state (the JSONL exports and fingerprint tests require native
floats).

Exactness: the kernel's counts (tokens, consumed counts, occupancy
counts, segment indices) equal the reference recurrence's, and its
floats agree to rel 1e-9.  Deeper columns' multiplies, the quotient
that counts the backlog and numpy's pairwise stall sum each drift a
few ulp from the recurrence's repeated additions.  The gates are the
frozen scalar reference in ``tests/scalar_decode_reference.json`` and
``tests/test_serving_vectorize.py``.

Rows the kernel cannot represent take the reference path,
``RequestTracker.deliver_tokens`` per request: pending segment
anchors (a stall the cursor has not reached), an empty buffer (no
``_last_consume`` yet), per-token trace recording, or a window with
tied timestamps.  A row whose window holds a *near-tie*, a comparison
the kernel's few ulp of drift could flip, goes there too, found by
the kernel itself before any write-back (see ``DRIFT`` below).
"""

from __future__ import annotations

from array import array
from operator import add

import numpy as np

from repro.client.buffer import OCC_COUNT_TYPECODE

__all__ = ["deliver_batch"]

# Largest window, in rows × K, that runs the reference recurrence
# (``ClientBuffer.deliver_many`` per request) instead of the array
# kernel; a one-token window always does.  On a B × K grid (B 1–96,
# K 2–128) timed on a 2-CPU x86-64 container (Python 3.11, numpy 2.4;
# best of 30, pinned to one CPU), ``deliver_many`` was faster in every
# cell up to 384 elements, the 512-element cells split, and the array
# kernel won every cell from 1024 up.  Re-time with
# ``scripts/decode_kernel_grid.py``.
REFERENCE_MAX_ELEMENTS = 384

# Largest slice, in rows × K, that one array-kernel call takes.  The
# kernel's scratch arrays are B × K, so a burst's biggest window (96
# rows × 698 iterations) would peak near 9 MiB; bigger windows run as
# row slices of ``ARRAY_KERNEL_MAX_ELEMENTS // K`` rows (at least one).
# Every kernel op is per row, so slicing changes no result.  On the
# same container, 96 × 698 took 5.6–6.2 ms and peaked at 9.3 MiB
# traced unsliced, 7.2–7.9 ms and 1.3 MiB at this cap, 9.5 ms and
# 2.4 MiB at 16384 (best of 60, pinned to one CPU); 11 of a burst's
# 301 array-kernel windows exceed it.  Re-time with
# ``scripts/decode_kernel_grid.py``.
ARRAY_KERNEL_MAX_ELEMENTS = 8192


def deliver_batch(tracker, requests, times) -> None:
    """Deliver one token per instant in ``times`` to every request.

    The one way a generated token reaches a request and its client
    buffer.  Equivalent to ``tracker.deliver_tokens(r.req_id, times)``
    for each request in order (same request bookkeeping, same buffer
    state machine).  Every request is checked before any state moves:
    an overflowing request, an untracked one or an out-of-order window
    raises with the whole batch untouched.

    A small window (module docstring) runs ``ClientBuffer.deliver_many``
    once per request; a larger one batches the buffer arithmetic
    across requests.  Tied timestamps are legal but send every row of
    a large window to the reference path; a row with a near-tie
    (module docstring) takes it alone.
    """
    k = len(times)
    if k == 0 or not requests:
        return
    t_first = times[0]
    entries = tracker.entries_by_id
    try:
        buffers = [entries[request.req_id].buffer for request in requests]
    except KeyError as error:
        raise KeyError(f"request {error.args[0]} is not tracked") from None
    for request, buffer in zip(requests, buffers):
        if request.generated + k > request.output_len:
            raise RuntimeError(
                f"request {request.req_id} would exceed its "
                f"{request.output_len} tokens"
            )
        last_gen = buffer._last_gen
        if last_gen is not None and t_first < last_gen:
            raise ValueError("deliveries must have non-decreasing timestamps")
    strict = True
    prev = t_first
    for instant in times[1:]:
        if instant < prev:
            raise ValueError("deliveries must have non-decreasing timestamps")
        if instant == prev:
            strict = False
        prev = instant

    if k == 1 or len(requests) * k <= REFERENCE_MAX_ELEMENTS:
        # RequestTracker.deliver_tokens without its checks (done above).
        for request, buffer in zip(requests, buffers):
            if request.ttft is None:
                request.ttft = t_first - request.arrival_time
            request.generated += k
            buffer.deliver_many(times)
        return

    # --- classification ----------------------------------------------
    scalar_ids = []
    fast_requests = []
    fast_buffers = []
    for request, buffer in zip(requests, buffers):
        if (
            not strict
            or buffer._segments
            or buffer._trace
            or buffer._last_consume is None
        ):
            scalar_ids.append(request.req_id)
        else:
            fast_requests.append(request)
            fast_buffers.append(buffer)
    buffers = fast_buffers
    deliver_scalar = tracker.deliver_tokens
    for req_id in scalar_ids:
        deliver_scalar(req_id, times)
    if not buffers:
        return

    rows, segments = _array_kernel_sliced(buffers, times)

    # --- write-back ---------------------------------------------------
    t_last = times[-1]
    for request, buffer, row in zip(fast_requests, buffers, rows):
        if row is None:
            # A near-tie the closed-form counts cannot settle.
            deliver_scalar(request.req_id, times)
            continue
        # Request bookkeeping (mirrors RequestTracker.deliver_tokens).
        if request.ttft is None:
            request.ttft = t_first - request.arrival_time
        request.generated += k
        c_last, stall, consumed, nxt, rebased, lo, window = row
        buffer._delivered += k
        buffer._last_gen = t_last
        buffer._last_consume = c_last
        # After any delivery the newest segment's interval is the
        # current one (fresh anchors set it; non-fresh requires it).
        buffer._tail_interval = buffer.interval
        if stall != 0.0:
            buffer._stall_time += stall
        buffer._consumed = consumed
        buffer._next_consume = nxt
        if t_last > buffer._queried:
            buffer._queried = t_last
        if rebased:
            buffer._cursor_interval = buffer.interval
        # Add the window's counts in place: buckets the buffer has are
        # summed, new top buckets extend the array (they are
        # contiguous, see ClientBuffer.occupancy_counts).
        counts = buffer._occ_counts
        n = len(counts)
        if lo == n:
            counts += window
        else:
            top = lo + len(window)
            if top <= n:
                counts[lo:top] = array(OCC_COUNT_TYPECODE,
                                       map(add, counts[lo:top], window))
            else:
                counts[lo:] = array(OCC_COUNT_TYPECODE,
                                    map(add, counts[lo:], window))
                counts += window[n - lo:]
    # Fresh anchors the cursor has not consumed past become segment
    # records, exactly the ones the scalar state machine would retain.
    for b, index, consume in segments:
        buffer = buffers[b]
        buffer._segments.append((index, consume, buffer.interval))


# The kernel returns ``(rows, segments)``.  ``rows`` holds one tuple
# per buffer: (last consumption time, stall to add, consumed count,
# next cursor time or None, whether the cursor moved into the window
# and so takes the current interval, and the window's occupancy
# histogram as ``lo`` and ``window``, an ``array('I')`` of which
# window[i] is the tokens generated at occupancy lo + i), or None for
# a row with a near-tie.
# ``segments`` lists (row, token index, consumption time) for every
# surviving fresh anchor of the other rows.
#
# Near-ties.  The kernel's consumption times drift from the reference
# recurrence's addition chains by a few ulp per token: deeper window
# columns are ``d + iv*(j+1)`` rather than repeated additions, and
# backlog counts are a quotient rather than the cursor's walk.  A
# comparison against a drifted instant can therefore come out the
# other way when the two sides nearly coincide.  Each row's drift is bounded by ``tol =
# (n_back + k + 8) * DRIFT * span``, where ``span`` bounds every time
# the row's arithmetic touches; a row is a near-tie, and goes to the
# reference path, when one of these falls within that bound:
#
# - a stall the kernel takes, ``a_j - d`` (a stall it does not take
#   leaves ``c_j`` drifted next to ``t_j``, caught below);
# - a drifted window instant ``c_m`` (not column 0, which runs the
#   scalar's own float ops, nor a stall anchor, exactly ``t_m``)
#   consumed in the window, against the generation instants either
#   side of it, and the first one left unconsumed, against ``t_last``
#   (anchors are always consumed);
# - a generation instant against the backlog chain instants either
#   side of it, ``nxt0 + q*civ``, on the quotient's fractional part.
#
# ``DRIFT`` is 2**-52: twice the unit roundoff, a safety factor of two
# over one rounding per operation.
DRIFT = 2.0 ** -52


def _array_kernel_sliced(buffers, times):
    """:func:`_array_kernel` over row slices of bounded size.

    Each slice's segment records name rows of that slice, so they are
    re-numbered by the slice's first row.
    """
    step = max(1, ARRAY_KERNEL_MAX_ELEMENTS // len(times))
    rows = []
    segments = []
    for start in range(0, len(buffers), step):
        part_rows, part_segments = _array_kernel(buffers[start:start + step], times)
        rows.extend(part_rows)
        segments.extend(
            (start + b, index, consume) for b, index, consume in part_segments
        )
    return rows, segments


def _array_kernel(buffers, times):
    """Advance all rows at once in numpy: cheap for big windows."""
    k = len(times)
    n_rows = len(buffers)
    # --- gather ------------------------------------------------------
    # One pass per row building a (B, 7) matrix; the integer columns
    # (delivered/consumed counts) round-trip through float64 exactly
    # (they are token counts, far below 2**53).
    t = np.asarray(times, dtype=np.float64)
    state = np.array(
        [
            (
                buf.interval,
                buf._last_consume,
                buf._tail_interval,
                buf._delivered,
                buf._consumed,
                # Sentinel 0.0 for a parked cursor: those rows have an
                # empty backlog (n_back == 0), which zeroes every term
                # the sentinel feeds.
                nxt if (nxt := buf._next_consume) is not None else 0.0,
                buf._cursor_interval,
            )
            for buf in buffers
        ]
    )
    iv = state[:, 0]
    lc = state[:, 1]
    tail = state[:, 2]
    d0 = state[:, 3].astype(np.int64)
    con0 = state[:, 4].astype(np.int64)
    nxt0 = state[:, 5]
    civ = state[:, 6]
    n_back = d0 - con0  # rows with no cursor have an empty backlog
    tol = (n_back + (k + 8)) * DRIFT * (np.maximum(lc, times[-1]) + iv * k)

    # --- consumption times -------------------------------------------
    # Column 0 runs the untransformed scalar float ops (exact); deeper
    # columns use the running-max transform (drift <= a few ulp,
    # covered by the rel-1e-9 parity gate).
    t_first = times[0]
    ideal0 = lc + iv
    stall0 = t_first > ideal0
    c_first = np.where(stall0, t_first, ideal0)
    stall_amt0 = np.where(stall0, t_first - ideal0, 0.0)
    token_no = np.arange(2.0, k + 1.0)
    a = t[1:][None, :] - iv[:, None] * token_no[None, :]
    d = np.maximum.accumulate(
        np.concatenate([(c_first - iv)[:, None], a], axis=1), axis=1
    )
    gap = a - d[:, :-1]
    stall_rest = a > d[:, :-1]
    tie = (stall_rest & (gap <= tol[:, None])).any(axis=1)
    c_rest = np.where(
        stall_rest, t[1:][None, :], d[:, 1:] + iv[:, None] * token_no[None, :]
    )
    c = np.concatenate([c_first[:, None], c_rest], axis=1)
    fresh = np.concatenate([stall0[:, None], stall_rest], axis=1)
    stall_add = stall_amt0 + (gap * stall_rest).sum(axis=1)

    # --- consumption counts / occupancy ------------------------------
    # Backlog tokens live on one arithmetic chain from the cursor;
    # count those consumed by each threshold in closed form.
    civ_safe = np.where(civ > 0.0, civ, 1.0)
    quotient = (t[None, :] - nxt0[:, None]) / civ_safe[:, None]
    q = np.floor(quotient)
    backlog_done = q.astype(np.int64) + 1
    np.clip(backlog_done, 0, n_back[:, None], out=backlog_done)
    # Near-ties with the chain instants q and q + 1 either side of t.
    tol_q = (tol / civ_safe)[:, None]
    frac = quotient - q
    back = n_back[:, None]
    tie |= (
        (frac <= tol_q) & (q >= 0.0) & (q < back)
        | (frac >= 1.0 - tol_q) & (q >= -1.0) & (q + 1.0 < back)
    ).any(axis=1)
    # Window tokens: each row's c is strictly increasing (c_i >=
    # c_{i-1} + iv), so counting entries <= each threshold is binary
    # search, done for all rows in two flat calls: pos[b, m] is the
    # first threshold index with t >= c[b, m] (token m counts toward
    # thresholds j >= pos), and offsetting each row by (k + 1) * b
    # keeps both flattened integer arrays sorted — one searchsorted
    # then counts every (row, threshold) pair at once, exactly.
    pos = np.searchsorted(t, c.ravel(), side="left").reshape(n_rows, k)
    row_off = (k + 1) * np.arange(n_rows, dtype=np.int64)[:, None]
    window_done = np.searchsorted(
        (pos + row_off).ravel(),
        (np.arange(k, dtype=np.int64)[None, :] + row_off).ravel(),
        side="right",
    ).reshape(n_rows, k)
    window_done -= k * np.arange(n_rows, dtype=np.int64)[:, None]
    # Near-ties with drifted window instants: only rows that consume
    # one in the window, or leave one first in line at t_last.
    last_done = window_done[:, -1]
    drifting = np.flatnonzero(last_done)
    if drifting.size:
        cw = c[drifting]
        at = pos[drifting]
        tol_w = tol[drifting][:, None]
        first = last_done[drifting][:, None]
        columns = np.arange(k)
        near = (
            (columns >= 1) & (columns < first) & ~fresh[drifting]
            & ((t[np.minimum(at, k - 1)] - cw <= tol_w)
               | (at > 0) & (cw - t[np.maximum(at - 1, 0)] <= tol_w))
            | (columns == first) & (cw - times[-1] <= tol_w)
        )
        tie[drifting] |= near.any(axis=1)
    consumed = con0[:, None] + backlog_done + window_done
    token_idx = np.arange(1, k + 1, dtype=np.int64)
    occ = (d0[:, None] + token_idx[None, :]) - consumed

    # A token finding the cursor parked at the stream end re-points it
    # directly (no segment record): first column iff there was no
    # cursor, later columns iff everything delivered was consumed.
    parked = np.empty(occ.shape, dtype=bool)
    parked[:, 0] = n_back == 0
    parked[:, 1:] = occ[:, :-1] == 0
    # Fresh anchors: every stall; plus column 0 on a rate change since
    # the tail segment (afterwards the tail interval equals iv, so
    # within the window fresh == stall).
    fresh[:, 0] |= tail != iv

    # --- cursor ------------------------------------------------------
    consumed_f = consumed[:, -1]
    all_done = consumed_f == d0 + k
    rebased = consumed_f >= d0
    col = np.clip(consumed_f - d0, 0, k - 1)
    cursor_c = np.take_along_axis(c, col[:, None], axis=1)[:, 0]
    # Cursor still in the backlog: the chain value in closed form.
    cursor_backlog = nxt0 + civ * (consumed_f - con0)
    nxt = np.where(rebased, cursor_c, cursor_backlog).tolist()
    nxt = [None if done else v for done, v in zip(all_done.tolist(), nxt)]

    index = d0[:, None] + np.arange(0, k, dtype=np.int64)[None, :]
    survive = fresh & ~parked & (index > consumed_f[:, None]) & ~tie[:, None]
    rows_cols = np.argwhere(survive)
    segments = zip(
        rows_cols[:, 0].tolist(),
        index[survive].tolist(),
        c[survive].tolist(),
    )

    # Occupancy histogram: each row's window counts over lo..hi, laid
    # end to end (row b's slot for occupancy o is ends[b] - 1 - (hi[b]
    # - o)) and tallied by one np.bincount.
    lo = occ.min(axis=1)
    hi = occ.max(axis=1)
    ends = np.cumsum(hi + 1 - lo)
    flat = array(OCC_COUNT_TYPECODE)
    flat.frombytes(
        np.bincount((occ + (ends - 1 - hi)[:, None]).ravel())
        .astype(OCC_COUNT_TYPECODE).tobytes()
    )
    ends = ends.tolist()
    windows = [flat[a:b] for a, b in zip([0] + ends, ends)]
    rows = zip(
        c[:, -1].tolist(),
        stall_add.tolist(),
        consumed_f.tolist(),
        nxt,
        rebased.tolist(),
        lo.tolist(),
        windows,
    )
    if tie.any():
        rows = [None if near else row for near, row in zip(tie.tolist(), rows)]
    return rows, segments
