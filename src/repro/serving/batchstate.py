"""Vectorised batch plane: struct-of-arrays decode-window delivery.

PR 4's macro-step fusion collapsed per-iteration *events*; the hot
path that remained is per-*request* Python work inside each fused
window — ``ClientBuffer.deliver_many`` walks its K timestamps
token-by-token for every batch member.  This module gathers the
active batch's buffer state into struct-of-arrays numpy form once per
window, advances every request with array ops, and scatters the
results back to the per-request objects at the window boundary.

The maths: with a shared strictly-increasing timestamp vector ``t``
(one entry per fused iteration) and per-row pacing interval ``iv``,
the consumption recurrence ``c_i = max(c_{i-1} + iv, t_i)`` is solved
for all rows at once through the classic transform ``d_i = c_i -
iv*i``::

    d_i = max(d_{i-1}, t_i - iv*i)      (a running maximum)
    c_i = d_i + iv*i,   re-based to exactly t_i at stalls

The first window column uses the untransformed scalar operations
(``lc + iv`` and its comparison), so single-iteration windows — the
vectorised *unfused* decode path — reproduce the scalar floats
exactly.  Deeper columns replace K repeated additions with one
multiply; together with the closed-form cursor advance below this is
the rel-1e-9 half of the parity contract, checked against the frozen
scalar reference in ``tests/scalar_decode_reference.json``.

Consumption counting is closed-form instead of cursor replay: tokens
delivered before the window sit on one arithmetic chain (the fast
path requires the segment deque to be empty), so the number consumed
by ``t_j`` is ``clip(floor((t_j - nxt0)/civ) + 1, 0, backlog)``;
within-window consumptions are counted by comparing the ``c`` matrix
against the thresholds.  Occupancy-at-generation, the stall
accumulator, the occupancy histogram (via one ``np.unique`` over
row-tagged keys), and the cursor/segment writeback all follow from
those counts.

Scatter converts every array through ``.tolist()`` first — per-row
reads then cost plain list indexing, and no ``np.float64`` leaks into
buffer state (the JSONL exports and fingerprint tests require native
floats).

Rows the kernel cannot represent fall back to the scalar
``RequestTracker.deliver_tokens`` path per request: pending segment
anchors (a stall the cursor has not reached), an empty buffer (no
``_last_consume`` yet), or per-token trace recording.
"""

from __future__ import annotations

import numpy as np

__all__ = ["deliver_batch"]


def deliver_batch(tracker, requests, times) -> None:
    """Deliver one token per instant in ``times`` to every request.

    Equivalent to ``tracker.deliver_tokens(r.req_id, times)`` for each
    request in order (same request bookkeeping, same buffer state
    machine), with the per-token buffer arithmetic batched across
    requests.  ``times`` must be strictly increasing; otherwise every
    row is routed through the scalar path, which raises exactly as
    ``ClientBuffer.deliver`` would.
    """
    k = len(times)
    if k == 0 or not requests:
        return
    entries = tracker.entries_by_id
    deliver_scalar = tracker.deliver_tokens

    prev = times[0]
    for instant in times[1:]:
        if instant <= prev:
            for request in requests:
                deliver_scalar(request.req_id, times)
            return
        prev = instant

    t_first = times[0]
    fast_rows = []
    for request in requests:
        entry = entries.get(request.req_id)
        buffer = entry.buffer if entry is not None else None
        if (
            buffer is None
            or buffer._segments
            or buffer._trace
            or buffer._last_consume is None
            or t_first < buffer._last_gen
        ):
            deliver_scalar(request.req_id, times)
        else:
            fast_rows.append((request, buffer))
    if not fast_rows:
        return

    # --- request bookkeeping (mirrors RequestTracker.deliver_tokens) --
    for request, _ in fast_rows:
        if request.generated + k > request.output_len:
            raise RuntimeError(
                f"request {request.req_id} would exceed its "
                f"{request.output_len} tokens"
            )
        if request.ttft is None:
            request.ttft = t_first - request.arrival_time
            request.first_token_time = t_first
        request.generated += k
        request.token_times.extend(times)

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
            for _, buf in fast_rows
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

    # --- consumption times -------------------------------------------
    # Column 0 runs the untransformed scalar float ops (exact); deeper
    # columns use the running-max transform (drift <= a few ulp,
    # covered by the rel-1e-9 parity gate).
    ideal0 = lc + iv
    stall0 = t_first > ideal0
    c_first = np.where(stall0, t_first, ideal0)
    stall_amt0 = np.where(stall0, t_first - ideal0, 0.0)
    if k > 1:
        token_no = np.arange(2.0, k + 1.0)
        a = t[1:][None, :] - iv[:, None] * token_no[None, :]
        d = np.maximum.accumulate(
            np.concatenate([(c_first - iv)[:, None], a], axis=1), axis=1
        )
        stall_rest = a > d[:, :-1]
        c_rest = np.where(
            stall_rest, t[1:][None, :], d[:, 1:] + iv[:, None] * token_no[None, :]
        )
        c = np.concatenate([c_first[:, None], c_rest], axis=1)
        fresh = np.concatenate([stall0[:, None], stall_rest], axis=1)
        stall_add = stall_amt0 + ((a - d[:, :-1]) * stall_rest).sum(axis=1)
    else:
        c = c_first[:, None]
        fresh = stall0[:, None].copy()
        stall_add = stall_amt0

    # --- consumption counts / occupancy ------------------------------
    # Backlog tokens live on one arithmetic chain from the cursor;
    # count those consumed by each threshold in closed form.
    civ_safe = np.where(civ > 0.0, civ, 1.0)
    backlog_done = np.floor((t[None, :] - nxt0[:, None]) / civ_safe[:, None])
    backlog_done = backlog_done.astype(np.int64) + 1
    np.clip(backlog_done, 0, n_back[:, None], out=backlog_done)
    # Window tokens: each row's c is strictly increasing (c_i >=
    # c_{i-1} + iv), so counting entries <= each threshold is binary
    # search, done for all rows in two flat calls: pos[b, m] is the
    # first threshold index with t >= c[b, m] (token m counts toward
    # thresholds j >= pos), and offsetting each row by (k + 1) * b
    # keeps both flattened integer arrays sorted — one searchsorted
    # then counts every (row, threshold) pair at once, exactly.
    n_rows = len(fast_rows)
    pos = np.searchsorted(t, c.ravel(), side="left").reshape(n_rows, k)
    row_off = (k + 1) * np.arange(n_rows, dtype=np.int64)[:, None]
    window_done = np.searchsorted(
        (pos + row_off).ravel(),
        (np.arange(k, dtype=np.int64)[None, :] + row_off).ravel(),
        side="right",
    ).reshape(n_rows, k)
    window_done -= k * np.arange(n_rows, dtype=np.int64)[:, None]
    consumed = con0[:, None] + backlog_done + window_done
    token_idx = np.arange(1, k + 1, dtype=np.int64)
    occ = (d0[:, None] + token_idx[None, :]) - consumed

    # A token finding the cursor parked at the stream end re-points it
    # directly (no segment record): first column iff there was no
    # cursor, later columns iff everything delivered was consumed.
    parked = np.empty(occ.shape, dtype=bool)
    parked[:, 0] = n_back == 0
    if k > 1:
        parked[:, 1:] = occ[:, :-1] == 0
    # Fresh anchors: every stall; plus column 0 on a rate change since
    # the tail segment (afterwards the tail interval equals iv, so
    # within the window fresh == stall).
    fresh[:, 0] |= tail != iv

    # --- cursor writeback --------------------------------------------
    consumed_f = consumed[:, -1]
    all_done = consumed_f == d0 + k
    in_window = ~all_done & (consumed_f >= d0)
    col = np.clip(consumed_f - d0, 0, k - 1)
    cursor_c = np.take_along_axis(c, col[:, None], axis=1)[:, 0]
    # Cursor still in the backlog: the chain value in closed form.
    cursor_backlog = nxt0 + civ * (consumed_f - con0)

    # Fresh anchors the cursor has not consumed past become segment
    # records, exactly the ones the scalar state machine would retain.
    index = d0[:, None] + np.arange(0, k, dtype=np.int64)[None, :]
    survive = fresh & ~parked & (index > consumed_f[:, None])

    # Occupancy histogram: one np.unique over row-tagged keys; the
    # per-row slices go onto each buffer's pending list and merge into
    # its dict lazily at first read (ClientBuffer._flush_occ_pending).
    occ_span = int(occ.max()) + 1
    row_ids = np.arange(n_rows, dtype=np.int64)
    keys = occ + occ_span * row_ids[:, None]
    uniq, counts = np.unique(keys, return_counts=True)
    hist_vals = uniq % occ_span
    row_bounds = np.searchsorted(uniq, occ_span * (row_ids + 1)).tolist()

    # --- scatter ------------------------------------------------------
    t_last = times[-1]
    c_last = c[:, -1].tolist()
    stall_add_l = stall_add.tolist()
    occ_max_l = occ.max(axis=1).tolist()
    consumed_l = consumed_f.tolist()
    all_done_l = all_done.tolist()
    in_window_l = in_window.tolist()
    cursor_c_l = cursor_c.tolist()
    cursor_backlog_l = cursor_backlog.tolist()
    start = 0
    for b, (request, buffer) in enumerate(fast_rows):
        buffer._delivered += k
        buffer._last_gen = t_last
        buffer._last_consume = c_last[b]
        # After any delivery the newest segment's interval is the
        # current one (fresh anchors set it; non-fresh requires it).
        buffer._tail_interval = buffer.interval
        stall = stall_add_l[b]
        if stall != 0.0:
            buffer._stall_time += stall
        if occ_max_l[b] > buffer._occ_max:
            buffer._occ_max = occ_max_l[b]
        buffer._consumed = consumed_l[b]
        if all_done_l[b]:
            buffer._next_consume = None
            buffer._cursor_interval = buffer.interval
        elif in_window_l[b]:
            buffer._next_consume = cursor_c_l[b]
            buffer._cursor_interval = buffer.interval
        else:
            buffer._next_consume = cursor_backlog_l[b]
        stop = row_bounds[b]
        buffer._occ_pending.append((hist_vals[start:stop], counts[start:stop]))
        start = stop

    if survive.any():
        rows_cols = np.argwhere(survive)
        seg_c = c[rows_cols[:, 0], rows_cols[:, 1]].tolist()
        d0_l = d0.tolist()
        for (b, j), consume in zip(rows_cols.tolist(), seg_c):
            buffer = fast_rows[b][1]
            buffer._segments.append((d0_l[b] + j, consume, buffer.interval))

    tracker.invalidate_occupancy_all()
