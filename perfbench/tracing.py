"""Outside-in span tracing of the simulator's layers.

The traced run wraps public functions of each layer module from the
benchmark's side (class attributes and module globals are swapped for
timing wrappers, and restored afterwards), so no code under ``src/``
changes and no program switch is flipped: the program's own
``TraceRecorder`` is never attached, because attaching it turns off
decode fusion and vectorisation and would time a different path.

Each wrapper records one span: its layer, function, start and
duration.  A span's *self time* is its duration minus the time its
child spans cover, so nested layers (the KV manager called from a
decode stage) are never counted twice.  Spans of the first traced
execute can be written as Chrome trace-event JSON for Perfetto.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Spans kept for the Chrome trace export; later spans are counted only.
SPAN_CAP = 400_000

# Every per-layer metric and its unit, in report order.  ``*_s`` are
# self times of one traced execute; counts come from wrapper tallies or
# the run's report.  ``trace.overhead`` is traced over untraced run_s.
LAYER_UNITS = {
    "sim.events": "count", "sim.self_s": "s",
    "workload.requests": "count", "workload.gen_s": "s",
    "stages.compose_calls": "count", "stages.compose_s": "s",
    "stages.decode_batch_mean": "rows", "stages.decode_s": "s",
    "stages.pressure_s": "s", "stages.victims": "count",
    "executor.s": "s", "executor.fused_share": "ratio",
    "executor.window_mean": "iterations",
    "batchstate.calls": "count", "batchstate.rows": "rows", "batchstate.s": "s",
    "buffer.scalar_calls": "count", "buffer.scalar_share": "ratio", "buffer.s": "s",
    "tracker.query_rows": "rows", "tracker.s": "s", "tracker.retire_s": "s",
    "scheduler.ticks": "count", "scheduler.boundaries": "count", "scheduler.s": "s",
    "scheduler.preemptions": "count", "scheduler.fallback_ticks": "count",
    "kv.s": "s", "kv.advance_calls": "count", "kv.drain_calls": "count",
    "kv.evictions": "count", "kv.loads": "count", "kv.write_gib": "GiB",
    "kv.load_gib": "GiB", "kv.blocks_allocated": "blocks", "kv.peak_blocks": "blocks",
    "blocktable.s": "s", "blocktable.hit_rate": "ratio",
    "blocktable.saved_share": "ratio", "blocktable.cow_forks": "count",
    "blocktable.promotes": "count", "blocktable.reclaimed": "blocks",
    "router.calls": "count", "router.s": "s",
    "shard.rounds": "count", "shard.messages": "count",
    "shard.mirror_resolved": "count", "shard.spec_misses": "count",
    "shard.wait_s": "s", "shard.round_trip_us": "us", "shard.coord_s": "s",
    "pool.warm_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    """Span stack, per-function self time, call counts and extras."""

    def __init__(self) -> None:
        self.stack: list = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, float] = defaultdict(float)
        self.spans: Optional[list] = None
        self._patches: List[Tuple[object, str, object, bool]] = []

    # --- recording ---------------------------------------------------------
    def reset(self, keep_spans: bool) -> None:
        """Zero the tallies before an execute (spans only if asked)."""
        self.stack.clear()
        self.self_s.clear()
        self.calls.clear()
        self.extra.clear()
        self.spans = [] if keep_spans else None

    def _wrap(self, key: str, fn: Callable,
              extra: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        extras = self.extra
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start, child = frame
                dur = end - start
                self_s[key] += dur - child
                calls[key] += 1
                if stack:
                    stack[-1][1] += dur
                spans = tracer.spans
                if spans is not None and len(spans) < SPAN_CAP:
                    spans.append((key, start, dur))
            if extra is not None:
                extras[key] += extra(args, result)
            return result

        return wrapper

    # --- patching ------------------------------------------------------------
    def patch(self, owner, attr: str, key: str,
              extra: Optional[Callable] = None) -> None:
        """Swap ``owner.attr`` for a timing wrapper named ``key``."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, self._wrap(key, original, extra))
        self._patches.append((owner, attr, original, own))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # --- queries -----------------------------------------------------------------
    def total(self, prefix: str) -> float:
        """Self time summed over every key starting with ``prefix``."""
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def chrome_trace(self, origin: float) -> dict:
        """The kept spans as Chrome trace-event JSON (µs since ``origin``)."""
        events = []
        for key, start, dur in self.spans or ():
            layer, _, name = key.partition(":")
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _rows(position: int) -> Callable:
    return lambda args, result: len(args[position])


def _result_len(args, result) -> int:
    return len(result)


def _dropped(args, result) -> int:
    return len(args[1]) - len(result)


def _with_metrics(args, result) -> int:
    return 1 if args[2] is not None else 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.client.buffer import ClientBuffer
    from repro.core.scheduler import TokenFlowScheduler
    from repro.core.tracker import RequestTracker
    from repro.gpu.executor import LLMExecutor
    from repro.memory.blocktable import PrefixBlockTable
    from repro.memory.kv_manager import HierarchicalKVManager
    from repro.serving import routers, shard, stages
    from repro.sim.engine import SimEngine

    p = tracer.patch
    p(SimEngine, "run", "sim:run")
    p(stages.BatchComposer, "plan_prefill", "stages.compose:plan_prefill")
    p(stages.BatchComposer, "plan_decode", "stages.compose:plan_decode", _result_len)
    p(stages.MemoryPressureStage, "resolve_deficit", "stages.pressure:resolve_deficit",
      _dropped)
    for name in ("run_prefill", "complete_prefill", "run_decode",
                 "complete_decode", "complete_fused"):
        p(stages.DecodeStream, name, f"stages.decode:{name}")
    for name in ("plan_prefill", "plan_decode", "commit", "commit_fused"):
        p(LLMExecutor, name, f"executor:{name}")
    p(stages, "deliver_batch", "batchstate:deliver_batch", _rows(1))
    p(ClientBuffer, "deliver", "buffer:deliver")
    p(ClientBuffer, "deliver_many", "buffer:deliver_many", _rows(1))
    p(RequestTracker, "buffer_seconds_many", "tracker:buffer_seconds_many", _rows(1))
    p(RequestTracker, "min_buffer_seconds", "tracker:min_buffer_seconds", _rows(1))
    p(RequestTracker, "mark_finished", "tracker.retire:mark_finished")
    for name in ("on_tick", "on_iteration_boundary", "on_fused_boundaries",
                 "can_fuse_decode", "select_oom_victims"):
        p(TokenFlowScheduler, name, f"scheduler:{name}")
    for name in ("register", "allocate_for_prefill", "on_prefill_complete",
                 "on_decode_token", "decode_growth_blocks_bulk",
                 "max_fused_decode_iterations", "cpu_room_for_fused_drains",
                 "fused_decode_advance", "drain_writes", "release", "preempt",
                 "resume_load", "can_resume_load", "prepare_recompute",
                 "estimate_io_time"):
        p(HierarchicalKVManager, name, f"kv:{name}")
    for name in ("register", "reclaim", "attach", "publish", "detach", "finish"):
        extra = (lambda args, result: result) if name == "reclaim" else None
        p(PrefixBlockTable, name, f"blocktable:{name}", extra)
    for cls in set(routers.ROUTERS.values()):
        for name in ("select_from_metrics", "instance_metrics"):
            if name in vars(cls):
                extra = _with_metrics if name == "select_from_metrics" else None
                p(cls, name, f"router:{name}", extra)
    p(shard.ShardedServingCluster, "run", "shard.coord:run")
    p(shard._ProcessTransport, "gather", "shard.wait:gather")
    p(shard._InlineTransport, "gather", "shard.wait:gather")


class TracedStream:
    """Iterator wrapper timing the benchmark generator's ``next``."""

    def __init__(self, tracer: Tracer, stream) -> None:
        # The extra counts requests: it runs only when next() returns.
        self._next = tracer._wrap("workload:next", stream.__next__,
                                  lambda args, result: 1)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run, report, workload, pool_warm_s: float) -> dict:
    """Per-layer metrics of one traced execute (see README.md)."""
    cluster = workload.is_cluster
    base = report.aggregate if cluster else report
    instances = report.per_instance if cluster else [report]

    def summed(stats: str, key: str) -> float:
        return sum(getattr(r, stats).get(key, 0) for r in instances)

    calls, extra, total = tracer.calls, tracer.extra, tracer.total
    kv_peak = max((r.kv_stats.get("gpu_peak_blocks", 0) for r in instances), default=0)
    saved = summed("kv_stats", "prefix_blocks_saved")
    allocated = summed("kv_stats", "gpu_blocks_allocated")
    decode_iters = summed("executor_stats", "decode_iterations")
    fused_iters = summed("executor_stats", "fused_iterations")
    fused_windows = summed("executor_stats", "fused_windows")
    deliver_calls = calls["buffer:deliver"]
    many_calls = calls["buffer:deliver_many"]
    plan_decode_calls = calls["stages.compose:plan_decode"]
    rounds = getattr(report, "coordination_rounds", 0)
    wait_s = total("shard.wait")
    if cluster:
        events = sum(run.target.shard_events)
    else:
        events = run.target.engine.events_processed
    gib = float(1 << 30)
    if workload.stream is not None:
        requests, gen_s = extra["workload:next"], total("workload")
    else:
        requests, gen_s = workload.n_requests, workload.gen_s
    return {
        "sim.events": events,
        "sim.self_s": total("sim"),
        "workload.requests": requests,
        "workload.gen_s": gen_s,
        "stages.compose_calls": calls["stages.compose:plan_prefill"] + plan_decode_calls,
        "stages.compose_s": total("stages.compose"),
        "stages.decode_batch_mean": _ratio(extra["stages.compose:plan_decode"],
                                           plan_decode_calls),
        "stages.decode_s": total("stages.decode"),
        "stages.pressure_s": total("stages.pressure"),
        "stages.victims": extra["stages.pressure:resolve_deficit"],
        "executor.s": total("executor"),
        "executor.fused_share": _ratio(fused_iters, decode_iters),
        "executor.window_mean": _ratio(fused_iters, fused_windows),
        "batchstate.calls": calls["batchstate:deliver_batch"],
        "batchstate.rows": extra["batchstate:deliver_batch"],
        "batchstate.s": total("batchstate"),
        "buffer.scalar_calls": deliver_calls + many_calls,
        "buffer.scalar_share": _ratio(deliver_calls + extra["buffer:deliver_many"],
                                      base.total_tokens),
        "buffer.s": total("buffer"),
        "tracker.query_rows": extra["tracker:buffer_seconds_many"]
        + extra["tracker:min_buffer_seconds"],
        "tracker.s": total("tracker"),
        "tracker.retire_s": total("tracker.retire"),
        "scheduler.ticks": calls["scheduler:on_tick"],
        "scheduler.boundaries": calls["scheduler:on_iteration_boundary"],
        "scheduler.s": total("scheduler"),
        "scheduler.preemptions": summed("scheduler_stats", "preemptions"),
        "scheduler.fallback_ticks": summed("scheduler_stats", "fallback_ticks"),
        "kv.s": total("kv"),
        "kv.advance_calls": calls["kv:fused_decode_advance"],
        "kv.drain_calls": calls["kv:drain_writes"],
        "kv.evictions": summed("kv_stats", "evictions"),
        "kv.loads": summed("kv_stats", "loads"),
        "kv.write_gib": (summed("kv_stats", "write_through_bytes")
                         + summed("kv_stats", "eviction_tail_bytes")) / gib,
        "kv.load_gib": summed("kv_stats", "load_bytes") / gib,
        "kv.blocks_allocated": allocated,
        "kv.peak_blocks": kv_peak,
        "blocktable.s": total("blocktable"),
        "blocktable.hit_rate": _ratio(summed("kv_stats", "prefix_hits"),
                                      summed("kv_stats", "prefix_lookups")),
        "blocktable.saved_share": _ratio(saved, saved + allocated),
        "blocktable.cow_forks": summed("kv_stats", "cow_forks"),
        "blocktable.promotes": summed("kv_stats", "cache_promotes"),
        "blocktable.reclaimed": extra["blocktable:reclaim"],
        "router.calls": calls["router:select_from_metrics"],
        "router.s": total("router"),
        "shard.rounds": rounds,
        "shard.messages": getattr(report, "messages_sent", 0),
        "shard.mirror_resolved": max(0, extra["router:select_from_metrics"] - rounds),
        "shard.spec_misses": getattr(report, "speculation_misses", 0),
        "shard.wait_s": wait_s,
        "shard.round_trip_us": _ratio(wait_s, rounds) * 1e6,
        "shard.coord_s": total("shard.coord"),
        "pool.warm_s": pool_warm_s,
    }


def write_chrome_trace(path: str, tracer: Tracer, origin: float) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.chrome_trace(origin), fh)
