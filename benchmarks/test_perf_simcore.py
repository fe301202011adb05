"""Perf harness for the simulation core (macro + micro).

Pins the measured pre-optimisation baseline of the TABLE1 h200/(a)
400-request workload (seed commit, this container) and asserts that
the incremental-bookkeeping fast paths keep a >=3x wall-clock and
call-count advantage **without changing a single report metric**.

Also writes a fresh ``BENCH_simcore.json`` (under
``.repro-cache/bench/``; the committed copy in ``benchmarks/`` is the
tracked perf trajectory) and fails when the call-count speedup falls
more than 10% below the committed best — see benchmarks/README.md for
how to read it and how to record a new baseline.

Run just this harness with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_simcore.py -q -s
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import (
    committed_artifact,
    emit,
    latest_artifact,
    write_fresh_artifact,
)
from repro.client.buffer import ClientBuffer
from repro.experiments.controlled import TABLE1, build_workload, serving_kwargs
from repro.experiments.runner import run_comparison
from repro.sim.engine import SimEngine
from repro.sim.profiling import bare_run_rss_kb, profile_call

# --- pre-PR baseline --------------------------------------------------------
# Measured on the seed tree (commit 962222f) in this container:
# python 3.11, TABLE1 h200/(a), scale=1.0, seed=0, tokenflow only.
BASELINE = {
    "wall_s": 8.9726,
    "total_calls": 89_635_927,
    "peak_rss_kb": 117_376,
    "timeline_len": 10_012,
}

# RunReport metrics of that baseline run.  The optimised engine must
# reproduce every one of these (the perf work is pure bookkeeping — it
# may not move a number even in the 7th decimal).
BASELINE_METRICS = {
    "n_requests": 400,
    "n_finished": 400,
    "makespan": 123.21595269786333,
    "total_tokens": 825454,
    "throughput": 6699.246176540857,
    "effective_tokens": 255458.42838599955,
    "effective_throughput": 2073.257746197903,
    "qos": 1704.1687937975883,
    "ttft_mean": 4.102253012082434,
    "ttft_p50": 4.1125718318309925,
    "ttft_p99": 8.2196961278352,
    "stall_total": 1185.8223937783052,
    "stall_mean": 2.964555984445763,
    "preemptions": 1323,
}

# The deterministic, machine-independent gate: Python function calls.
MIN_CALL_SPEEDUP = 3.0
# Wall-clock gate.  The 3.2x measured on the baseline container is the
# demonstrated figure (recorded in BENCH_simcore.json / ROADMAP.md);
# the tier-1 assertion keeps a noise/hardware margin so a loaded CI
# runner cannot fail a bit-identical build.
MIN_WALL_SPEEDUP = 2.0

# Fraction of the committed best call-count speedup a run must retain.
ALLOWED_REGRESSION = 0.10

BENCH_NAME = "BENCH_simcore.json"

# The baseline's 117 MiB peak_rss_kb was measured on a *bare* seed-tree
# run, so the comparable optimized figure must come from a bare run too
# (in-process ru_maxrss is a process-lifetime high-water mark — under
# pytest + cProfile it reports the suite's hungriest moment, which once
# made the artifact claim 310 MB for an 80 MB workload).  This code runs
# in a fresh interpreter; it must stay import-light and deterministic.
BARE_RSS_CODE = """\
from repro.experiments.controlled import TABLE1, build_workload, serving_kwargs
from repro.experiments.runner import run_comparison
setup = TABLE1[("h200", "a")]
requests = build_workload(setup, scale=1.0, seed=0)
run_comparison(("tokenflow",), requests, horizon=50_000.0,
               **serving_kwargs(setup, 1.0))
"""


def _metrics_of(report) -> dict:
    return {
        "n_requests": report.n_requests,
        "n_finished": report.n_finished,
        "makespan": report.makespan,
        "total_tokens": report.total_tokens,
        "throughput": report.throughput,
        "effective_tokens": report.effective_tokens,
        "effective_throughput": report.effective_throughput,
        "qos": report.qos,
        "ttft_mean": report.ttft_mean,
        "ttft_p50": report.ttft_p50,
        "ttft_p99": report.ttft_p99,
        "stall_total": report.stall_total,
        "stall_mean": report.stall_mean,
        "preemptions": report.preemptions,
    }


def _micro_event_queue(n_events: int = 200_000) -> float:
    """Events/second through the engine (schedule + drain)."""
    engine = SimEngine()
    sink = []
    append = sink.append
    for i in range(n_events):
        engine.call_at(float(i) * 1e-3, lambda: append(None))
    t0 = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - t0
    assert len(sink) == n_events
    return n_events / elapsed


def _micro_buffer(n_tokens: int = 200_000) -> float:
    """Deliver+occupancy operations/second on one client buffer."""
    buffer = ClientBuffer(rate=10.0, record_trace=False)
    deliver = buffer.deliver
    occupancy = buffer.occupancy
    t0 = time.perf_counter()
    t = 0.0
    for _ in range(n_tokens):
        t += 0.012
        deliver(t)
        occupancy(t)
    elapsed = time.perf_counter() - t0
    assert buffer.delivered == n_tokens
    return 2 * n_tokens / elapsed


def test_perf_simcore_table1_h200a(benchmark):
    setup = TABLE1[("h200", "a")]
    requests = build_workload(setup, scale=1.0, seed=0)
    assert len(requests) == 400
    kwargs = serving_kwargs(setup, 1.0)

    def run():
        return run_comparison(
            ("tokenflow",), requests, horizon=50_000.0, **kwargs
        )

    # Two unprofiled timing runs (best-of) + one profiled run for the
    # deterministic call count; the benchmark fixture records the
    # profiled pass so the suite-level tooling sees this test too.
    report = profile_call(run, top=15, wall_runs=2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    run_report = report.result["tokenflow"]
    metrics = _metrics_of(run_report)

    # 1) Bit-parity with the pre-optimisation baseline (well beyond
    #    the 6-decimals bar; observed deviation is <= 1 ulp on qos).
    for key, expected in BASELINE_METRICS.items():
        assert metrics[key] == pytest.approx(expected, rel=1e-9, abs=1e-9), key

    # 2) Deterministic >=3x reduction in Python function calls.
    call_ratio = BASELINE["total_calls"] / report.total_calls
    assert call_ratio >= MIN_CALL_SPEEDUP, (
        f"call-count speedup regressed: {call_ratio:.2f}x "
        f"({report.total_calls:,} calls vs baseline {BASELINE['total_calls']:,})"
    )

    # 3) Wall-clock speedup against the recorded baseline (>=3.2x on
    #    the baseline container; asserted with a hardware/noise margin).
    #    On hardware much slower than the baseline container, disable
    #    the absolute-time gates with REPRO_PERF_NO_WALL_GATE=1 — the
    #    deterministic call-count gate still protects regressions.
    wall_gate = os.environ.get("REPRO_PERF_NO_WALL_GATE", "") != "1"
    wall_speedup = BASELINE["wall_s"] / report.wall_s
    if wall_gate:
        assert wall_speedup >= MIN_WALL_SPEEDUP, (
            f"wall-clock speedup regressed: {wall_speedup:.2f}x "
            f"({report.wall_s:.3f}s vs baseline {BASELINE['wall_s']:.3f}s)"
        )

    micro = {
        "event_queue_events_per_s": _micro_event_queue(),
        "client_buffer_ops_per_s": _micro_buffer(),
    }
    if wall_gate:
        # Loose sanity floors (~10x below measured on the baseline
        # container) — these only catch order-of-magnitude breaks.
        assert micro["event_queue_events_per_s"] > 25_000
        assert micro["client_buffer_ops_per_s"] > 300_000

    # 4) No slide against the committed trajectory: the call-count
    #    ratio must stay within ALLOWED_REGRESSION of the committed best.
    committed_best = committed_artifact(BENCH_NAME).get("best", {}).get("calls", 0.0)
    floor = (1.0 - ALLOWED_REGRESSION) * committed_best
    assert call_ratio >= floor, (
        f"call-count speedup {call_ratio:.2f}x is more than "
        f"{ALLOWED_REGRESSION:.0%} below the committed best "
        f"{committed_best:.2f}x (benchmarks/{BENCH_NAME})"
    )

    # Carry forward trajectory state: the best call-count ratio ever
    # recorded and free-form notes other benches append (e.g. the
    # matrix orchestrator's measured parallel speedup).
    previous = latest_artifact(BENCH_NAME)
    best_calls = max(call_ratio, previous.get("best", {}).get("calls", 0.0))

    # Apples-to-apples RSS: a bare subprocess running just the workload
    # (see BARE_RSS_CODE).  Soft metric — on a subprocess failure (e.g.
    # a sandbox forbidding spawns) the previous recorded value is
    # carried forward, or the figure is marked unavailable, rather than
    # failing a bit-identical build; the trajectory guard keys off
    # peak_rss_source and only enforces measured values.
    bare_rss_kb = bare_run_rss_kb(BARE_RSS_CODE)
    if bare_rss_kb is not None:
        rss_source = "bare"
    else:
        prev_opt = previous.get("optimized", {})
        bare_rss_kb = prev_opt.get("peak_rss_kb", 0)
        rss_source = "carried" if bare_rss_kb else "unavailable"

    # Per-PR trajectory rows: each entry is one committed state of the
    # harness (wall, calls, bare RSS, free-form note).  A re-run inside
    # the same PR — detected by a call count within 1% of the last row
    # — replaces that row instead of appending, so the list stays one
    # row per landed change.  Set REPRO_BENCH_NOTE to label the row.
    history = list(previous.get("history", []))
    if not history and previous.get("optimized"):
        prev_opt = previous["optimized"]
        history.append({
            "wall_s": prev_opt.get("wall_s"),
            "total_calls": prev_opt.get("total_calls"),
            "peak_rss_kb": prev_opt.get("peak_rss_kb"),
            "calls_speedup": previous.get("speedup", {}).get("calls"),
            "notes": "pre-history artifact state (carried forward)",
        })
    row = {
        "wall_s": report.wall_s,
        "total_calls": report.total_calls,
        "peak_rss_kb": bare_rss_kb,
        "calls_speedup": call_ratio,
        "notes": os.environ.get("REPRO_BENCH_NOTE", ""),
    }
    if history and abs(
        (history[-1].get("total_calls") or 0) - row["total_calls"]
    ) <= 0.01 * row["total_calls"]:
        if not row["notes"]:
            row["notes"] = history[-1].get("notes", "")
        history[-1] = row
    else:
        history.append(row)

    payload = {
        "workload": "TABLE1 h200/(a) scale=1.0 seed=0, tokenflow",
        "baseline": BASELINE | {"metrics": BASELINE_METRICS},
        "optimized": {
            "wall_s": report.wall_s,
            "profiled_s": report.profiled_s,
            "total_calls": report.total_calls,
            # Bare-run figure, comparable to baseline.peak_rss_kb (the
            # in-process high-water mark under pytest+cProfile is kept
            # separately for trend-tracking only).
            "peak_rss_kb": bare_rss_kb,
            "peak_rss_source": rss_source,
            "peak_rss_suite_kb": report.peak_rss_kb,
            "metrics": metrics,
        },
        "speedup": {
            "wall": wall_speedup,
            "calls": call_ratio,
        },
        "best": {"calls": best_calls},
        "history": history,
        "micro": micro,
        "notes": previous.get("notes", {}),
    }
    fresh = write_fresh_artifact(BENCH_NAME, payload)

    emit(
        f"perf simcore · h200/(a) 400 requests\n"
        f"  wall   {report.wall_s:.3f} s  ({wall_speedup:.2f}x vs baseline "
        f"{BASELINE['wall_s']:.2f} s)\n"
        f"  calls  {report.total_calls:,}  ({call_ratio:.2f}x fewer)\n"
        f"  rss    {bare_rss_kb / 1024:.1f} MiB bare (baseline "
        f"{BASELINE['peak_rss_kb'] / 1024:.1f} MiB; suite high-water "
        f"{report.peak_rss_kb / 1024:.1f} MiB)\n"
        f"  events/s {micro['event_queue_events_per_s']:,.0f} · "
        f"buffer ops/s {micro['client_buffer_ops_per_s']:,.0f}\n"
        f"  artifact -> {fresh}"
    )
