"""Shard-scaling harness for the cluster coordinator.

Runs the 64-replica ``cluster-soak-64x`` scenario on a single inline
shard (the baseline: no worker processes, no queue traffic) and per
shard count K ∈ {1, 2, 4} on the process transport (warm worker
pool), ``REPEATS`` times each, asserting

* **parity** — every run reproduces the frozen deep fingerprint in
  ``tests/classic_cluster_digests.json`` bit-for-bit, and
* **overhead** — the best process-transport median wall clock stays
  within ``MAX_OVERHEAD`` of the inline baseline's median.  On a
  container with few CPUs sharding cannot win much by parallelism;
  the gate bounds what the coordination protocol (ladder messages,
  pickling, queue round-trips) costs.  One run per row read anywhere
  from 0.39x to 1.11x on the same host, so each row is the median of
  its runs and records them all (``walls_s``) as its spread.

One more row, kept apart from the scaling table, runs ``least_queued``
on K=2 inline shards, the router and layout of the ``cluster-stateful``
benchmark workload (its lowest-index tie-break leaves the second
shard's replicas without requests, so that shard processes no events).
Every row records its ``fused_share``: the share of decode iterations
that ran inside fused windows, which shows how often dispatches cut
them.

A second block measures **speculative dispatch**: ``least_loaded``
over K=4 shards.  Every arrival needs instance state, so each is
resolved either by a blocking coordination round or from the
trajectory-snapshot mirror; the reduction is
``stateful_dispatches / coordination_rounds`` and must be at least 5x.

Writes a fresh ``BENCH_shard.json`` under ``.repro-cache/bench/`` and
gates the deterministic round count against the committed
``benchmarks/BENCH_shard.json``, which the trajectory guards in
``tests/test_perf_trajectory.py`` also watch.

Run just this harness with::

    PYTHONPATH=src python -m pytest benchmarks/test_shard_scaling.py -q -s
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks.conftest import (
    committed_artifact,
    emit,
    latest_artifact,
    write_fresh_artifact,
)
from repro.orchestration.pool import get_pool
from repro.scenarios.build import build_run
from repro.scenarios.registry import CLUSTER_SOAK_REPLICAS, get_scenario

from tests.test_serving_sharding import deep_fp, frozen_registry

SCENARIO = "cluster-soak-64x"
SCALE = 0.25
SEED = 0
SHARD_COUNTS = (1, 2, 4)
# Timed runs per row; a row's wall is their median.
REPEATS = 3

# Coordination-overhead ceiling: best process-transport wall / inline
# K=1 wall.  Splitting one 64-replica event heap into K small ones
# more than pays for the round_robin ladder messages, so the measured
# figure sits below 1.0; 1.15 leaves honest noise headroom.
MAX_OVERHEAD = 1.15

# Deterministic round counts may exceed the committed figure by at
# most this fraction.
ALLOWED_REGRESSION = 0.10

BENCH_NAME = "BENCH_shard.json"

SPECULATIVE_PROTOCOL = "trajectory-snapshot mirror"


def _fused_share(report) -> float:
    """Share of decode iterations that ran inside fused windows."""
    stats = [r.executor_stats for r in report.per_instance]
    decode = sum(s["decode_iterations"] for s in stats)
    return round(sum(s["fused_iterations"] for s in stats) / max(decode, 1), 4)


def _row(shards, router, transport, baseline_wall):
    """``REPEATS`` timed soak runs as a table row."""
    target, report, walls = _timed_runs(shards, router, transport)
    wall = statistics.median(walls)
    return {
        "router": router,
        "transport": transport,
        "shards": shards,
        "wall_s": round(wall, 4),
        "walls_s": [round(w, 4) for w in walls],
        "overhead": round(wall / baseline_wall, 4),
        "coordination_rounds": report.coordination_rounds,
        "messages_sent": report.messages_sent,
        "shard_events": target.shard_events,
        "fused_share": _fused_share(report),
    }


def _timed_runs(shards, router, transport):
    """Execute ``REPEATS`` soak runs; return the last run's target and
    report and every run's wall seconds."""
    walls = []
    for _ in range(REPEATS):
        target, report, wall = _timed_run(shards, router, transport)
        walls.append(wall)
    return target, report, walls


def _timed_run(shards, router, transport):
    """Execute one soak run; return (target, report, wall seconds)."""
    spec = get_scenario(SCENARIO, scale=SCALE, seed=SEED, router=router,
                        shards=shards)
    run = build_run(spec)
    run.target.transport = transport
    t0 = time.perf_counter()
    report = run.execute()
    wall = time.perf_counter() - t0
    fp = deep_fp(run.target, report)
    assert fp == frozen_registry(SCENARIO, SCALE, router, SEED, True), (
        f"{router} K={shards} {transport} run diverged from the frozen report"
    )
    return run.target, report, wall


def _history(row: dict) -> list:
    """Carried history with ``row`` replacing its protocol's entry."""
    history = [
        old for old in latest_artifact(BENCH_NAME).get("history", [])
        if old.get("protocol") != row["protocol"]
    ]
    return history + [row]


def test_shard_scaling_soak64():
    # Warm the shared worker pool so cold fork/import cost does not
    # land inside any timed region (matrix cells amortise it the same
    # way via orchestration.pool).
    pool = get_pool(min_workers=max(SHARD_COUNTS))
    list(pool.map(abs, range(2 * max(SHARD_COUNTS))))

    _, baseline_report, baseline_walls = _timed_runs(1, "round_robin", "inline")
    baseline_wall = statistics.median(baseline_walls)
    n_requests = baseline_report.n_requests

    rows = [_row(shards, "round_robin", "process", baseline_wall)
            for shards in SHARD_COUNTS]
    least_queued = _row(2, "least_queued", "inline", baseline_wall)

    # --- speculative dispatch: rounds/messages trajectory -------------
    # least_loaded over K=4 shards.  Counts are deterministic, so this
    # gate never needs the wall-clock skip.
    _, spec_report, _ = _timed_run(4, "least_loaded", "process")
    rounds = spec_report.coordination_rounds
    stateful = rounds + spec_report.speculation_hits
    assert stateful == n_requests
    assert spec_report.speculation_misses == 0
    reduction = stateful / max(rounds, 1)
    assert reduction >= 5.0, (
        f"speculative dispatch cut rounds only {reduction:.1f}x "
        f"({stateful} -> {rounds}); the acceptance gate is >= 5x"
    )
    committed = committed_artifact(BENCH_NAME)["speculation"]
    ceiling = (1.0 + ALLOWED_REGRESSION) * committed["coordination_rounds"]
    assert rounds <= ceiling, (
        f"coordination rounds regressed: {rounds} vs committed "
        f"{committed['coordination_rounds']} (benchmarks/{BENCH_NAME})"
    )

    history = _history({
        "protocol": SPECULATIVE_PROTOCOL,
        "coordination_rounds": rounds,
        "messages_sent": spec_report.messages_sent,
        "speculation_hits": spec_report.speculation_hits,
        "speculation_misses": spec_report.speculation_misses,
        "reduction": round(reduction, 2),
        "notes": "stateful dispatches resolved by the mirror need no round",
    })

    best = min(rows, key=lambda row: row["wall_s"])
    payload = {
        "workload": {
            "scenario": SCENARIO,
            "scale": SCALE,
            "seed": SEED,
            "replicas": CLUSTER_SOAK_REPLICAS,
            "n_requests": n_requests,
        },
        "baseline": {"shards": 1, "transport": "inline",
                     "wall_s": round(baseline_wall, 4),
                     "walls_s": [round(w, 4) for w in baseline_walls],
                     "fused_share": _fused_share(baseline_report)},
        "shards": rows,
        "least_queued": least_queued,
        "best": {"shards": best["shards"], "overhead": best["overhead"]},
        "gate": (f"best process-transport median wall <= {MAX_OVERHEAD}x "
                 f"inline K=1 median wall ({REPEATS} runs a row)"),
        "speculation": {
            "router": "least_loaded",
            "shards": 4,
            "stateful_dispatches": stateful,
            "coordination_rounds": rounds,
            "messages_sent": spec_report.messages_sent,
            "speculation_hits": spec_report.speculation_hits,
            "speculation_misses": spec_report.speculation_misses,
            "reduction": round(reduction, 2),
            "gate": "stateful_dispatches / coordination_rounds >= 5",
        },
        "history": history,
        "notes": (
            "round_robin rows on the process transport against a K=1 "
            "inline baseline; least_queued row: K=2 inline, overhead "
            "against the same baseline; wall_s is the median of walls_s; "
            "every run matches its frozen "
            "digest; fused_share is fused / decode iterations; "
            "speculation block: least_loaded K=4 process transport"
        ),
    }
    fresh = write_fresh_artifact(BENCH_NAME, payload)

    lines = [
        f"shard scaling — {SCENARIO} scale={SCALE} "
        f"({CLUSTER_SOAK_REPLICAS} replicas, {n_requests} requests)",
        f"  inline K=1: {baseline_wall:.2f}s "
        f"[{min(baseline_walls):.2f}-{max(baseline_walls):.2f}] "
        f"fused={_fused_share(baseline_report):.2f}",
    ]
    for row in rows + [least_queued]:
        lines.append(
            f"  {row['router']} K={row['shards']} {row['transport']}: "
            f"{row['wall_s']:.2f}s [{min(row['walls_s']):.2f}-"
            f"{max(row['walls_s']):.2f}] ({row['overhead']:.2f}x) "
            f"rounds={row['coordination_rounds']} "
            f"msgs={row['messages_sent']} events={row['shard_events']} "
            f"fused={row['fused_share']:.2f}"
        )
    lines.append(
        f"  speculation (least_loaded, K=4): {stateful} stateful dispatches, "
        f"{rounds} rounds ({reduction:.1f}x), msgs {spec_report.messages_sent}, "
        f"mirror-resolved={spec_report.speculation_hits}"
    )
    lines.append(f"  artifact -> {fresh}")
    emit("\n".join(lines))

    # Wall-clock gates are skippable on loaded/foreign machines; the
    # artifact above still records what this run measured.
    if os.environ.get("REPRO_PERF_NO_WALL_GATE", "") != "1":
        assert best["overhead"] <= MAX_OVERHEAD, (
            f"sharded coordination overhead {best['overhead']:.2f}x exceeds "
            f"the {MAX_OVERHEAD}x gate (inline K=1 {baseline_wall:.2f}s, best "
            f"process {best['wall_s']:.2f}s at K={best['shards']})"
        )
