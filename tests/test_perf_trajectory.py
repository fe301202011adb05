"""Perf-trajectory guard over the tracked benchmark artifact.

``benchmarks/BENCH_simcore.json`` is the committed perf trajectory:
``benchmarks/test_perf_simcore.py`` writes a fresh copy with the
current deterministic call-count speedup on every full tier-1 run,
and recording a new baseline means copying that fresh file over the
committed one, which keeps the best ratio ever recorded under
``best.calls``.  This guard is cheap (no simulation) so it runs in the
fast CI lane too, and fails when the recorded current ratio has slid
more than 10% below the recorded best — i.e. when a perf regression
was *measured and committed* without being acknowledged.

If a regression is intentional (e.g. trading calls for clarity),
update ``best.calls`` in the artifact alongside the change and say so
in the PR.
"""

import json
from pathlib import Path

import pytest

BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_simcore.json"
)

SHARD_BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_shard.json"
)

# Committed coordination-overhead ceiling for the cluster (best
# process-transport wall vs inline K=1 wall on the soak workload;
# matches the gate asserted live in benchmarks/test_shard_scaling.py).
ALLOWED_SHARD_OVERHEAD = 1.15

# Fraction of the recorded-best call-count ratio the current ratio
# must retain.
ALLOWED_REGRESSION = 0.10

# Soft memory guard: the recorded bare-run peak RSS may exceed the
# pinned seed baseline by at most this factor.  Deliberately loose —
# RSS varies with Python version and allocator — it exists to catch
# committed accounting mistakes (a profiler/suite high-water mark
# recorded as the workload's footprint) and order-of-magnitude leaks,
# not percent-level drift.
ALLOWED_RSS_FACTOR = 1.5


def test_bench_artifact_exists_and_parses():
    payload = json.loads(BENCH_PATH.read_text())
    assert payload["speedup"]["calls"] > 0
    assert payload["baseline"]["total_calls"] > 0


def test_call_ratio_not_regressed_vs_recorded_best():
    payload = json.loads(BENCH_PATH.read_text())
    current = payload["speedup"]["calls"]
    best = payload.get("best", {}).get("calls", current)
    assert best > 0
    floor = (1.0 - ALLOWED_REGRESSION) * best
    assert current >= floor, (
        f"deterministic call-count speedup regressed: current {current:.2f}x "
        f"is more than {ALLOWED_REGRESSION:.0%} below the recorded best "
        f"{best:.2f}x (floor {floor:.2f}x). If intentional, update "
        f"best.calls in benchmarks/BENCH_simcore.json and justify it."
    )


def test_bare_rss_within_soft_guard():
    payload = json.loads(BENCH_PATH.read_text())
    optimized = payload["optimized"]
    source = optimized.get("peak_rss_source", "bare")
    if source == "unavailable":
        # The bare subprocess could not run (e.g. a sandbox forbidding
        # spawns) and no earlier measurement exists to carry forward —
        # RSS is a soft metric, so that is not a failure.
        pytest.skip("no bare-run RSS measurement available")
    assert source in ("bare", "carried"), source
    baseline_kb = payload["baseline"]["peak_rss_kb"]
    current_kb = optimized["peak_rss_kb"]
    assert current_kb > 0, "bare-run RSS missing from the artifact"
    ceiling = ALLOWED_RSS_FACTOR * baseline_kb
    assert current_kb <= ceiling, (
        f"recorded bare-run peak RSS {current_kb / 1024:.1f} MiB exceeds "
        f"{ALLOWED_RSS_FACTOR:.1f}x the seed baseline "
        f"({baseline_kb / 1024:.1f} MiB). Either memory genuinely "
        f"regressed or the artifact recorded a suite/profiler high-water "
        f"mark instead of a bare run (see BARE_RSS_CODE in "
        f"benchmarks/test_perf_simcore.py)."
    )


def test_history_rows_well_formed():
    payload = json.loads(BENCH_PATH.read_text())
    history = payload.get("history", [])
    assert history, "artifact carries no per-PR history rows"
    for row in history:
        assert row["total_calls"] > 0
        assert row["wall_s"] > 0
        assert row["calls_speedup"] > 0
        assert "notes" in row


def test_call_ratio_not_regressed_vs_any_history_row():
    """The current recorded speedup must stay within the allowed band
    of the best *any* prior PR achieved — a slide hidden by several
    small steps still fails once it exceeds the band cumulatively."""
    payload = json.loads(BENCH_PATH.read_text())
    history = payload.get("history", [])
    assert history
    best = max(row["calls_speedup"] for row in history)
    current = payload["speedup"]["calls"]
    floor = (1.0 - ALLOWED_REGRESSION) * best
    assert current >= floor, (
        f"call-count speedup {current:.2f}x fell below {floor:.2f}x, the "
        f"{ALLOWED_REGRESSION:.0%} band under the best history row "
        f"({best:.2f}x). If intentional, update the artifact's history "
        f"and best.calls and justify it in the PR."
    )


def test_best_is_monotone_upper_bound():
    payload = json.loads(BENCH_PATH.read_text())
    best = payload.get("best", {}).get("calls", 0.0)
    # The refresh logic takes max(current, previous best); the artifact
    # must never be committed with best below current.
    assert best >= payload["speedup"]["calls"] * (1.0 - 1e-12)


# --- sharded cluster trajectory (benchmarks/BENCH_shard.json) ---------------

def test_shard_bench_artifact_exists_and_parses():
    payload = json.loads(SHARD_BENCH_PATH.read_text())
    assert payload["workload"]["replicas"] >= 64
    assert payload["workload"]["n_requests"] > 0
    assert payload["baseline"]["wall_s"] > 0


def test_shard_bench_rows_well_formed():
    payload = json.loads(SHARD_BENCH_PATH.read_text())
    rows = payload["shards"]
    assert {row["shards"] for row in rows} >= {1, 2, 4}
    for row in rows:
        assert row["wall_s"] > 0
        assert row["overhead"] > 0
        assert row["messages_sent"] >= row["shards"]
        assert len(row["shard_events"]) == row["shards"]
        assert all(events > 0 for events in row["shard_events"])


def test_shard_overhead_within_committed_gate():
    """The committed artifact must show the coordination protocol
    holding the ISSUE's overhead gate — a regression that was measured
    and committed without acknowledgement fails here, cheaply, in the
    fast lane."""
    payload = json.loads(SHARD_BENCH_PATH.read_text())
    best = payload["best"]["overhead"]
    assert best <= ALLOWED_SHARD_OVERHEAD, (
        f"recorded best sharded overhead {best:.2f}x exceeds the "
        f"{ALLOWED_SHARD_OVERHEAD}x gate. Either coordination genuinely "
        f"regressed (see benchmarks/test_shard_scaling.py) or the "
        f"artifact was refreshed on a loaded machine — re-run the "
        f"harness and justify any real change in the PR."
    )


def test_shard_speculation_block_holds_reduction_gate():
    """Speculative dispatch must keep coordination rounds at least 5x
    below the stateful dispatch count on the committed soak figure."""
    payload = json.loads(SHARD_BENCH_PATH.read_text())
    spec = payload["speculation"]
    assert spec["router"] == "least_loaded"
    assert spec["coordination_rounds"] > 0
    assert spec["stateful_dispatches"] == (
        spec["coordination_rounds"] + spec["speculation_hits"]
    )
    assert spec["speculation_hits"] > 0
    assert spec["reduction"] >= 5.0, (
        f"recorded speculative-dispatch reduction {spec['reduction']:.1f}x "
        f"fell below the 5x acceptance gate "
        f"({spec['stateful_dispatches']} -> "
        f"{spec['coordination_rounds']} rounds). Re-run "
        f"benchmarks/test_shard_scaling.py and justify any real change."
    )


def test_shard_rounds_not_regressed_vs_history_best():
    """Coordination rounds are deterministic, so this is an exact guard:
    the committed speculative figure may exceed the best (lowest) rounds
    any prior PR recorded by at most ``ALLOWED_REGRESSION``.  A slide
    hidden across several PRs still fails once it leaves the band."""
    payload = json.loads(SHARD_BENCH_PATH.read_text())
    history = payload.get("history", [])
    assert history, "shard artifact carries no rounds/messages history"
    for row in history:
        assert row["coordination_rounds"] > 0
        assert row["messages_sent"] > 0
        assert "notes" in row
    speculative = [
        row["coordination_rounds"] for row in history if row["reduction"] > 1.0
    ]
    assert speculative, "history has no speculative-dispatch rows"
    best = min(speculative)
    current = payload["speculation"]["coordination_rounds"]
    ceiling = (1.0 + ALLOWED_REGRESSION) * best
    assert current <= ceiling, (
        f"coordination rounds regressed: current {current} is more than "
        f"{ALLOWED_REGRESSION:.0%} above the best history row ({best}, "
        f"ceiling {ceiling:.0f}). If intentional, update the history in "
        f"benchmarks/BENCH_shard.json and justify it in the PR."
    )
