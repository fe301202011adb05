"""Prefix-sharing savings harness for the block-table allocator.

Runs the two prefix-native scenarios — ``prefix-heavy-agents``
(sequential multi-turn sessions, cached-chain reuse + promotion) and
``rag-replay`` (concurrent fan-out over shared document prefixes,
live refs + copy-on-write forks) — once as registered and once with
every request's sharing identity stripped (``session_id``,
``prefix_group`` and ``prefix_len`` cleared: the "naive" columns,
plain per-request block counts), asserting

* **savings** — ``prefix_blocks_saved / (prefix_blocks_saved +
  gpu_blocks_allocated)`` is at least :data:`MIN_SAVINGS` (the
  ISSUE's >= 30% GPU-block gate) on both scenarios, and
* **reuse paths** — the agents scenario exercises cache promotion and
  the RAG scenario exercises copy-on-write forks, so both sharing
  mechanisms are demonstrably live, and
* **parity of demand** — the identity-stripped run allocates strictly
  more fresh blocks than the prefix run, and
* **no drift** — every deterministic counter equals the committed
  ``benchmarks/BENCH_prefix.json``.

Writes a fresh ``BENCH_prefix.json`` under ``.repro-cache/bench/``
recording the counters and the stripped-vs-prefix allocation deltas.

Run just this harness with::

    PYTHONPATH=src python -m pytest benchmarks/test_prefix_sharing.py -q -s
"""

from __future__ import annotations

from benchmarks.conftest import committed_artifact, emit, write_fresh_artifact
from repro.scenarios.build import build_run
from repro.scenarios.registry import get_scenario
from tests.oracle import identity_stripped

SCALE = 0.5
SEED = 0
MIN_SAVINGS = 0.30

SCENARIOS = ("prefix-heavy-agents", "rag-replay")

BENCH_NAME = "BENCH_prefix.json"

COUNTER_KEYS = (
    "prefix_lookups", "prefix_hits", "prefix_shared_blocks",
    "prefix_tokens_reused", "prefix_blocks_saved", "cache_promotes",
    "cow_forks", "prefix_evictions",
)


def _run(name, stripped=False):
    spec = get_scenario(name, scale=SCALE, seed=SEED)
    if stripped:
        spec = identity_stripped(spec)
    return build_run(spec).execute()


def test_prefix_sharing_savings():
    rows = []
    for name in SCENARIOS:
        prefix = _run(name)
        naive = _run(name, stripped=True)
        stats = prefix.kv_stats
        saved = stats["prefix_blocks_saved"]
        allocated = stats["gpu_blocks_allocated"]
        savings = saved / (saved + allocated)
        hit_rate = stats["prefix_hits"] / max(1, stats["prefix_lookups"])
        rows.append({
            "scenario": name,
            "n_requests": prefix.n_requests,
            "savings": round(savings, 4),
            "hit_rate": round(hit_rate, 4),
            "gpu_blocks_allocated": allocated,
            "gpu_blocks_allocated_naive": naive.kv_stats["gpu_blocks_allocated"],
            "gpu_peak_blocks": stats["gpu_peak_blocks"],
            "gpu_peak_blocks_naive": naive.kv_stats["gpu_peak_blocks"],
            "counters": {key: stats[key] for key in COUNTER_KEYS},
        })

    by_name = {row["scenario"]: row for row in rows}
    # Both sharing mechanisms must be live, not just one of them.
    assert by_name["prefix-heavy-agents"]["counters"]["cache_promotes"] > 0
    assert by_name["rag-replay"]["counters"]["cow_forks"] > 0

    payload = {
        "workload": {"scale": SCALE, "seed": SEED},
        "gate": f"GPU-block savings >= {MIN_SAVINGS:.0%} on every scenario",
        "scenarios": rows,
        "notes": (
            "savings = prefix_blocks_saved / (prefix_blocks_saved + "
            "gpu_blocks_allocated); naive columns re-run the identical "
            "workload with every sharing identity stripped"
        ),
    }
    fresh = write_fresh_artifact(BENCH_NAME, payload)

    lines = [f"prefix sharing — scale={SCALE} seed={SEED}"]
    for row in rows:
        counters = row["counters"]
        lines.append(
            f"  {row['scenario']}: savings={row['savings']:.1%} "
            f"hit_rate={row['hit_rate']:.1%} "
            f"allocated={row['gpu_blocks_allocated']} "
            f"(naive {row['gpu_blocks_allocated_naive']}) "
            f"promotes={counters['cache_promotes']} "
            f"forks={counters['cow_forks']} "
            f"evictions={counters['prefix_evictions']}"
        )
    lines.append(f"  artifact -> {fresh}")
    emit("\n".join(lines))

    # The simulation is deterministic: the committed rows are exact.
    committed = committed_artifact(BENCH_NAME)
    assert committed["workload"] == payload["workload"]
    assert committed["scenarios"] == rows, (
        f"prefix-sharing counters drifted from benchmarks/{BENCH_NAME}; "
        f"if intended, copy {fresh} over it"
    )

    for row in rows:
        assert row["savings"] >= MIN_SAVINGS, (
            f"{row['scenario']}: GPU-block savings {row['savings']:.1%} "
            f"below the {MIN_SAVINGS:.0%} gate"
        )
        assert row["gpu_blocks_allocated"] < row["gpu_blocks_allocated_naive"], (
            f"{row['scenario']}: prefix run allocated no fewer blocks than naive"
        )
