"""Soak-scale memory benchmark: O(active) RSS on the streaming plane.

The streaming workload plane's claim is that serving memory scales
with the *active* request set, not the total served: a run 100x the
TABLE1 h200/(a) crowd must not cost 100x the memory.  This bench pins
that with real processes:

* **baseline** — the 400-request table1-h200-a cell (the perf smoke's
  macro workload), retained telemetry, measured as peak RSS of a bare
  subprocess (``profiling.bare_run_rss_kb`` — in-suite ``ru_maxrss``
  would report the test session's high-water mark, not the run's).
* **soak** — ``soak-steady`` at scale 1: 40 000 requests (100x) fed
  through ``ServingSystem.feed`` with streaming telemetry
  (``retain_per_request=False``).

Gate: soak peak RSS ≤ 2x the baseline's.  (Measured on the reference
container: ~46 MiB soak vs ~80 MiB baseline — the soak run is actually
*smaller*, because nothing O(total) survives; the 2x bound leaves room
for interpreter/platform noise, not for a regression back to
O(total).)  Slow lane only (the soak run simulates ~2.5M tokens).

Results land in a fresh ``BENCH_soak.json`` under
``.repro-cache/bench/``; the soak peak must also stay within
``ALLOWED_RSS_FACTOR`` of the committed ``benchmarks/BENCH_soak.json``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import committed_artifact, write_fresh_artifact
from repro.scenarios import get_scenario
from repro.scenarios.registry import SOAK_BASE_REQUESTS
from repro.sim.profiling import bare_run_rss_kb

BENCH_NAME = "BENCH_soak.json"

# Soft bound on the soak peak against the committed figure: RSS varies
# with Python version and allocator, so this catches order-of-magnitude
# leaks, not percent-level drift.
ALLOWED_RSS_FACTOR = 1.5

BASELINE_CODE = """
from repro.scenarios import build_run, get_scenario
report = build_run(get_scenario("table1-h200-a", scale=1.0)).execute()
assert report.n_finished == report.n_requests > 0
"""

SOAK_CODE = """
from repro.scenarios import build_run, get_scenario
run = build_run(get_scenario("soak-steady", scale=1.0))
report = run.execute()
assert report.n_finished == report.n_requests == {n}
assert len(run.target.tracker) == 0           # everything retired
assert report.stream_stats is not None        # sketch-backed report
""".format(n=SOAK_BASE_REQUESTS)


def test_soak_rss_stays_near_baseline():
    base_requests = len(get_scenario("table1-h200-a", scale=1.0).build_workload())
    assert SOAK_BASE_REQUESTS >= 100 * base_requests  # the "100x" claim

    base_kb = bare_run_rss_kb(BASELINE_CODE, timeout_s=600.0)
    if base_kb is None:
        pytest.skip("cannot measure subprocess RSS on this platform")
    soak_kb = bare_run_rss_kb(SOAK_CODE, timeout_s=600.0)
    # The baseline subprocess worked, so a failed soak subprocess is a
    # real regression (crash/unfinished run), not an environment quirk.
    assert soak_kb is not None, "soak subprocess failed"

    print(
        f"\nsoak RSS: baseline ({base_requests} reqs) {base_kb / 1024:.1f} MiB, "
        f"soak ({SOAK_BASE_REQUESTS} reqs, {SOAK_BASE_REQUESTS // base_requests}x) "
        f"{soak_kb / 1024:.1f} MiB ({soak_kb / base_kb:.2f}x)\n"
    )
    write_fresh_artifact(BENCH_NAME, {
        "baseline": {"scenario": "table1-h200-a", "scale": 1.0,
                     "n_requests": base_requests, "peak_rss_kb": base_kb},
        "soak": {"scenario": "soak-steady", "scale": 1.0,
                 "n_requests": SOAK_BASE_REQUESTS, "peak_rss_kb": soak_kb},
        "ratio": soak_kb / base_kb,
        "gate": "soak <= 2x baseline",
    })

    assert soak_kb <= 2 * base_kb, (
        f"soak peak RSS {soak_kb} KiB exceeds 2x the {base_requests}-request "
        f"baseline ({base_kb} KiB) — something O(total-requests) is back"
    )
    committed = committed_artifact(BENCH_NAME)["soak"]
    assert committed["n_requests"] == SOAK_BASE_REQUESTS
    assert soak_kb <= ALLOWED_RSS_FACTOR * committed["peak_rss_kb"], (
        f"soak peak RSS {soak_kb} KiB exceeds {ALLOWED_RSS_FACTOR}x the "
        f"committed {committed['peak_rss_kb']} KiB (benchmarks/{BENCH_NAME})"
    )
