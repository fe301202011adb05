"""Benchmark harness configuration.

Every bench regenerates one paper table/figure at a reduced scale (the
comparison shape is scale-invariant; see EXPERIMENTS.md) and prints
the same rows/series the paper reports.  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the rendered tables; without it they are captured but the
shape assertions still run.

The perf harnesses never rewrite the committed ``BENCH_*.json``
artifacts: each run writes a fresh copy under the git-ignored
``.repro-cache/bench/`` and gates against the committed one.
Recording a new baseline means copying the fresh file over the
committed one (see benchmarks/README.md).
"""

import json
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parent
FRESH_DIR = _BENCH_DIR.parent / ".repro-cache" / "bench"


def pytest_collection_modifyitems(items):
    """Mark every bench ``slow``: the figure/table regenerations and the
    perf harness belong to the full tier-1 lane, not the fast CI lane
    (``-m "not slow"``; see scripts/ci.sh)."""
    for item in items:
        if Path(item.fspath).resolve().parent == _BENCH_DIR:
            item.add_marker(pytest.mark.slow)


def emit(text: str) -> None:
    """Print a rendered experiment table under the bench's name."""
    print("\n" + text + "\n")


def committed_artifact(name: str) -> dict:
    """The committed ``benchmarks/<name>`` artifact ({} if absent)."""
    path = _BENCH_DIR / name
    return json.loads(path.read_text()) if path.exists() else {}


def latest_artifact(name: str) -> dict:
    """This checkout's fresh copy of ``name`` if a run wrote one, else
    the committed artifact — the state a harness carries forward."""
    path = FRESH_DIR / name
    return json.loads(path.read_text()) if path.exists() else committed_artifact(name)


def write_fresh_artifact(name: str, payload: dict) -> Path:
    """Write ``payload`` as the fresh copy of ``name``; return its path."""
    FRESH_DIR.mkdir(parents=True, exist_ok=True)
    path = FRESH_DIR / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
