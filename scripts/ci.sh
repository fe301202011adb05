#!/usr/bin/env bash
# CI lanes.
#
#   scripts/ci.sh          tier-1: the full pytest suite (unit +
#                          property + golden + figure benches)
#                          including the perf smoke
#   scripts/ci.sh --fast   fast lane: everything not marked `slow`
#                          (unit/integration/scenario/orchestration
#                          tests, including the fused-vs-per-iteration
#                          decode parity checks in
#                          tests/test_serving_fusion.py and the
#                          frozen scalar-reference checks in
#                          tests/test_serving_vectorize.py), plus a
#                          2-worker `repro matrix` smoke cell;
#                          targets < 60 s
#
# The perf wall-clock gate is relaxed in both lanes so slow/loaded
# runners cannot fail a bit-identical build (the deterministic
# call-count gate still protects perf regressions).
#
# Either lane fails if it changed `git status --porcelain`: running the
# suite must never rewrite tracked files or leave untracked output
# behind (bench artifacts go to the git-ignored .repro-cache/bench/).
#
# Run directly or via `repro selftest [--fast]`.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export REPRO_PERF_NO_WALL_GATE=1

tree_state() { git status --porcelain 2>/dev/null || true; }
tree_before="$(tree_state)"

# Capture pytest's status explicitly and exit with it: `set -e` must
# not be able to swallow or reinterpret the suite's result, no matter
# what trailing steps are added after this block.
rc=0
if [[ "$FAST" -eq 1 ]]; then
  echo "== fast lane: pytest -m 'not slow' (incl. fusion + scalar-reference parity) =="
  python -m pytest -x -q -m "not slow" || rc=$?
  if [[ "$rc" -eq 0 ]]; then
    # Orchestrator smoke: one tiny scenario cell across 2 worker
    # processes, uncached, so a broken pool/pickling path fails fast.
    echo "== fast lane: repro matrix --jobs 2 smoke cell =="
    python -m repro.cli matrix table1-rtx4090-a \
      --jobs 2 --scale 0.1 --seeds 0 --no-cache || rc=$?
  fi
  if [[ "$rc" -eq 0 ]]; then
    # Sharded-cluster smoke: one cluster scenario split across 2 shard
    # worker processes, so a broken shard transport/protocol fails fast.
    echo "== fast lane: repro run --shards 2 smoke =="
    python -m repro.cli run cluster-burst-4x --shards 2 --scale 0.1 || rc=$?
  fi
  if [[ "$rc" -eq 0 ]]; then
    # Identity-bearing sharded smoke: session turns drive the KV block
    # table's prefix sharing inside the shard worker processes.
    echo "== fast lane: repro run bursty-sessions --shards 2 smoke =="
    python -m repro.cli run bursty-sessions --shards 2 --scale 0.25 || rc=$?
  fi
  if [[ "$rc" -eq 0 ]]; then
    # Catalogue smoke: the long listing renders every ScenarioSpec.doc,
    # so a scenario registered without docs (or a rendering bug) fails
    # fast; the link checker keeps README/docs cross-references honest.
    echo "== fast lane: repro list-scenarios --long + markdown links =="
    python -m repro.cli list-scenarios --long > /dev/null || rc=$?
    if [[ "$rc" -eq 0 ]]; then
      python scripts/check_markdown_links.py || rc=$?
    fi
  fi
else
  echo "== tier-1: full suite (tests/ + benchmarks/, incl. perf smoke) =="
  python -m pytest -x -q || rc=$?
fi

if [[ "$rc" -ne 0 ]]; then
  echo "== CI lane FAILED (pytest exit $rc) =="
  exit "$rc"
fi
tree_after="$(tree_state)"
if [[ "$tree_after" != "$tree_before" ]]; then
  echo "== CI lane FAILED: the run changed the working tree =="
  diff <(echo "$tree_before") <(echo "$tree_after") || true
  exit 1
fi
echo "== CI lane OK =="
