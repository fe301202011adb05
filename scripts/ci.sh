#!/usr/bin/env bash
# CI lanes.
#
#   scripts/ci.sh          tier-1: the full pytest suite (unit +
#                          property + golden + figure benches)
#                          including the perf smoke, then the
#                          perfbench report-digest check on
#                          every workload, two traced perfbench
#                          runs (prefix-reuse, and cluster-stateful
#                          through the process shard transport),
#                          and scripts/check_digests.py over
#                          seeds 0-3
#   scripts/ci.sh --fast   fast lane: first the test-only code scan
#                          (scripts/find_test_only.py, under a
#                          second), then everything not marked `slow`
#                          (unit/integration/scenario/orchestration
#                          tests, including the fast subset of the
#                          equivalence oracle's knob rows
#                          (tests/oracle.py), with the frozen
#                          scalar-reference and cluster-digest
#                          checks), plus
#                          2-worker `repro matrix` smoke cells, with
#                          and without a deadline, one untimed
#                          pass of scripts/decode_kernel_grid.py,
#                          the perfbench report-digest check on
#                          burst-preempt (about 12 s on 2 CPUs),
#                          scripts/check_digests.py on burst-preempt
#                          seeds 1-3 (about 7 s) and on
#                          cluster-stateful seeds 0-3 (about 4 s,
#                          process shard transport); about 110 s
#                          wall on a 2-CPU container, 80 s of it in
#                          pytest
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
  # src/ code that only tests read fails here, before the pytest run.
  echo "== fast lane: test-only code scan =="
  python3 scripts/find_test_only.py || rc=$?
  if [[ "$rc" -eq 0 ]]; then
    echo "== fast lane: pytest -m 'not slow' (incl. the equivalence oracle's fast subset) =="
    python -m pytest -x -q -m "not slow" || rc=$?
  fi
  if [[ "$rc" -eq 0 ]]; then
    # Orchestrator smoke: one tiny scenario cell across 2 worker
    # processes, uncached, so a broken pool/pickling path fails fast.
    echo "== fast lane: repro matrix --jobs 2 smoke cell =="
    python -m repro.cli matrix table1-rtx4090-a \
      --jobs 2 --scale 0.1 --seeds 0 --no-cache || rc=$?
  fi
  if [[ "$rc" -eq 0 ]]; then
    # Deadline smoke: the same runner with a per-cell deadline, on two
    # real cells sharing the 2-worker warm pool.
    echo "== fast lane: repro matrix --jobs 2 --timeout smoke cells =="
    python -m repro.cli matrix table1-rtx4090-a \
      --jobs 2 --scale 0.1 --seeds 0 1 --timeout 120 --no-cache || rc=$?
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
    # Delivery-path smoke: one untimed pass over the batch plane's
    # B x K grid and burst slicing table, so a renamed kernel or
    # delivery path fails fast.
    echo "== fast lane: decode kernel grid --repeat 1 =="
    python scripts/decode_kernel_grid.py --repeat 1 > /dev/null || rc=$?
  fi
  if [[ "$rc" -eq 0 ]]; then
    # Bit-exact smoke: the not-slow tests compare the decode plane to
    # the frozen scalar reference only to rel 1e-9, so one perfbench
    # report digest (burst-preempt: preemption, offload and the array
    # kernel) checks it exactly on every push.
    echo "== fast lane: perfbench burst-preempt report digest =="
    python3 perfbench/run.py --workload burst-preempt --seed 0 \
      --seconds 1 --trace 0 || rc=$?
  fi
  if [[ "$rc" -eq 0 ]]; then
    # burst-preempt is the only workload whose digests see the buffer
    # balancer's choices, so three more of its seeds run here too.
    echo "== fast lane: perfbench digests, burst-preempt seeds 1-3 =="
    python3 scripts/check_digests.py --workloads burst-preempt \
      --seeds 1-3 || rc=$?
  fi
  if [[ "$rc" -eq 0 ]]; then
    # cluster-stateful digests hash coordination rounds and messages,
    # and check_digests runs its shards on worker processes, so a
    # broken shard protocol or process transport fails here; four
    # seeds put dispatches on many replicas' fused windows.
    echo "== fast lane: perfbench digests, cluster-stateful seeds 0-3 =="
    python3 scripts/check_digests.py --workloads cluster-stateful \
      --seeds 0-3 || rc=$?
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
  # Report digests: the only bit-exact check of the decode paths and
  # the window planner against frozen data (the frozen scalar
  # reference compares to rel 1e-9).  burst-preempt windows mostly
  # take the array kernel, prefix-reuse windows the reference
  # recurrence; steady-stream and cluster-stateful run the same
  # windows through a lazy stream and a sharded cluster's horizons.
  # perfbench exits non-zero on any digest mismatch.
  for workload in burst-preempt prefix-reuse steady-stream cluster-stateful; do
    if [[ "$rc" -eq 0 ]]; then
      echo "== tier-1: perfbench $workload report digests =="
      python3 perfbench/run.py --workload "$workload" --seed 0 \
        --seconds 1 --trace 0 || rc=$?
    fi
  done
  # The traced runs patch program methods by name
  # (perfbench/tracing.py): renaming or deleting one fails here.  The
  # cluster-stateful one runs the process shard transport, whose
  # gather the tracer wraps.
  for workload in prefix-reuse cluster-stateful; do
    if [[ "$rc" -eq 0 ]]; then
      echo "== tier-1: perfbench $workload traced run =="
      python3 perfbench/run.py --workload "$workload" --seed 0 \
        --seconds 1 --trace 1 || rc=$?
    fi
  done
  # More seeds of the same digests: one execute per seed, no timing.
  if [[ "$rc" -eq 0 ]]; then
    echo "== tier-1: perfbench digests, seeds 0-3 x every workload =="
    python3 scripts/check_digests.py --seeds 0-3 || rc=$?
  fi
fi

if [[ "$rc" -ne 0 ]]; then
  echo "== CI lane FAILED (exit $rc) =="
  exit "$rc"
fi
tree_after="$(tree_state)"
if [[ "$tree_after" != "$tree_before" ]]; then
  echo "== CI lane FAILED: the run changed the working tree =="
  diff <(echo "$tree_before") <(echo "$tree_after") || true
  exit 1
fi
echo "== CI lane OK =="
