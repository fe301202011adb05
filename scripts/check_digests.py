#!/usr/bin/env python3
"""Check perfbench report digests against the recorded references.

For each workload, runs ``perfbench/worker.py digest --workload W
--seeds ...`` in a fresh interpreter, parses its ``RESULT`` line and
compares every seed's digest with ``perfbench/reference/W.json``.
Writes nothing; exits non-zero if any execute fails (raises, or its
report fails perfbench's checks), any digest differs, or a seed has no
reference digest.

    python scripts/check_digests.py                       # all workloads, seed 0
    python scripts/check_digests.py --seeds 0-39          # the 160 recorded digests
    python scripts/check_digests.py --workloads burst-preempt --seeds 0-3 7

A workload takes about a minute per 40 seeds on a 2-CPU host.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from itertools import chain
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PERFBENCH = REPO / "perfbench"
WORKLOADS = ("burst-preempt", "steady-stream", "cluster-stateful", "prefix-reuse")


def seed_range(spec: str) -> list:
    """``"0-3"`` -> ``[0, 1, 2, 3]``; ``"7"`` -> ``[7]``."""
    low, _, high = spec.partition("-")
    try:
        first, last = int(low), int(high or low)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed or range: {spec!r}")
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range: {spec!r}")
    return list(range(first, last + 1))


def run_digests(workload: str, seeds: list) -> dict:
    """The worker's ``RESULT`` payload for one workload."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "digest",
         "--workload", workload, "--seeds", *map(str, seeds)],
        stdout=subprocess.PIPE, text=True, cwd=REPO,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise RuntimeError(f"worker exited {proc.returncode} without a RESULT line")
    return json.loads(lines[-1][len("RESULT "):])


def check(workload: str, seeds: list) -> tuple:
    """Print one line per mismatch; returns (matching digests, failed
    executes).  An execute fails when it raises or when perfbench's
    conservation/validity check rejects its report."""
    reference = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())
    try:
        result = run_digests(workload, seeds)
    except RuntimeError as exc:
        print(f"{workload}: FAILED: {exc}")
        return 0, len(seeds)
    matched = 0
    for seed, observed in zip(result["seeds"], result["digests"]):
        expected = reference.get(str(seed))
        if observed is None:
            print(f"{workload} seed {seed}: execute raised")
        elif expected is None:
            print(f"{workload} seed {seed}: no reference digest")
        elif observed != expected:
            print(f"{workload} seed {seed}: digest {observed[:12]} != reference {expected[:12]}")
        else:
            matched += 1
    failed = result["failed"]
    print(f"{workload}: {matched} of {len(seeds)} digests match, "
          f"{failed} failed executes", flush=True)
    return matched, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=seed_range, default=[[0]],
                        help="seeds or inclusive ranges, e.g. 0-39 (default: 0)")
    args = parser.parse_args()
    seeds = list(dict.fromkeys(chain.from_iterable(args.seeds)))
    outcomes = [check(workload, seeds) for workload in args.workloads]
    matched = sum(m for m, _ in outcomes)
    failed = sum(f for _, f in outcomes)
    total = len(seeds) * len(args.workloads)
    ok = matched == total and failed == 0
    print(f"{'OK' if ok else 'FAILED'}: {matched} of {total} perfbench digests "
          f"match perfbench/reference/, {failed} failed executes")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
