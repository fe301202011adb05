"""Child process of the benchmark: builds and executes one workload.

Modes (``run.py`` starts each in a fresh interpreter):

* ``setup`` — import, generate, build (and warm the process pool on
  the cluster workload), print ``READY``, then (unless ``--execute 0``)
  execute once and report the process tree's peak resident memory.
  ``run.py`` times the interval from spawn to ``READY`` as ``setup_s``.
* ``loop`` — one untimed warm-up execute, then timed executes until
  ``--seconds`` have passed, each after a full garbage collection.
  With ``--trace 1`` untraced and traced executes alternate, and traced
  ones report per-layer metrics.
* ``digest`` — one execute per seed, printing each report's digest
  (``run.py --record`` writes them as the reference).

Every execute is checked (conservation, validity guard) and its
report digest returned.  The last stdout line is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.scenarios import build_run  # noqa: E402
from repro.serving.metrics import report_fingerprint  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import build_workload, guard  # noqa: E402

MIN_SAMPLES = 3


def digest(report) -> str:
    """SHA-256 of the report fingerprint (cluster: aggregate plus the
    coordination counters)."""
    if hasattr(report, "aggregate"):
        fp = (report_fingerprint(report.aggregate), report.coordination_rounds,
              report.messages_sent, report.speculation_hits,
              report.speculation_misses)
    else:
        fp = report_fingerprint(report)
    return hashlib.sha256(repr(fp).encode()).hexdigest()


def check(workload, report) -> list:
    """Conservation and validity problems of one report."""
    problems = []
    if report.n_requests != workload.n_requests:
        problems.append(f"{report.n_requests} requests reported, "
                        f"{workload.n_requests} generated")
    if report.n_finished != report.n_requests:
        problems.append(f"{report.n_requests - report.n_finished} requests unfinished")
    if report.total_tokens != workload.output_tokens:
        problems.append(f"{report.total_tokens} tokens reported, "
                        f"{workload.output_tokens} generated")
    reason = guard(workload.name, report)
    if reason is not None:
        problems.append(reason)
    return problems


class Outcomes:
    """Attempted/failed tally with each execute's digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: list = []
        self.errors: list = []
        self.sim: dict = {}

    def execute(self, workload, run):
        """Execute ``run`` once; returns (report or None, wall seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = run.execute()
        except Exception:
            self.failed += 1
            self.digests.append(None)
            self.errors.append(traceback.format_exc(limit=4))
            print(self.errors[-1], file=sys.stderr)
            if workload.is_cluster:
                from repro.orchestration.pool import reset_pool

                reset_pool()
            return None, 0.0
        wall = time.perf_counter() - t0
        problems = check(workload, report)
        if problems:
            self.failed += 1
            self.errors.extend(problems)
            print("FAILED CHECK: " + "; ".join(problems), file=sys.stderr)
        self.digests.append(digest(report))
        self.sim = {"ttft_p99": report.ttft_p99,
                    "effective_tps": report.effective_throughput}
        return report, wall

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "digests": self.digests, "errors": self.errors, "sim": self.sim}


def use_inline_shards(workload) -> None:
    """Run the cluster's shards in this process for timed end-to-end runs.

    On the 2-CPU host the benchmark was built on, the process transport
    (coordinator, 2 shard workers and the queue manager on 2 CPUs) made
    ``run_s`` spread 38% over ten runs even after host-speed scaling,
    against 6–10% for the single-process workloads: every round waits
    on 3 processes being scheduled.  The inline transport runs the same
    shard hosts and the same coordination protocol (same rounds, same
    messages, bit-identical reports) without the IPC.  The traced run
    keeps the process transport, so ``shard.wait_s`` and
    ``pool.warm_s`` still measure IPC and pool start-up.
    """
    if workload.is_cluster:
        os.environ["REPRO_SHARD_INLINE"] = "1"


def warm_pool(workload) -> float:
    """Start the shard pool and queue manager (process-transport cluster)."""
    if not workload.is_cluster or os.environ.get("REPRO_SHARD_INLINE") == "1":
        return 0.0
    from repro.orchestration.pool import get_manager, get_pool

    t0 = time.perf_counter()
    pool = get_pool(min_workers=workload.spec.shards)
    list(pool.map(abs, range(2 * workload.spec.shards)))
    get_manager()
    return time.perf_counter() - t0


def stop_pool(workload) -> None:
    if workload.is_cluster:
        from repro.orchestration.pool import reset_pool

        reset_pool()
        for child in multiprocessing.active_children():
            child.join(timeout=10)


def _vm_hwm_kib(pid) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mib() -> float:
    """Peak RSS of this process plus every live child process."""
    kib = _vm_hwm_kib("self")
    for child in multiprocessing.active_children():
        try:
            kib += _vm_hwm_kib(child.pid)
        except OSError:
            pass
    return kib / 1024.0


def mode_setup(args) -> dict:
    workload = build_workload(args.workload, args.seed)
    use_inline_shards(workload)
    warm_pool(workload)
    run = build_run(workload.spec)
    print("READY", flush=True)
    outcomes = Outcomes()
    result = {}
    if args.execute:
        gc.collect()
        outcomes.execute(workload, run)
        result["rss_mib"] = peak_rss_mib()
    stop_pool(workload)
    result.update(outcomes.as_dict())
    return result


def mode_loop(args) -> dict:
    workload = build_workload(args.workload, args.seed)
    if not args.trace:
        use_inline_shards(workload)
    pool_warm_s = warm_pool(workload)
    outcomes = Outcomes()
    gc.collect()
    outcomes.execute(workload, build_run(workload.spec))   # warm-up
    tracer = tracing.Tracer()
    # Each sample is (raw wall, wall scaled by the host-speed reference).
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    n = 0
    step = 0.0   # wall of the previous iteration, build included
    while True:
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= MIN_SAMPLES and (
            not args.trace or len(traced) >= MIN_SAMPLES)
        # Stop when another execute would overrun --seconds; a failing
        # program stops at the deadline even short of samples, and
        # run.py then reports the failures.
        if (enough and elapsed + step > args.seconds) or (
                outcomes.failed and elapsed >= args.seconds):
            break
        trace_this = bool(args.trace) and n % 2 == 1
        n += 1
        step_start = time.perf_counter()
        if trace_this:
            first = not traced
            tracer.reset(keep_spans=first and args.trace_out is not None)
            tracing.install(tracer)
            if workload.stream is not None:
                workload.stream.wrap = lambda s: tracing.TracedStream(tracer, s)
        try:
            run = report = None   # free the previous execute first
            run = build_run(workload.spec)
            gc.collect()
            before = hostspeed.measure()
            origin = time.perf_counter()
            report, wall = outcomes.execute(workload, run)
            sample = (wall, hostspeed.scaled(wall, before, hostspeed.measure()))
        finally:
            if trace_this:
                tracer.unpatch()
                if workload.stream is not None:
                    workload.stream.wrap = None
        step = time.perf_counter() - step_start
        if report is None:
            continue
        if not trace_this:
            untraced.append(sample)
            continue
        traced.append(sample)
        layers.append(tracing.layer_metrics(tracer, run, report, workload, pool_warm_s))
        if first and args.trace_out is not None:
            tracing.write_chrome_trace(args.trace_out, tracer, origin)
    stop_pool(workload)
    result = {"run_s": untraced, "traced_run_s": traced, "layers": layers}
    result.update(outcomes.as_dict())
    return result


def mode_digest(args) -> dict:
    seeds, outcomes = [], Outcomes()
    for seed in args.seeds:
        workload = build_workload(args.workload, seed)
        warm_pool(workload)
        outcomes.execute(workload, build_run(workload.spec))
        seeds.append(seed)
        stop_pool(workload)
    result = {"seeds": seeds}
    result.update(outcomes.as_dict())
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "loop", "digest"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, nargs="*", default=())
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--execute", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()
    modes = {"setup": mode_setup, "loop": mode_loop, "digest": mode_digest}
    result = modes[args.mode](args)
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
