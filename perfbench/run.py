"""Benchmark of the serving simulator, measured from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload burst-preempt --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload burst-preempt --seed 0 --seconds 10 --trace 1 \\
        --trace-out .perfbench/burst.trace.json
    python3 perfbench/run.py --record --workload burst-preempt --seeds 0-39

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints the
per-layer metrics of a traced run and the tracing overhead.  Each run
checks every execute's report (conservation, the workload's validity
guard, and the digest against ``reference/<workload>.json``) and counts
the executes attempted and failed.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Only ``--record`` writes a file (the reference digests);
``--trace-out`` writes the Chrome trace it names.

``run_s`` and ``setup_s`` are scaled by the host-speed reference of
``hostspeed.py``; the raw medians are printed above the JSON line.
The program runs in child processes (``worker.py``); this process
never imports it.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402

WORKER = HERE / "worker.py"
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("burst-preempt", "steady-stream", "cluster-stateful", "prefix-reuse")
# Fresh interpreters timed for setup_s; the first also executes once
# for peak_rss_mib and the correctness checks.
SETUP_SAMPLES = 5
# Wall budget for one run, under the 180 s a run may take.
BUDGET_S = 170.0


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# --- child processes ---------------------------------------------------------

class Child:
    """One ``worker.py`` process in its own session, so a timeout can
    kill it together with the shard workers it started."""

    def __init__(self, mode: str, args: list) -> None:
        cmd = [sys.executable, str(WORKER), mode, *args]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, start_new_session=True)
        self.head = b""

    def wait_line(self, line: bytes, deadline: float) -> bool:
        """Read stdout until ``line`` arrives; False on EOF or timeout."""
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while (line + b"\n") not in self.head:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(timeout=remaining):
                    return False
                chunk = os.read(fd, 65536)
                if not chunk:
                    return False
                self.head += chunk
        return True

    def result(self, deadline: float):
        """The child's ``RESULT`` JSON, or None if it failed or timed out."""
        try:
            out, err = self.proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            print("perfbench: worker timed out", file=sys.stderr)
            return None
        sys.stderr.write(err.decode(errors="replace"))
        for line in reversed((self.head + out).decode(errors="replace").splitlines()):
            if line.startswith("RESULT "):
                return json.loads(line[len("RESULT "):])
        print(f"perfbench: worker exited with {self.proc.returncode} "
              "without a result", file=sys.stderr)
        return None

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.communicate()


def setup_sample(args, deadline: float, execute: bool):
    """Fresh interpreter -> ``READY``: returns (setup_s, result)."""
    t0 = time.perf_counter()
    child = Child("setup", ["--workload", args.workload, "--seed", str(args.seed),
                            "--execute", str(int(execute))])
    ready = child.wait_line(b"READY", deadline)
    setup_s = time.perf_counter() - t0
    result = child.result(deadline)
    return (setup_s if ready else None), result


def loop_run(args, deadline: float):
    extra = ["--trace-out", args.trace_out] if args.trace_out else []
    child = Child("loop", ["--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace),
                           *extra])
    return child.result(deadline)


# --- reporting ----------------------------------------------------------------

def environment(seed: int) -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": hostspeed.np.__version__, "git_rev": rev, "seed": seed}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    """Recorded report digests of ``workload``, keyed by seed."""
    try:
        return json.loads(reference_path(workload).read_text())
    except FileNotFoundError:
        return {}


def digest_failures(workload: str, seed: int, digests: list) -> int:
    """Executes whose report digest differs from the reference (or, for a
    seed without one, from the first execute's)."""
    expected = load_reference(workload).get(str(seed))
    observed = [d for d in digests if d is not None]
    if expected is None:
        print(f"note: no reference digest for {workload} seed {seed}; "
              "executes were checked against each other")
        expected = observed[0] if observed else None
    bad = sum(1 for d in observed if d != expected)
    if bad:
        print(f"FAILED: {bad} of {len(observed)} report digests differ from "
              f"{expected}", file=sys.stderr)
    return bad


def timing(name: str, samples: list, what: str) -> float:
    """Print the raw and host-scaled medians of ``(raw, scaled)``
    samples; return the scaled median."""
    raw = [r for r, _ in samples]
    scaled = statistics.median(s for _, s in samples)
    print(f"{name}: median of {len(samples)} {what}: {scaled:.4f} s scaled, "
          f"{statistics.median(raw):.4f} s raw (min {min(raw):.4f}, max {max(raw):.4f})")
    return scaled


def measure_end_to_end(args, deadline: float, tally: dict) -> dict:
    setup, rss = [], []
    for i in range(SETUP_SAMPLES):
        before = hostspeed.measure()
        setup_s, result = setup_sample(args, deadline, execute=i == 0)
        if not tally_result(result, tally):
            continue
        if setup_s is not None:
            setup.append((setup_s, hostspeed.scaled(setup_s, before, hostspeed.measure())))
        if "rss_mib" in result:
            rss.append(result["rss_mib"])
    loop = loop_run(args, deadline)
    if not tally_result(loop, tally) or not loop["run_s"] or not setup or not rss:
        return {}
    sim = tally["sim"]
    print(f"peak_rss_mib: {rss[0]:.4f} MiB")
    return {
        "run_s": (timing("run_s", loop["run_s"], "timed executes"), "s"),
        "setup_s": (timing("setup_s", setup, "fresh interpreters"), "s"),
        "peak_rss_mib": (rss[0], "MiB"),
        "sim_ttft_p99_s": (sim["ttft_p99"], "sim_s"),
        "sim_effective_tps": (sim["effective_tps"], "sim_tok/s"),
    }


def measure_layers(args, deadline: float, tally: dict) -> dict:
    loop = loop_run(args, deadline)
    if not tally_result(loop, tally) or not loop["layers"]:
        return {}
    layers = loop["layers"]
    overhead = (timing("traced run_s", loop["traced_run_s"], "traced executes")
                / timing("run_s", loop["run_s"], "untraced executes"))
    print(f"tracing overhead: {overhead:.4f}")
    metrics = {name: (statistics.median(sample[name] for sample in layers), unit)
               for name, unit in LAYER_UNITS.items() if name != "trace.overhead"}
    metrics["trace.overhead"] = (overhead, LAYER_UNITS["trace.overhead"])
    return metrics


def tally_result(result, tally: dict) -> bool:
    """Fold one child result into the attempted/failed tally."""
    if result is None:
        tally["attempted"] += 1
        tally["failed"] += 1
        return False
    tally["attempted"] += result["attempted"]
    tally["failed"] += result["failed"]
    tally["digests"].extend(result["digests"])
    if result["sim"]:
        tally["sim"] = result["sim"]
    return True


def record(args) -> None:
    """Write the reference digests of ``--seeds`` for ``--workload``."""
    child = Child("digest", ["--workload", args.workload,
                             "--seeds", *map(str, args.seeds)])
    result = child.result(time.monotonic() + 3600.0)
    if result is None or result["failed"]:
        die("recording failed; reference digests left unchanged")
    table = load_reference(args.workload)
    for seed, dig in zip(result["seeds"], result["digests"]):
        table[str(seed)] = dig
    table = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(args.workload).write_text(json.dumps(table, indent=1) + "\n")
    print(f"recorded {len(result['seeds'])} digests for {args.workload}")


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Serving-simulator benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="write the first traced execute as Chrome trace JSON")
    parser.add_argument("--record", action="store_true",
                        help="write reference digests for --seeds instead of measuring")
    parser.add_argument("--seeds", type=seed_list, default=[0],
                        help="seeds to record, e.g. 0-39 or 1,5,9")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        die(f"program sources not found under {ROOT / 'src'}")
    if args.record:
        record(args)
        return

    deadline = time.monotonic() + BUDGET_S
    print("env: " + json.dumps(environment(args.seed)))
    tally = {"attempted": 0, "failed": 0, "digests": [], "sim": {}}
    measure = measure_layers if args.trace else measure_end_to_end
    metrics = measure(args, deadline, tally)
    tally["failed"] += digest_failures(args.workload, args.seed, tally["digests"])
    if not metrics:
        die(f"no measurement completed ({tally['failed']} of "
            f"{tally['attempted']} executes failed)")
    correct = tally["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
