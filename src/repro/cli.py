"""Command-line interface for running experiments and comparisons.

Usage::

    python -m repro.cli list
    python -m repro.cli list-scenarios
    python -m repro.cli run table1-h200-a --replicas 4 --router buffer_aware
    python -m repro.cli experiment fig16 --scale 0.25
    python -m repro.cli compare --systems sglang tokenflow \
        --arrival burst --n-requests 120 --hardware h200 --mem-frac 0.1

``list`` enumerates the paper experiments; ``list-scenarios`` the
registered serving scenarios; ``run`` executes one scenario through
the :func:`~repro.scenarios.build.build_run` pipeline (optionally as a
multi-replica cluster behind a named router; ``--stream`` drives
arrivals through the streaming plane, ``--out`` writes the report as
a diffable JSON artifact with executor/KV/scheduler stats, mirroring
``repro profile --json``); ``experiment``
regenerates one table/figure (same runners the benchmark suite uses);
``compare`` runs an ad-hoc workload across schedulers; ``matrix``
expands scenarios × routers × replicas × seeds into independent jobs
and runs them across worker processes (``--list`` previews the cells);
``profile`` runs one Table 1 cell under cProfile and prints the
hot-spot report (wall seconds, function calls, peak RSS, tottime +
cumulative tables) so perf regressions in the simulation core are
measurable from the command line — ``--json PATH`` writes it as a
diffable CI artifact; ``selftest`` runs the tier-1 CI flow
(``scripts/ci.sh``; pass ``--fast`` for the not-slow lane).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from repro.analysis.tables import render_table
from repro.experiments import ablation, controlled, endtoend, micro, multirate
from repro.experiments import overhead as overhead_mod
from repro.experiments import ratesweep, sensitivity, temporal, timeline, toy
from repro.experiments.runner import run_comparison
from repro.experiments.systems import SYSTEM_NAMES
from repro.scenarios import build_run, get_scenario, list_scenarios
from repro.serving.metrics import RunReport
from repro.serving.routers import ROUTERS
from repro.sim.rng import RngStreams
from repro.workload.builder import RateMixture, WorkloadBuilder, WorkloadSpec

# experiment id -> (description, runner(scale) -> printable str)
EXPERIMENTS: dict = {
    "fig01": ("consumption-rate tables", None),
    "fig02": ("SGLang burst micro-benchmark", None),
    "fig06": ("buffer-balancing toy example", None),
    "fig12": ("end-to-end H200 + Llama3-8B", None),
    "fig13": ("end-to-end A6000 + Qwen2.5-7B", None),
    "fig14": ("queued requests over time", None),
    "fig16": ("burst workloads (Table 1 a/b)", None),
    "fig17": ("Poisson workloads (Table 1 c/d)", None),
    "fig18": ("token generation timelines", None),
    "fig19": ("multi-rate scheduling", None),
    "fig20": ("generation-speed sweep", None),
    "fig21": ("Ascend 910B", None),
    "fig22": ("reschedule-interval sweep", None),
    "fig23": ("buffer-conservativeness sweep", None),
    "tab02": ("memory-management ablation", None),
    "overhead": ("scheduling-pass overhead", None),
}


def _run_experiment(name: str, scale: float, jobs: int = 1) -> str:
    if name == "fig01":
        from repro.client.rates import rate_table_rows
        return render_table(["language", "age", "tokens/s"],
                            rate_table_rows("reading"),
                            title="Fig. 1: reading rates")
    if name == "fig02":
        return micro.render_burst_sweep(
            micro.run_burst_sweep(full_burst=max(8, int(200 * scale)))
        )
    if name == "fig06":
        return toy.render_toy(toy.run_toy_example())
    if name == "fig12":
        reports = endtoend.run_endtoend("h200-llama3-8b", duration=60.0, scale=scale)
        return endtoend.render_endtoend("h200-llama3-8b", "burstgpt", reports)
    if name == "fig13":
        reports = endtoend.run_endtoend("a6000-qwen2.5-7b", duration=60.0, scale=scale)
        return endtoend.render_endtoend("a6000-qwen2.5-7b", "burstgpt", reports)
    if name == "fig14":
        results = temporal.run_temporal(duration=80.0, base_rate=2.0 * scale,
                                        max_batch=32)
        return temporal.render_temporal(results, "queued")
    if name == "fig16":
        blocks = []
        for gpu, key in (("rtx4090", "a"), ("rtx4090", "b"),
                         ("h200", "a"), ("h200", "b")):
            reports = controlled.run_controlled(gpu, key, scale=scale)
            blocks.append(controlled.render_controlled(gpu, key, reports))
        return "\n\n".join(blocks)
    if name == "fig17":
        blocks = []
        for gpu, key in (("rtx4090", "c"), ("rtx4090", "d"),
                         ("h200", "c"), ("h200", "d")):
            reports = controlled.run_controlled(gpu, key, scale=scale)
            blocks.append(controlled.render_controlled(gpu, key, reports))
        return "\n\n".join(blocks)
    if name == "fig18":
        return timeline.render_timelines(timeline.run_timelines())
    if name == "fig19":
        return multirate.render_multirate(multirate.run_multirate())
    if name == "fig20":
        return ratesweep.render_rate_sweep(
            ratesweep.run_rate_sweep(n_requests=max(8, int(200 * scale)),
                                     jobs=jobs)
        )
    if name == "fig21":
        reports = endtoend.run_endtoend("ascend910b-llama3-8b",
                                        duration=60.0, scale=scale)
        return endtoend.render_endtoend("ascend910b-llama3-8b", "burstgpt", reports)
    if name == "fig22":
        return sensitivity.render_sensitivity(
            sensitivity.run_interval_sweep(n_requests=max(8, int(200 * scale)),
                                           jobs=jobs),
            "dt(s)",
        )
    if name == "fig23":
        return sensitivity.render_sensitivity(
            sensitivity.run_conservativeness_sweep(
                n_requests=max(8, int(200 * scale)), jobs=jobs
            ),
            "mu",
        )
    if name == "tab02":
        return ablation.render_ablation(
            ablation.run_ablation(scale=scale, pcie_gbps=2.0)
        )
    if name == "overhead":
        return overhead_mod.render_overhead(overhead_mod.measure_overhead())
    raise KeyError(name)


def cmd_list(_args) -> int:
    rows = [[name, desc] for name, (desc, _) in sorted(EXPERIMENTS.items())]
    print(render_table(["experiment", "description"], rows,
                       title="Available experiments"))
    return 0


def cmd_experiment(args) -> int:
    if args.name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        print(f"unknown experiment {args.name!r}; known: {known}", file=sys.stderr)
        return 2
    print(_run_experiment(args.name, args.scale, jobs=args.jobs))
    return 0


def cmd_compare(args) -> int:
    spec = WorkloadSpec(
        arrival=args.arrival,
        n_requests=args.n_requests if args.arrival == "burst" else None,
        poisson_rate=args.poisson_rate,
        duration=args.duration,
        rates=RateMixture.fixed(args.rate),
    )
    requests = WorkloadBuilder(spec, RngStreams(args.seed)).build()
    reports = run_comparison(
        args.systems, requests,
        hardware=args.hardware, model=args.model,
        mem_frac=args.mem_frac, max_batch=args.max_batch,
    )
    print(render_table(
        RunReport.summary_headers() + ["stall(s)", "preempts"],
        [
            report.summary_row() + [round(report.stall_total, 1),
                                    report.preemptions]
            for report in reports.values()
        ],
        title=f"{args.arrival} workload on {args.hardware}/{args.model}",
    ))
    return 0


def cmd_list_scenarios(args) -> int:
    if not getattr(args, "long", False):
        rows = [[name, desc] for name, desc in list_scenarios()]
        print(render_table(["scenario", "description"], rows,
                           title="Registered scenarios (repro run <scenario>)"))
        return 0
    # Catalogue mode: resolve each entry at default scale/seed and
    # render its ScenarioSpec.doc paragraph plus the axes that matter.
    import textwrap

    for name, desc in list_scenarios():
        spec = get_scenario(name)
        axes = [f"system={spec.system}", f"replicas={spec.replicas}"]
        if spec.replicas > 1:
            axes.append(f"router={spec.router}")
        if spec.is_stream_native:
            axes.append("stream-native")
        print(f"{name} — {desc}")
        print(f"    [{' · '.join(axes)}]")
        for line in textwrap.wrap(spec.doc or spec.description, width=72):
            print(f"    {line}")
        print()
    return 0


def _render_scenario_report(spec, run, report) -> str:
    """One table for a scenario run (cluster gets per-node rows)."""
    headers = RunReport.summary_headers() + ["stall(s)", "preempts"]
    if run.is_cluster:
        shard_note = (
            f" · {run.target.shards} shards" if run.target.shards > 1 else ""
        )
        title = (f"{spec.name} · {spec.replicas} replicas{shard_note} · "
                 f"router={run.target.router.name} · seed={spec.seed}")
        rows = [
            ["cluster",
             round(report.effective_throughput, 1),
             round(report.throughput, 1),
             round(report.ttft_mean, 3),
             round(report.ttft_p99, 3),
             round(report.stall_total, 1),
             report.preemptions]
        ]
        placements = run.target.placement_counts()
        for idx, node_report in enumerate(report.per_instance):
            rows.append(
                [f"  node{idx} ({placements[idx]} reqs)"]
                + node_report.summary_row()[1:]
                + [round(node_report.stall_total, 1), node_report.preemptions]
            )
        headers = ["instance"] + headers[1:]
    else:
        title = f"{spec.name} · single instance · seed={spec.seed}"
        rows = [report.summary_row()
                + [round(report.stall_total, 1), report.preemptions]]
    return render_table(headers, rows, title=title)


def _report_json_payload(spec, run, report) -> dict:
    """A diffable JSON artifact for one scenario run (``run --out``).

    Carries the resolved scenario coordinates plus the full aggregate
    report — executor/KV/scheduler stats included — mirroring the
    ``repro profile --json`` artifact.  Cluster runs add per-instance
    reports and placement counts; per-request rows are elided (the
    artifact must stay diffable at soak scale).
    """
    from repro.serving.metrics import report_to_dict

    payload: dict = {
        "scenario": {
            "name": spec.name,
            "system": spec.system,
            "scale": spec.scale,
            "seed": spec.seed,
            "replicas": spec.replicas,
            "shards": spec.shards,
            "streaming_telemetry": not spec.retain_per_request,
        },
    }
    if run.is_cluster:
        payload["scenario"]["router"] = run.target.router.name
        payload["cluster"] = report_to_dict(
            report.aggregate, include_requests=False
        )
        # Coordination accounting: where the rounds went and how many
        # stateful dispatches the snapshot mirror resolved without one,
        # rather than something to infer from wall clocks.
        payload["coordination"] = {
            "coordination_rounds": report.coordination_rounds,
            "messages_sent": report.messages_sent,
            "speculation_hits": report.speculation_hits,
            "speculation_misses": report.speculation_misses,
        }
        payload["placement_counts"] = run.target.placement_counts()
        payload["per_instance"] = [
            report_to_dict(node, include_requests=False)
            for node in report.per_instance
        ]
    else:
        payload["report"] = report_to_dict(report, include_requests=False)
    return payload


def cmd_run(args) -> int:
    overrides: dict = {}
    if args.replicas is not None:
        overrides["replicas"] = args.replicas
    if args.router is not None:
        overrides["router"] = args.router
    if args.system is not None:
        overrides["system"] = args.system
    if args.shards is not None:
        overrides["shards"] = args.shards
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    try:
        spec = get_scenario(args.name, scale=args.scale, seed=args.seed,
                            **overrides)
        run = build_run(spec)  # KeyError: unknown --system name
    except (KeyError, ValueError) as exc:
        print(str(exc.args[0] if exc.args else exc), file=sys.stderr)
        return 2
    report = run.execute(streamed=True if args.stream else None)
    print(_render_scenario_report(spec, run, report))
    if args.out:
        import json

        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = _report_json_payload(spec, run, report)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def cmd_matrix(args) -> int:
    from repro.orchestration import MatrixSpec, run_matrix

    try:
        matrix = MatrixSpec.from_axes(
            scenarios=args.scenarios or None,
            routers=args.routers,
            replicas=args.replicas,
            seeds=args.seeds,
            systems=args.systems,
            shards=args.shards,
            scale=args.scale,
        )
    except (KeyError, ValueError) as exc:
        print(str(exc.args[0] if exc.args else exc), file=sys.stderr)
        return 2

    if args.list:
        rows = [[cell.cell_id] for cell in matrix.expand()]
        print(render_table(["cell"], rows,
                           title=f"Matrix cells ({matrix.n_cells} jobs)"))
        return 0

    try:
        report = run_matrix(
            matrix,
            jobs=args.jobs,
            timeout_s=args.timeout,
            retries=args.retries,
            cache=not args.no_cache,
        )
    except ValueError as exc:  # e.g. --jobs 0
        print(str(exc.args[0] if exc.args else exc), file=sys.stderr)
        return 2
    print(report.render_markdown())
    if args.out:
        for path in report.write(args.out):
            print(f"wrote {path}")
    return 0 if report.succeeded else 1


def cmd_selftest(args) -> int:
    script = Path(__file__).resolve().parents[2] / "scripts" / "ci.sh"
    if not script.exists():
        print(f"selftest script not found: {script}", file=sys.stderr)
        return 2
    argv = ["bash", str(script)]
    if args.fast:
        argv.append("--fast")
    # Propagate pytest's exit status verbatim — a red suite must fail
    # `repro selftest` (and anything shelling out to it) loudly.
    return subprocess.run(argv, check=False).returncode


def cmd_profile(args) -> int:
    import json

    from repro.experiments.controlled import TABLE1, build_workload, serving_kwargs
    from repro.sim.profiling import profile_call

    key = (args.gpu, args.setup)
    if key not in TABLE1:
        known = ", ".join(f"{g}/{k}" for g, k in sorted(TABLE1))
        print(f"unknown cell {args.gpu}/{args.setup}; known: {known}",
              file=sys.stderr)
        return 2
    setup = TABLE1[key]
    requests = build_workload(setup, scale=args.scale, seed=args.seed)
    def run():
        return run_comparison(
            (args.system,), requests, horizon=50_000.0,
            **serving_kwargs(setup, args.scale),
        )

    report = profile_call(run, top=args.top, wall_runs=1)
    run_report = report.result[args.system]
    print(f"{setup.label()} · {args.system} · {len(requests)} requests, "
          f"{run_report.total_tokens} tokens")
    print(report.render(top=args.top))
    if args.by_subsystem:
        print()
        print(report.render_subsystems())
    if args.json:
        payload = report.to_dict(top=args.top)
        payload["workload"] = {
            "gpu": args.gpu, "setup": args.setup, "system": args.system,
            "scale": args.scale, "seed": args.seed,
            "n_requests": len(requests),
            "total_tokens": run_report.total_tokens,
        }
        payload["executor_stats"] = dict(run_report.executor_stats)
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TokenFlow reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=cmd_list
    )

    list_sc = sub.add_parser(
        "list-scenarios", help="list registered serving scenarios"
    )
    list_sc.add_argument("--long", action="store_true",
                         help="full catalogue: each scenario's doc "
                              "paragraph and axes (from ScenarioSpec.doc)")
    list_sc.set_defaults(func=cmd_list_scenarios)

    run_p = sub.add_parser(
        "run", help="run one scenario through the build_run pipeline"
    )
    run_p.add_argument("name", help="scenario name (see `list-scenarios`)")
    run_p.add_argument("--scale", type=float, default=0.25,
                       help="workload scale factor (default 0.25)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--replicas", type=int, default=None,
                       help="override replica count (>1 builds a cluster)")
    run_p.add_argument("--router", choices=sorted(ROUTERS), default=None,
                       help="override the cluster routing policy")
    run_p.add_argument("--system", default=None,
                       help="override the evaluated system/scheduler")
    run_p.add_argument("--shards", type=int, default=None,
                       help="shards for cluster runs (>1 partitions the "
                            "replicas across shard worker processes, 1 "
                            "runs inline; reports stay bit-identical)")
    run_p.add_argument("--horizon", type=float, default=None,
                       help="override the simulation safety horizon (s)")
    run_p.add_argument("--stream", action="store_true",
                       help="drive arrivals through the streaming plane "
                            "(feed(stream); event-for-event identical to "
                            "submission — stream-native scenarios like the "
                            "soaks use it automatically)")
    run_p.add_argument("--out", default=None, metavar="PATH",
                       help="also write the run report as diffable JSON "
                            "(aggregates + executor/kv/scheduler stats, "
                            "mirroring `repro profile --json`)")
    run_p.set_defaults(func=cmd_run)

    matrix_p = sub.add_parser(
        "matrix",
        help="run a scenario matrix (scenarios x routers x replicas x "
             "seeds) across worker processes",
    )
    matrix_p.add_argument(
        "scenarios", nargs="*",
        help="scenario names (default: every registered scenario)",
    )
    matrix_p.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: CPU count)")
    matrix_p.add_argument("--routers", nargs="+", choices=sorted(ROUTERS),
                          default=None,
                          help="router axis (default: scenario defaults)")
    matrix_p.add_argument("--replicas", type=int, nargs="+", default=None,
                          help="replica-count axis (default: scenario defaults)")
    matrix_p.add_argument("--seeds", type=int, nargs="+", default=None,
                          help="seed axis (default: 0)")
    matrix_p.add_argument("--systems", nargs="+", default=None,
                          help="system/scheduler axis (default: scenario "
                               "defaults)")
    matrix_p.add_argument("--shards", type=int, nargs="+", default=None,
                          help="shard-count axis for cluster cells "
                               "(default: scenario defaults, i.e. "
                               "single-process)")
    matrix_p.add_argument("--scale", type=float, default=0.25,
                          help="workload scale factor (default 0.25)")
    matrix_p.add_argument("--timeout", type=float, default=None,
                          help="per-job run-time deadline in seconds "
                               "(measured from job start; forces pool "
                               "execution)")
    matrix_p.add_argument("--retries", type=int, default=0,
                          help="resubmissions per failing job (default 0)")
    matrix_p.add_argument("--no-cache", action="store_true",
                          help="always re-run cells (skip the result cache)")
    matrix_p.add_argument("--out", default=None,
                          help="directory for matrix_report.{md,json}")
    matrix_p.add_argument("--list", action="store_true",
                          help="print the expanded cells without running")
    matrix_p.set_defaults(func=cmd_matrix)

    selftest_p = sub.add_parser(
        "selftest", help="run the tier-1 CI flow (scripts/ci.sh)"
    )
    selftest_p.add_argument("--fast", action="store_true",
                            help="fast lane: skip slow-marked suites")
    selftest_p.set_defaults(func=cmd_selftest)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", help="experiment id (see `list`)")
    exp.add_argument("--scale", type=float, default=0.25,
                     help="workload scale factor (default 0.25)")
    exp.add_argument("--jobs", type=int, default=1,
                     help="worker processes for sweep experiments "
                          "(fig20/fig22/fig23)")
    exp.set_defaults(func=cmd_experiment)

    cmp_ = sub.add_parser("compare", help="run an ad-hoc comparison")
    cmp_.add_argument("--systems", nargs="+", default=list(SYSTEM_NAMES))
    cmp_.add_argument("--arrival", choices=("burst", "poisson"), default="burst")
    cmp_.add_argument("--n-requests", type=int, default=120)
    cmp_.add_argument("--poisson-rate", type=float, default=2.0)
    cmp_.add_argument("--duration", type=float, default=60.0)
    cmp_.add_argument("--rate", type=float, default=10.0)
    cmp_.add_argument("--hardware", default="h200")
    cmp_.add_argument("--model", default="llama3-8b")
    cmp_.add_argument("--mem-frac", type=float, default=0.1)
    cmp_.add_argument("--max-batch", type=int, default=48)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.set_defaults(func=cmd_compare)

    prof = sub.add_parser(
        "profile", help="profile one Table 1 cell (hot-spot report)"
    )
    prof.add_argument("--gpu", default="h200", help="Table 1 GPU (h200/rtx4090)")
    prof.add_argument("--setup", default="a", help="Table 1 setup key (a-d)")
    prof.add_argument("--system", default="tokenflow")
    prof.add_argument("--scale", type=float, default=0.25,
                      help="workload scale factor (default 0.25)")
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--top", type=int, default=20,
                      help="hot spots to print (default 20)")
    prof.add_argument("--json", default=None, metavar="PATH",
                      help="also write the report (tottime + cumulative "
                           "tables) as JSON — a diffable CI artifact")
    prof.add_argument("--by-subsystem", action="store_true",
                      help="also print exclusive time per subsystem "
                           "(executor/buffer/tracker/kv/...)")
    prof.set_defaults(func=cmd_profile)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
