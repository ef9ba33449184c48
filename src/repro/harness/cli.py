"""Command-line interface: regenerate any paper table or figure.

Examples::

    flame-repro table1
    flame-repro figure15 --scale small
    flame-repro figure17 --scale tiny --benchmarks SGEMM,LUD,Triad
    python -m repro.harness all --scale small
"""

from __future__ import annotations

import argparse
import sys

from ..core.schemes import (RUNTIME_SCHEMES, campaign_schemes,
                            default_campaign_schemes,
                            runtime_scheme_by_name)
from ..errors import ConfigError
from . import experiments as exp
from . import reporting as rep
from .runner import Runner

EXPERIMENTS = ("table1", "figure12", "table2", "figure13", "figure15",
               "figure16", "figure17", "figure18", "figure19", "section4",
               "hwcost", "ablation", "campaign", "report", "worker",
               "trace", "schemes", "all")


def _benchmarks(args) -> tuple[str, ...]:
    if args.benchmarks:
        return tuple(args.benchmarks.split(","))
    return exp.ALL_BENCHMARKS


def _scheme_arg(value: str) -> str:
    """argparse type for a single scheme name: registry-validated so a
    typo fails at parse time, not mid-run."""
    name = value.strip()
    try:
        runtime_scheme_by_name(name)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def _scheme_list(value: str) -> tuple[str, ...]:
    """argparse type for ``--schemes``: splits, rejects empty/unknown/
    duplicate/compile-only names against the registry at parse time."""
    names = tuple(part.strip() for part in value.split(","))
    seen = set()
    for name in names:
        if not name:
            raise argparse.ArgumentTypeError(
                f"empty scheme name in {value!r}")
        try:
            scheme = runtime_scheme_by_name(name)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not scheme.campaign:
            raise argparse.ArgumentTypeError(
                f"scheme {name!r} is compile-only; campaign-runnable "
                f"schemes: {', '.join(campaign_schemes())}")
        if name in seen:
            raise argparse.ArgumentTypeError(f"duplicate scheme {name!r}")
        seen.add(name)
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="flame-repro",
        description="Regenerate the Flame paper's tables and figures.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "medium"))
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated subset (default: all 34)")
    parser.add_argument("--fresh", action="store_true",
                        help="ignore cached results (for campaigns: "
                             "discard the journal and start over)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel simulation processes")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top-20 "
                             "cumulative-time hot spots afterwards")
    parser.add_argument("--profile-out", default="",
                        help="also dump raw cProfile stats to this path "
                             "(pstats format, for snakeviz/pstats; "
                             "implies --profile)")
    trace = parser.add_argument_group(
        "trace", "cycle-level tracing options (experiment 'trace')")
    trace.add_argument("--scheme", default="flame", type=_scheme_arg,
                       help="scheme to trace, validated against the "
                            "registry (default: flame)")
    trace.add_argument("--scheduler", default="GTO",
                       help="warp scheduler to trace under")
    trace.add_argument("--trace-out", default="",
                       help="write Chrome-trace/Perfetto JSON here")
    trace.add_argument("--trace-jsonl", default="",
                       help="write the compact per-event JSONL here")
    trace.add_argument("--stall-report", action="store_true",
                       help="print the stall-cause breakdown table")
    trace.add_argument("--no-inject", action="store_true",
                       help="trace a clean run (no mid-kernel strike)")
    trace.add_argument("--trace-capacity", type=int, default=1 << 20,
                       help="tracer ring-buffer capacity in events; "
                            "oldest events drop beyond it (the drop "
                            "count is reported)")
    campaign = parser.add_argument_group(
        "campaign", "Monte Carlo fault-injection campaign options")
    campaign.add_argument("--trials", type=int, default=200,
                          help="trials per (workload, scheme) cell")
    campaign.add_argument("--schemes", type=_scheme_list,
                          default=default_campaign_schemes(),
                          help="comma-separated schemes to campaign over, "
                               "validated against the registry (default: "
                               f"{','.join(default_campaign_schemes())}; "
                               "see the 'schemes' subcommand)")
    campaign.add_argument("--seed", type=int, default=0,
                          help="campaign master seed")
    campaign.add_argument("--wcdl", type=int, default=20,
                          help="worst-case detection latency in cycles")
    campaign.add_argument("--sites", default="dest_reg",
                          help="comma-separated fault sites to sweep "
                               "('all' = every registered site)")
    campaign.add_argument("--sensor-miss", type=float, default=0.0,
                          help="per-strike sensor miss probability")
    campaign.add_argument("--sensor-jitter", type=int, default=0,
                          help="extra detection-latency jitter in cycles "
                               "(beyond the WCDL bound)")
    campaign.add_argument("--sanitize", action="store_true",
                          help="attach the per-cycle architectural "
                               "sanitizer (violations classify as "
                               "DUE-crash)")
    campaign.add_argument("--no-harden-rpt", action="store_true",
                          help="expose the Recovery PC Table to strikes")
    campaign.add_argument("--no-harden-rbq", action="store_true",
                          help="expose the RBQ conveyor to strikes")
    campaign.add_argument("--trial-timeout", type=float, default=120.0,
                          help="per-trial wall-clock budget in seconds "
                               "(0 disables)")
    campaign.add_argument("--journal", default="",
                          help="campaign journal path (default: derived "
                               "from the spec under the cache dir); "
                               "rerunning with the same journal resumes")
    campaign.add_argument("--no-checkpoint", action="store_true",
                          help="disable checkpoint acceleration and "
                               "simulate every trial from cycle 0 to "
                               "natural completion (results are "
                               "byte-identical either way)")
    campaign.add_argument("--checkpoint-interval", type=int, default=0,
                          help="golden checkpoint spacing in cycles "
                               "(0 = adaptive, ~64 evenly spaced)")
    campaign.add_argument("--golden-cache", type=int, default=0,
                          help="per-process golden-run LRU entries "
                               "(0 = default 8); checkpoints are "
                               "evicted with their entry")
    campaign.add_argument("--aggregate-json", default="",
                          help="also write per-cell aggregates to this "
                               "path as canonical JSON (diff-able "
                               "across runs)")
    campaign.add_argument("--metrics-json", default="",
                          help="append periodic campaign telemetry "
                               "heartbeats (JSONL) to this path")
    campaign.add_argument("--live", action="store_true",
                          help="render a live terminal dashboard "
                               "(progress, trials/sec sparkline, "
                               "per-cell Wilson CIs, stall bars, shard "
                               "lease board) on every heartbeat tick")
    campaign.add_argument("--metrics-prom", default="",
                          help="write the final metrics snapshot in "
                               "Prometheus text exposition format to "
                               "this path (validated before writing); "
                               "for 'report': read a snapshot from "
                               "this path instead")
    campaign.add_argument("--report", dest="report_html", default="",
                          help="write a self-contained HTML campaign "
                               "report here (a markdown twin lands "
                               "next to it with the .md suffix)")
    service = parser.add_argument_group(
        "service", "distributed campaign service (sharded coordinator "
                   "+ worker backends)")
    service.add_argument("--backend", default="pool",
                         choices=("pool", "inline", "subprocess", "http"),
                         help="campaign execution backend: 'pool' is the "
                              "classic single-host worker pool; the rest "
                              "run the sharded coordinator service "
                              "(default: pool, or subprocess when "
                              "--shards is given)")
    service.add_argument("--shards", type=int, default=0,
                         help="split the campaign into this many seeded "
                              "trial shards (0 = one per worker); "
                              "implies --backend subprocess unless a "
                              "backend is named")
    service.add_argument("--shard-dir", default="",
                         help="directory for shard + coordinator "
                              "journals (default: <journal>.shards)")
    service.add_argument("--fsync-interval", type=int, default=1,
                         help="fsync shard journals every N appended "
                              "trials (a SIGKILL loses at most this "
                              "window; default 1 = every trial)")
    service.add_argument("--lease-ttl", type=float, default=600.0,
                         help="shard lease time-to-live in seconds")
    service.add_argument("--heartbeat-timeout", type=float, default=30.0,
                         help="requeue a shard whose worker missed "
                              "heartbeats for this long")
    service.add_argument("--shard-fail-limit", type=int, default=3,
                         help="quarantine a shard after this many failed "
                              "leases (its unmeasured trials degrade to "
                              "infra_error)")
    service.add_argument("--max-worker-restarts", type=int, default=16,
                         help="http backend: respawn budget for dead "
                              "workers before abandoning pending shards")
    service.add_argument("--http-port", type=int, default=0,
                         help="http backend: bind the coordinator API "
                              "(and its /v1/metrics exposition) to this "
                              "port (0 = ephemeral)")
    worker = parser.add_argument_group(
        "worker", "shard worker options (experiment 'worker')")
    worker.add_argument("--shard-json", default="",
                        help="one-shot mode: run the shard assignment "
                             "serialized at this path, then exit")
    worker.add_argument("--coordinator", default="",
                        help="polling mode: lease shards from this "
                             "coordinator URL until the campaign "
                             "finishes")
    worker.add_argument("--worker-id", default="",
                        help="stable worker identity (default: pid-<n>)")
    worker.add_argument("--poll-interval", type=float, default=0.5,
                        help="seconds between lease polls when idle")
    worker.add_argument("--heartbeat-interval", type=float, default=1.0,
                        help="seconds between worker liveness beats")
    args = parser.parse_args(argv)

    if args.profile or args.profile_out:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            status = _run(args)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative")
            print("\n=== cProfile: top 20 by cumulative time ===",
                  file=sys.stderr)
            stats.print_stats(20)
            if args.profile_out:
                stats.dump_stats(args.profile_out)
                print(f"raw profile written to {args.profile_out}",
                      file=sys.stderr)
        return status
    return _run(args)


def _run(args: argparse.Namespace) -> int:
    if args.experiment == "worker":
        import os

        if bool(args.shard_json) == bool(args.coordinator):
            print("worker needs exactly one of --shard-json (one-shot) "
                  "or --coordinator (polling)", file=sys.stderr)
            return 2
        worker_id = args.worker_id or f"pid-{os.getpid()}"
        if args.coordinator:
            from ..service.api import run_polling_worker

            return run_polling_worker(
                args.coordinator, worker_id,
                poll_interval_s=args.poll_interval,
                heartbeat_interval_s=args.heartbeat_interval,
                fsync_interval=args.fsync_interval)
        from ..service.worker import (ShardAssignment, run_shard,
                                      shard_complete)

        assignment = ShardAssignment.load(args.shard_json)
        heartbeat = None
        if assignment.heartbeat_path:
            from ..obs import CampaignHeartbeat

            heartbeat = CampaignHeartbeat(
                assignment.heartbeat_path, assignment.shard.trials,
                interval=assignment.heartbeat_interval_s,
                shard_id=assignment.shard.shard_id,
                worker_id=worker_id).start()
        try:
            run_shard(assignment, heartbeat=heartbeat)
        finally:
            if heartbeat is not None:
                heartbeat.stop()
        return 0 if shard_complete(assignment) else 3

    if args.experiment == "schemes":
        rows = []
        for scheme in RUNTIME_SCHEMES.values():
            rows.append([
                scheme.name,
                scheme.compile_scheme,
                "yes" if scheme.campaign else "no",
                "yes" if scheme.detects else "no",
                ",".join(scheme.workloads) if scheme.workloads else "any",
                scheme.description,
            ])
        print(rep.render_table(
            ["scheme", "compile scheme", "campaign", "detects",
             "workloads", "description"],
            rows, title="Registered resilience schemes"))
        return 0

    if args.experiment == "trace":
        from ..obs import write_chrome_trace, write_jsonl
        from .trace import run_traced

        workload = (args.benchmarks.split(",")[0]
                    if args.benchmarks else "SGEMM")
        traced = run_traced(
            workload, scheme=args.scheme, scheduler=args.scheduler,
            scale=args.scale, wcdl=args.wcdl, seed=args.seed,
            inject=not args.no_inject, capacity=args.trace_capacity)
        # Every requested file is on disk before the first line prints,
        # so a reader that closes stdout early cannot cost one.
        if args.trace_out:
            write_chrome_trace(traced.tracer, args.trace_out,
                               workload=traced.workload)
        if args.trace_jsonl:
            count = write_jsonl(traced.tracer, args.trace_jsonl)
        line = (f"traced {traced.workload}/{traced.scheme}/"
                f"{traced.scheduler} scale={traced.scale}: "
                f"{traced.cycles} cycles, "
                f"{traced.tracer.emitted} events emitted "
                f"({traced.tracer.dropped} dropped), "
                f"verified={traced.verified}")
        if traced.strike_cycle is not None:
            line += f", strike@{traced.strike_cycle}"
        print(line)
        if traced.tracer.dropped:
            print(f"warning: trace ring buffer dropped "
                  f"{traced.tracer.dropped} events — the exported trace "
                  f"is partial; raise the tracer capacity to keep them "
                  f"all", file=sys.stderr)
        if args.trace_out:
            print(f"chrome trace written to {args.trace_out} "
                  f"(load in https://ui.perfetto.dev)")
        if args.trace_jsonl:
            print(f"{count} events written to {args.trace_jsonl}")
        if args.stall_report:
            print()
            print(rep.render_stall_breakdown(
                traced.stats,
                title=(f"Stall-cause breakdown: {traced.workload}/"
                       f"{traced.scheme}/{traced.scheduler} "
                       f"(scale={traced.scale})"),
                dropped_events=traced.tracer.dropped))
        return 0

    if args.experiment == "report":
        from .report import (load_prom_snapshot, report_from_journal,
                             write_campaign_report)

        if not args.journal:
            print("report needs --journal (a merged campaign journal; "
                  "its header carries the spec)", file=sys.stderr)
            return 2
        report = report_from_journal(args.journal)
        families = (load_prom_snapshot(args.metrics_prom)
                    if args.metrics_prom else None)
        html_path = args.report_html or args.journal + ".report.html"
        md_path = html_path.rsplit(".html", 1)[0] + ".md" \
            if html_path.endswith(".html") else html_path + ".md"
        for path in write_campaign_report(report, html_path,
                                          md_path=md_path,
                                          families=families):
            print(f"report written to {path}")
        if not args.metrics_prom:
            print("note: no --metrics-prom snapshot given; "
                  "metric-derived sections are marked unavailable",
                  file=sys.stderr)
        return 0

    if args.experiment == "campaign":
        import os

        from ..core.injection import ALL_FAULT_SITES

        if args.golden_cache:
            os.environ["REPRO_GOLDEN_CACHE"] = str(args.golden_cache)
        benches = (tuple(args.benchmarks.split(","))
                   if args.benchmarks else exp.CAMPAIGN_BENCHMARKS)
        sites = (ALL_FAULT_SITES if args.sites == "all"
                 else tuple(args.sites.split(",")))
        backend = args.backend
        if backend == "pool" and args.shards:
            backend = "subprocess"
        registry = None
        on_snapshot = None
        if args.live or args.metrics_prom or args.report_html:
            from ..obs import MetricsRegistry

            registry = MetricsRegistry()
        if args.live:
            from .dashboard import LiveDashboard

            on_snapshot = LiveDashboard(registry=registry).on_snapshot
        report = exp.fault_coverage(
            scale=args.scale, benchmarks=benches,
            schemes=tuple(args.schemes), trials=args.trials,
            seed=args.seed, wcdl=args.wcdl, sites=sites,
            sensor_miss_probability=args.sensor_miss,
            sensor_jitter_cycles=args.sensor_jitter,
            sanitize=args.sanitize,
            harden_rpt=not args.no_harden_rpt,
            harden_rbq=not args.no_harden_rbq,
            timeout_s=args.trial_timeout,
            workers=args.workers, journal_path=args.journal or None,
            fresh=args.fresh, progress=True,
            checkpoint=not args.no_checkpoint,
            checkpoint_interval=args.checkpoint_interval,
            metrics_path=args.metrics_json or None,
            registry=registry, on_snapshot=on_snapshot,
            backend=backend, shards=args.shards,
            shard_dir=args.shard_dir or None,
            fsync_interval=args.fsync_interval,
            lease_ttl_s=args.lease_ttl,
            heartbeat_timeout_s=args.heartbeat_timeout,
            fail_limit=args.shard_fail_limit,
            max_worker_restarts=args.max_worker_restarts,
            http_port=args.http_port)
        if args.aggregate_json:
            from .campaign import write_aggregates

            write_aggregates(report, args.aggregate_json)
        if args.metrics_prom:
            from ..obs import render_prom, validate_prom_text

            text = render_prom(registry)
            problems = validate_prom_text(text)
            with open(args.metrics_prom, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"metrics snapshot written to {args.metrics_prom}")
            if problems:  # never expected; loud beats silent corruption
                print("warning: metrics snapshot failed validation: "
                      + "; ".join(problems), file=sys.stderr)
        if args.report_html:
            from .report import write_campaign_report

            md_path = (args.report_html.rsplit(".html", 1)[0] + ".md"
                       if args.report_html.endswith(".html")
                       else args.report_html + ".md")
            for path in write_campaign_report(report, args.report_html,
                                              md_path=md_path,
                                              registry=registry):
                print(f"report written to {path}")
        print(rep.render_campaign(report))
        return 0

    runner = Runner(fresh=args.fresh, workers=args.workers)
    benches = _benchmarks(args)
    name = args.experiment
    out: list[str] = []

    if name in ("table1", "all"):
        out.append(rep.render_table1(exp.table1()))
    if name in ("figure12", "all"):
        counts = (50, 75, 100, 125, 150, 175, 200, 225, 250, 275, 300)
        out.append(rep.render_figure12(exp.figure12(counts), counts))
    if name in ("table2", "all"):
        out.append(rep.render_table2(exp.table2()))
    if name in ("figure13", "all"):
        study = exp.figure13_14(args.scale, benchmarks=benches,
                                runner=runner, progress=True)
        out.append(rep.render_figure13_14(study))
        out.append(rep.render_figure15(study.geomeans()))
    elif name == "figure15":
        study = exp.figure13_14(args.scale, benchmarks=benches,
                                runner=runner, progress=True)
        out.append(rep.render_figure15(study.geomeans()))
    if name in ("figure16", "all"):
        out.append(rep.render_figure16(
            exp.figure16(args.scale, runner=runner, progress=True)))
    if name in ("figure17", "all"):
        out.append(rep.render_figure17(
            exp.figure17(args.scale, benchmarks=benches, runner=runner,
                         progress=True)))
    if name in ("figure18", "all"):
        out.append(rep.render_figure18(
            exp.figure18(args.scale, benchmarks=benches, runner=runner,
                         progress=True)))
    if name in ("figure19", "all"):
        out.append(rep.render_figure19(
            exp.figure19(args.scale, benchmarks=benches, runner=runner,
                         progress=True)))
    if name in ("section4", "all"):
        out.append(rep.render_section4(
            exp.section4(args.scale, benchmarks=benches, runner=runner)))
    if name in ("hwcost", "all"):
        out.append(rep.render_hwcost(exp.hwcost()))
    if name == "ablation":
        from .ablations import render_ablation, run_ablation

        out.append(render_ablation(run_ablation(scale=args.scale)))

    print("\n\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
