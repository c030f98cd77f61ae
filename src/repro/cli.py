"""``timerstudy`` command-line interface.

Subcommands::

    timerstudy run linux idle --minutes 5 --out idle.jsonl.gz
    timerstudy run linux idle --minutes 30 --stream   # bounded memory
    timerstudy analyze idle.jsonl.gz [--filter-x]
    timerstudy study --minutes 2          # the whole paper, condensed
    timerstudy sec51 --conditions lan,wan --policies fixed-30,p2-99
    timerstudy browse --unreachable       # the Section 2.2.2 scenario
    timerstudy serve --backend linux --workload portable --port 8900

``run`` executes a workload on the simulated machine and writes the
trace; ``analyze`` reproduces the paper's analyses on a saved trace;
``study`` runs everything end to end and prints each table/figure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .kern import backend_names, backend_traits
from .sim.clock import MINUTE, SECOND, millis
from .core import (pattern_breakdown, rate_series, render_rates,
                   summarize, summary_table)
from .core.report import render_analysis
from .core.streaming import ProgressSink, StreamingSuite
from .tracing import TraceFormatError, open_trace, write_trace
from .workloads import (WORKLOADS, browse, browse_adaptive,
                        list_workloads, run_cluster_workload,
                        run_study_traces, run_workload)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})")
    return value


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="parallel simulation processes (default: one per CPU; "
             "1 = serial; output is identical either way)")


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--hosts", type=_positive_int, default=1, metavar="N",
        help="simulate an N-host cluster on one shared clock "
             "(default 1 = a standalone machine, byte-identical to "
             "the pre-cluster behaviour; multi-host runs need a scene "
             "workload: idle, webserver, serverfarm)")
    parser.add_argument(
        "--cpus", type=_positive_int, default=1, metavar="M",
        help="stamp the v3 trace cpu column of cluster members with "
             "M CPUs (needs --hosts > 1; Linux's per-CPU timer bases "
             "are a separate kernel model)")


def _cluster_args_error(args: argparse.Namespace) -> bool:
    """Refuse ``--cpus > 1`` without ``--hosts > 1``: the cpu column
    exists only on cluster traces, so it would silently do nothing.
    Prints the diagnostic and returns True when the caller should
    exit 2."""
    if args.cpus > 1 and args.hosts <= 1:
        print("error: --cpus sets the trace cpu column of cluster "
              "members; it needs --hosts > 1", file=sys.stderr)
        return True
    return False


def _add_metrics_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect simulator metrics and print the Prometheus text "
             "exposition to stderr (stdout stays byte-identical)")
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the exposition to FILE instead (implies --metrics)")


def _metrics_enabled(args: argparse.Namespace) -> bool:
    return bool(args.metrics or args.metrics_out)


def _emit_metrics(snapshot, args: argparse.Namespace) -> int:
    """Render the exposition to stderr or --metrics-out.  Returns an
    exit code: 0, or 2 when the output path is unwritable (missing
    parents are created first — pointing --metrics-out into a fresh
    results directory must not traceback)."""
    text = snapshot.render()
    if args.metrics_out:
        try:
            parent = os.path.dirname(os.path.abspath(args.metrics_out))
            os.makedirs(parent, exist_ok=True)
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: cannot write metrics to "
                  f"{args.metrics_out}: {err}", file=sys.stderr)
            return 2
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    else:
        print(text, end="", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if _cluster_args_error(args):
        return 2
    if args.stream and args.out is not None:
        print("error: --stream analyzes in flight and writes no trace "
              "file; --out conflicts with it", file=sys.stderr)
        return 2
    if args.stream and args.hosts > 1:
        print("error: --stream runs one machine; use --hosts 1 or "
              "drop --stream for a cluster trace", file=sys.stderr)
        return 2
    duration = int(args.minutes * MINUTE)
    if args.hosts > 1:
        return _run_cluster(args, duration)
    mode = "streaming " if args.stream else ""
    print(f"{mode}running {args.os}/{args.workload} for "
          f"{args.minutes:g} virtual minutes (seed {args.seed})...",
          file=sys.stderr)
    return _run_single(args, duration)


def _run_cluster(args: argparse.Namespace, duration: int) -> int:
    print(f"running {args.os}/{args.workload} on {args.hosts} hosts "
          f"x {args.cpus} CPUs for {args.minutes:g} virtual minutes "
          f"(seed {args.seed})...", file=sys.stderr)
    run = run_cluster_workload(args.os, args.workload, duration,
                               hosts=args.hosts, cpus=args.cpus,
                               seed=args.seed)
    out = args.out if args.out is not None else "trace.jsonl.gz"
    write_trace(run.trace, out)
    print(f"{len(run.trace.events)} events across {run.hosts} hosts "
          f"-> {out}", file=sys.stderr)
    if _metrics_enabled(args):
        return _emit_metrics(run.metrics(), args)
    return 0


def _run_single(args: argparse.Namespace, duration: int) -> int:
    if args.stream:
        # Bounded-memory path: events flow through the incremental
        # reducers as the kernel emits them; nothing is buffered, so
        # there is no trace to save.
        suite = StreamingSuite(args.os, args.workload)
        progress = ProgressSink(label=f"{args.os}/{args.workload}: ")
        run = run_workload(args.os, args.workload, duration,
                           seed=args.seed, sinks=[suite, progress],
                           retain_events=False)
        progress.finish(run.trace.duration_ns)
        suite.finish(run.trace.duration_ns)
        print(f"{suite.n_events} events analyzed in flight "
              f"(peak aggregation state {suite.peak_state} entries); "
              f"no trace file written", file=sys.stderr)
        print(render_analysis(suite), end="")
        if _metrics_enabled(args):
            return _emit_metrics(run.metrics(), args)
        return 0
    run = run_workload(args.os, args.workload, duration, seed=args.seed)
    out = args.out if args.out is not None else "trace.jsonl.gz"
    write_trace(run.trace, out)
    print(f"{len(run.trace)} events -> {out}", file=sys.stderr)
    if _metrics_enabled(args):
        return _emit_metrics(run.metrics(), args)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    # open_trace sniffs the format; a v2 file arrives as a zero-copy
    # columnar view that every analysis accepts directly.
    source = open_trace(args.trace)
    if args.jobs is not None and args.jobs > 1:
        from .core.shard import sharded_analysis
        print(sharded_analysis(source, jobs=args.jobs,
                               filter_x=args.filter_x), end="")
        return 0
    print(render_analysis(source, filter_x=args.filter_x), end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .core.compare import (class_shift, compare_summaries,
                               trace_value_distance)
    trace_a = open_trace(args.a)
    trace_b = open_trace(args.b)
    print("=== Summary comparison ===")
    print(compare_summaries(trace_a, trace_b).render())
    print("\n=== Usage-pattern shift (Figure 2 classes) ===")
    print(class_shift(trace_a, trace_b).render())
    distance = trace_value_distance(trace_a, trace_b)
    print(f"\nvalue-distribution distance: {distance:.3f} "
          "(0 = identical, 1 = disjoint)")
    return 0


STUDY_WORKLOADS = ("idle", "skype", "firefox", "webserver")


def study_backends() -> list:
    """Registered backends that can run the paper's four workloads."""
    return [os_name for os_name in backend_names()
            if all((os_name, workload) in WORKLOADS
                   for workload in STUDY_WORKLOADS)]


def _cmd_study(args: argparse.Namespace) -> int:
    if _cluster_args_error(args):
        return 2
    duration = int(args.minutes * MINUTE)
    # All nine simulations (4 workloads x each study backend + the
    # Figure 1 desktop) are independent; run them through the parallel
    # driver, then render in the fixed order so stdout is
    # byte-identical for a given seed regardless of --jobs.
    backends = study_backends()
    order = [(os_name, workload) for os_name in backends
             for workload in STUDY_WORKLOADS] + [("vista", "desktop")]
    for os_name, workload in order:
        print(f"tracing {os_name}/{workload}...", file=sys.stderr)
    jobs = [(os_name, workload,
             None if workload == "desktop" else duration, args.seed)
            for os_name, workload in order]
    cluster_backends = backends if args.hosts > 1 else []
    for os_name in cluster_backends:
        print(f"tracing {os_name}/serverfarm on {args.hosts} hosts...",
              file=sys.stderr)
        jobs.append((os_name, "serverfarm", duration, args.seed,
                     args.hosts, args.cpus))
    collect = _metrics_enabled(args)
    results = run_study_traces(jobs, processes=args.jobs,
                               collect_metrics=collect)
    cluster_results = []
    if cluster_backends:
        split = len(results) - len(cluster_backends)
        results, cluster_results = results[:split], results[split:]
    code = 0
    if collect:
        from .obs import MetricsSnapshot
        traces = dict(zip(order, (trace for trace, _ in results)))
        code = _emit_metrics(MetricsSnapshot.merge(
            snapshot for _, snapshot in results + cluster_results), args)
        cluster_results = [trace for trace, _ in cluster_results]
    else:
        traces = dict(zip(order, results))

    for os_name in backends:
        table = backend_traits(os_name).table_label
        summaries = []
        for workload in STUDY_WORKLOADS:
            trace = traces[(os_name, workload)]
            summaries.append(summarize(trace))
            if os_name == "linux":
                # Figure 2 is a Linux-only artefact of the paper.
                breakdown = pattern_breakdown(trace)
                row = "  ".join(f"{k}={v:4.1f}" for k, v in
                                breakdown.figure2_row().items())
                print(f"  Fig2 {workload:<10} {row}")
        print(f"\n=== {table}: {os_name} ===")
        print(summary_table(summaries))
        print()
    print("=== Figure 1: Vista desktop set rates ===")
    print(render_rates(rate_series(traces[("vista", "desktop")]),
                       groups=["Outlook", "Browser", "System",
                               "Kernel"], max_rows=10))
    if cluster_backends:
        from .core.report import host_rollup
        for os_name, trace in zip(cluster_backends, cluster_results):
            print(f"\n=== Cluster serverfarm: {os_name}, "
                  f"{args.hosts} hosts x {args.cpus} CPUs ===")
            print(host_rollup(trace))
    return code


def _split_names(text):
    """Comma-separated CLI list -> tuple, or None for 'use defaults'."""
    if text is None:
        return None
    names = tuple(part.strip() for part in text.split(",")
                  if part.strip())
    return names or None


def _cmd_sec51(args: argparse.Namespace) -> int:
    from .core.report import render_sec51
    from .study import run_sec51_study

    if _cluster_args_error(args):
        return 2
    result = run_sec51_study(
        backends=_split_names(args.backends),
        conditions=_split_names(args.conditions),
        policies=_split_names(args.policies),
        minutes=args.minutes, seed=args.seed,
        connections=args.connections, hosts=args.hosts,
        cpus=args.cpus, jobs=args.jobs, stream=args.stream,
        progress=lambda m: print(m, file=sys.stderr))
    print(render_sec51(result), end="")
    if _metrics_enabled(args):
        from .obs import collect_sec51
        return _emit_metrics(collect_sec51(result), args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .core.report import generate_report
    collect = _metrics_enabled(args)
    result = generate_report(minutes=args.minutes, seed=args.seed,
                             progress=lambda m: print(m, file=sys.stderr),
                             jobs=args.jobs, collect_metrics=collect)
    text, snapshot = result if collect else (result, None)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"report written to {args.out}", file=sys.stderr)
    if snapshot is not None:
        return _emit_metrics(snapshot, args)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import profile
    duration = int(args.minutes * MINUTE)
    print(f"running {args.os}/{args.workload} for {args.minutes:g} "
          f"virtual minutes (seed {args.seed})...", file=sys.stderr)
    if args.profile:
        with profile() as prof:
            run = run_workload(args.os, args.workload, duration,
                               seed=args.seed)
    else:
        run = run_workload(args.os, args.workload, duration,
                           seed=args.seed)
    snapshot = run.metrics()
    if args.format == "json":
        print(snapshot.to_json(indent=2))
    else:
        print(snapshot.render(), end="")
    if args.profile:
        print("\n# per-subsystem virtual-time profile")
        print(prof.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, ServeDaemon
    if _cluster_args_error(args):
        return 2
    config = ServeConfig(
        os_name=args.backend, workload=args.workload, seed=args.seed,
        hosts=args.hosts, cpus=args.cpus,
        host=args.host, port=args.port, speed=args.speed,
        tick_s=args.tick_ms / 1e3, interval_s=args.interval,
        opentsdb=args.opentsdb, duration_s=args.for_seconds)
    try:
        daemon = ServeDaemon(config)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2
    daemon.start()
    print(f"serving {args.backend}/{args.workload} telemetry on "
          f"http://{daemon.server.host}:{daemon.port}/metrics "
          f"(healthz, statusz, metrics.json; speed {args.speed:g}x"
          + (f", for {args.for_seconds:g}s" if args.for_seconds
             else "") + ")", file=sys.stderr)
    try:
        daemon.run()
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        daemon.close()
    print(f"served {daemon.cycles} collection cycles, "
          f"{daemon.virtual_ns / 1e9:.1f} virtual seconds, "
          f"{daemon.suite.n_events} events analyzed in flight",
          file=sys.stderr)
    return 0


def _cmd_browse(args: argparse.Namespace) -> int:
    runner = browse_adaptive if args.adaptive else browse
    result = runner(name_resolves=not args.typo,
                    server_reachable=not args.unreachable,
                    rtt_ns=millis(args.rtt_ms))
    print(f"outcome: {result.outcome} after "
          f"{result.elapsed_seconds:.2f}s")
    for ts, what in result.timeline:
        print(f"  {ts / SECOND:8.3f}s  {what}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timerstudy",
        description="Reproduction of '30 Seconds is Not Enough!' "
                    "(EuroSys 2008)")
    sub = parser.add_subparsers(dest="command", required=True)

    backends = backend_names()
    run_p = sub.add_parser("run", help="trace one workload")
    run_p.add_argument("os", choices=backends)
    run_p.add_argument("workload",
                       choices=sorted({workload for os_name in backends
                                       for workload
                                       in list_workloads(os_name)}))
    run_p.add_argument("--minutes", type=float, default=5.0)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default=None,
                       help="trace file (default trace.jsonl.gz; "
                            "conflicts with --stream)")
    run_p.add_argument("--stream", action="store_true",
                       help="analyze events in flight with bounded "
                            "memory; prints the analysis instead of "
                            "saving a trace")
    _add_cluster_args(run_p)
    _add_metrics_args(run_p)
    run_p.set_defaults(func=_cmd_run)

    mt_p = sub.add_parser(
        "metrics",
        help="run one workload and print its Prometheus exposition")
    mt_p.add_argument("os", help="backend name (see repro.kern)")
    mt_p.add_argument("workload")
    mt_p.add_argument("--minutes", type=float, default=1.0)
    mt_p.add_argument("--seed", type=int, default=0)
    mt_p.add_argument("--profile", action="store_true",
                      help="also attribute wall/virtual time per "
                           "subsystem")
    mt_p.add_argument("--format", choices=("prom", "json"),
                      default="prom",
                      help="Prometheus text exposition (default) or "
                           "machine-readable JSON")
    mt_p.set_defaults(func=_cmd_metrics)

    sv_p = sub.add_parser(
        "serve",
        help="long-running telemetry daemon: run a workload "
             "continuously and export live metrics")
    sv_p.add_argument("--backend", default="linux",
                      help="backend name (see repro.kern)")
    sv_p.add_argument("--workload", default="portable",
                      help="portable workload definition "
                           "(idle, webserver, portable)")
    sv_p.add_argument("--seed", type=int, default=0)
    _add_cluster_args(sv_p)
    sv_p.add_argument("--host", default="127.0.0.1")
    sv_p.add_argument("--port", type=int, default=8900,
                      help="HTTP port for /metrics, /healthz, "
                           "/statusz (0 = ephemeral)")
    sv_p.add_argument("--speed", type=float, default=1.0,
                      help="virtual seconds simulated per wall second")
    sv_p.add_argument("--tick-ms", type=float, default=250.0,
                      help="wall milliseconds per real-time slice")
    sv_p.add_argument("--interval", type=float, default=1.0,
                      help="default collector interval in seconds")
    sv_p.add_argument("--opentsdb", default=None, metavar="SINK",
                      help="emit OpenTSDB put lines: '-' for stdout "
                           "or HOST:PORT for a TSD socket")
    sv_p.add_argument("--for-seconds", type=float, default=None,
                      help="stop after N wall seconds (default: run "
                           "until interrupted)")
    sv_p.set_defaults(func=_cmd_serve)

    an_p = sub.add_parser("analyze", help="analyze a saved trace")
    an_p.add_argument("trace")
    an_p.add_argument("--filter-x", action="store_true",
                      help="drop X/icewm countdowns (Figure 5 style)")
    an_p.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="shard the per-timer analyses across N workers "
             "(1 = serial; output is identical either way)")
    an_p.set_defaults(func=_cmd_analyze)

    st_p = sub.add_parser("study", help="run the condensed full study")
    st_p.add_argument("--minutes", type=float, default=2.0)
    st_p.add_argument("--seed", type=int, default=0)
    _add_jobs_arg(st_p)
    _add_cluster_args(st_p)
    _add_metrics_args(st_p)
    st_p.set_defaults(func=_cmd_study)

    s51_p = sub.add_parser(
        "sec51",
        help="Section 5.1 study: adaptive vs fixed timeout policies "
             "over the serverfarm request population")
    s51_p.add_argument("--minutes", type=float, default=0.5,
                       help="serverfarm run length per backend "
                            "(default 0.5 virtual minutes)")
    s51_p.add_argument("--seed", type=int, default=0)
    s51_p.add_argument("--connections", type=_positive_int, default=250,
                       help="serverfarm connection population per host")
    s51_p.add_argument("--backends", default=None, metavar="A,B",
                       help="comma-separated backends (default: every "
                            "backend with a serverfarm workload)")
    s51_p.add_argument("--conditions", default=None, metavar="A,B",
                       help="comma-separated network conditions (see "
                            "repro.sim.netmodel; default: lan,"
                            "datacenter,wan,jittery,lossy-wan,"
                            "lan-wan-shift)")
    s51_p.add_argument("--policies", default=None, metavar="A,B",
                       help="comma-separated timeout policies "
                            "(default: fixed-5,fixed-15,fixed-30,"
                            "jacobson,p2-95,p2-99)")
    s51_p.add_argument("--stream", action="store_true",
                       help="harvest the population through the "
                            "bounded-memory streaming path (output is "
                            "byte-identical)")
    _add_jobs_arg(s51_p)
    _add_cluster_args(s51_p)
    _add_metrics_args(s51_p)
    s51_p.set_defaults(func=_cmd_sec51)

    cp_p = sub.add_parser("compare", help="compare two saved traces")
    cp_p.add_argument("a")
    cp_p.add_argument("b")
    cp_p.set_defaults(func=_cmd_compare)

    rp_p = sub.add_parser("report",
                          help="run the study and write a markdown report")
    rp_p.add_argument("--minutes", type=float, default=2.0)
    rp_p.add_argument("--seed", type=int, default=0)
    rp_p.add_argument("--out", default="report.md")
    _add_jobs_arg(rp_p)
    _add_metrics_args(rp_p)
    rp_p.set_defaults(func=_cmd_report)

    br_p = sub.add_parser("browse",
                          help="the Section 2.2.2 file-browser scenario")
    br_p.add_argument("--typo", action="store_true")
    br_p.add_argument("--unreachable", action="store_true")
    br_p.add_argument("--adaptive", action="store_true")
    br_p.add_argument("--rtt-ms", type=float, default=130.0)
    br_p.set_defaults(func=_cmd_browse)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TraceFormatError, FileNotFoundError, IsADirectoryError) as err:
        # Unreadable / corrupt / wrong-format trace files: a clean
        # diagnostic and exit code 2, not a traceback.
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyError as err:
        # Unknown backend/workload names raise KeyError with a message
        # listing the valid choices (see repro.workloads.run_workload).
        print(f"error: {err.args[0] if err.args else err}",
              file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into head/less which closed early: not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
