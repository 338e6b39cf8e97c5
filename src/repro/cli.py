"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro.cli table1
    python -m repro.cli fig3 [--loads 0.01 0.05 ...] [--runs N]
    python -m repro.cli fig4
    python -m repro.cli fig5 [--loads 0.6] [--pm 25 50 65] [--windows N]
    python -m repro.cli fig6 [--loads 0.6] [--windows N]
    python -m repro.cli demo [--pm 60] [--load 0.6] [--seconds 6]

The global ``--check`` flag (before the subcommand) installs the runtime
invariant checker from :mod:`repro.checks.invariants` on every engine the
run builds; any broken engine contract aborts with a precise diagnostic.

Observability (``repro.obs``) flags, accepted by every subcommand:

``--metrics``
    attach a :class:`repro.obs.MetricsListener` to every engine the
    command builds (the process-wide shared registry accumulates across
    an experiment sweep's many runs) and print the snapshot at the end;
``--json OUT``
    write a :class:`repro.obs.RunManifest` to ``OUT``: seed, config,
    REPRO_SCALE, package version, wall-clock duration, the metric
    snapshot (with ``--metrics``) and the result rows;
``--profile``
    time the hot loop.  ``demo`` instruments its single engine with the
    per-phase :class:`repro.obs.profile.EngineProfiler`; sweep commands
    report overall wall-clock (plus slots/sec when ``--metrics`` is on);
``--jobs N``
    run independent trials on ``N`` worker processes (0 = all cores;
    defaults to ``REPRO_JOBS``, else serial).  Results — sweep points,
    metrics snapshots, manifests — are identical for any value; see
    :mod:`repro.experiments.parallel`.

``--trace OUT``
    switch on the deterministic slot-clocked span tracer
    (:mod:`repro.obs.trace`) and write the flight recorder's Chrome
    trace-event JSON to ``OUT`` (load it in Perfetto or
    ``chrome://tracing``); same-seed runs produce byte-identical traces
    and verdict streams are unchanged with tracing on;
``--metrics-out OUT``
    write the metric snapshot in Prometheus text exposition format to
    ``OUT`` (implies ``--metrics``).

``demo`` additionally accepts ``--audit OUT`` to export the detector's
decision audit log as JSONL, and ``--provenance OUT`` to export each
verdict's full evidence chain (:mod:`repro.obs.provenance`) as JSONL.

Everything still prints the same plain-text tables the benchmarks emit.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

#: argparse Namespace entries that are plumbing, not run configuration.
_INTERNAL_ARGS = frozenset(
    {
        "func",
        "command",
        "check",
        "metrics",
        "json_out",
        "profile",
        "audit_out",
        "trace_out",
        "metrics_out",
        "provenance_out",
        "results",
        "audit_records",
        "profile_report",
        # The worker count must never influence a run's outputs (the
        # parallel layer guarantees identical results for any jobs
        # value), so it is plumbing, not configuration: manifests stay
        # byte-identical regardless of --jobs.
        "jobs",
    }
)


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.config import TABLE1

    print(TABLE1.render())
    args.results = {"table1": TABLE1.render()}
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.experiments.fig3 import (
        DEFAULT_LOAD_SWEEP,
        render_points,
        run_fig3,
    )

    loads = tuple(args.loads) if args.loads else DEFAULT_LOAD_SWEEP
    kwargs = {"loads": loads}
    if args.runs:
        kwargs["runs"] = args.runs
    points = run_fig3(**kwargs)
    print(render_points("Figure 3: grid topology, Poisson traffic", points))
    args.results = {"points": points}
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.experiments.fig3 import DEFAULT_LOAD_SWEEP, render_points
    from repro.experiments.fig4 import run_fig4

    loads = tuple(args.loads) if args.loads else DEFAULT_LOAD_SWEEP
    kwargs = {"loads": loads}
    if args.runs:
        kwargs["runs"] = args.runs
    points = run_fig4(**kwargs)
    print(render_points("Figure 4: random topology, CBR traffic", points))
    args.results = {"points": points}
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments.fig5 import (
        DEFAULT_LOADS,
        DEFAULT_PM_SWEEP,
        render_curve,
        run_fig5_mobile,
        run_fig5_static,
    )

    loads = tuple(args.loads) if args.loads else DEFAULT_LOADS
    pm_values = tuple(args.pm) if args.pm else DEFAULT_PM_SWEEP
    kwargs = {"pm_values": pm_values}
    if args.windows:
        kwargs["windows"] = args.windows
    results = run_fig5_static(loads=loads, **kwargs)
    for load, points in results.items():
        print(render_curve(f"Figure 5: P(correct diagnosis), load={load}", points))
        print()
    args.results = {"static": results}
    if args.mobile:
        points = run_fig5_mobile(**kwargs)
        print(render_curve("Figure 5(d): mobile, load=0.6", points))
        args.results["mobile"] = points
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments.fig6 import (
        DEFAULT_LOADS,
        render_curves,
        run_fig6_mobile,
        run_fig6_static,
    )

    loads = tuple(args.loads) if args.loads else DEFAULT_LOADS
    kwargs = {}
    if args.windows:
        kwargs["windows"] = args.windows
    curves = run_fig6_static(loads=loads, **kwargs)
    print(render_curves("Figure 6(a): P(misdiagnosis), static grid", curves))
    args.results = {"static": curves}
    if args.mobile:
        points = run_fig6_mobile(**kwargs)
        print(render_curves("Figure 6(b): P(misdiagnosis), mobile", {0.6: points}))
        args.results["mobile"] = points
    return 0


def _cmd_faults_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.faults_sweep import (
        DEFAULT_DECODE_SWEEP,
        render_sweep,
        run_fault_sweep,
    )

    decode = tuple(args.decode) if args.decode else DEFAULT_DECODE_SWEEP
    kwargs = {"decode_probs": decode, "pm": args.pm, "load": args.load}
    if args.runs:
        kwargs["runs"] = args.runs
    points = run_fault_sweep(**kwargs)
    print(render_sweep(points))
    total_quarantined = sum(p.cheater_quarantined + p.honest_quarantined
                            for p in points)
    false_accusations = sum(p.false_accusations for p in points)
    print(
        f"quarantined observations: {total_quarantined}, "
        f"false accusations (honest, deterministic): {false_accusations}"
    )
    args.results = {"points": points}
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.analysis.latency import detection_latency
    from repro.analysis.summary import summarize_estimation
    from repro.core.detector import BackoffMisbehaviorDetector, DetectorConfig
    from repro.experiments.scenarios import GridScenario
    from repro.mac.misbehavior import PercentageMisbehavior
    from repro.obs.audit import DecisionAuditLog

    scenario = GridScenario(load=args.load, seed=args.seed)
    _sim, sender, _monitor = scenario.build()
    policies = {sender: PercentageMisbehavior(args.pm)} if args.pm else None
    sim, sender, monitor = scenario.build(policies=policies)
    audit = DecisionAuditLog()
    provenance = None
    if args.provenance_out:
        from repro.obs.provenance import ProvenanceLog

        provenance = ProvenanceLog()
    detector = BackoffMisbehaviorDetector(
        monitor,
        sender,
        config=DetectorConfig(sample_size=25, known_n=5, known_k=5),
        audit=audit,
        provenance=provenance,
    )
    sim.add_listener(detector)
    profiler = None
    if args.profile:
        from repro.obs.profile import EngineProfiler

        profiler = EngineProfiler()
        profiler.instrument(sim.engine)
    sim.run(args.seconds)
    if profiler is not None:
        args.profile_report = profiler.finish()

    summary = summarize_estimation(detector)
    latency = detection_latency(detector)
    print(f"samples: {summary.samples}, rho: {detector.rho:.2f}")
    print(
        f"mean dictated {summary.mean_dictated:.1f} vs estimated "
        f"{summary.mean_estimated:.1f} slots "
        f"(shift {summary.relative_shift:.2f})"
    )
    print(f"deterministic violations: {len(detector.violations)}")
    if latency.flagged:
        layer = "deterministic" if latency.deterministic_first else "statistical"
        print(
            f"flagged malicious after {latency.first_flag_seconds:.2f} s "
            f"({latency.samples_at_flag} samples) via the {layer} layer"
        )
    else:
        print("never flagged (as expected for an honest sender)")
    print(
        f"audit: {len(audit)} decisions "
        f"({audit.deterministic_count} deterministic, "
        f"{audit.statistical_count} statistical) "
        f"by rule {audit.counts_by_rule()}"
    )
    checker = sim.engine.invariant_checker
    if checker is not None:
        print(checker.summary())

    args.audit_records = [record.to_dict() for record in audit.records]
    args.results = {
        "samples": summary.samples,
        "mean_dictated": summary.mean_dictated,
        "mean_estimated": summary.mean_estimated,
        "relative_shift": summary.relative_shift,
        "violations": len(detector.violations),
        "flagged": latency.flagged,
        "verdicts": len(detector.verdicts),
    }
    if args.audit_out:
        path = audit.write_jsonl(args.audit_out)
        print(f"wrote audit log to {path}", file=sys.stderr)
    if provenance is not None:
        path = provenance.write_jsonl(args.provenance_out)
        print(
            f"wrote {len(provenance)} provenance records to {path}",
            file=sys.stderr,
        )
    return 0


def _parse_link(text: str):
    """``MONITOR:TAGGED`` -> (int, int), with a readable error."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"link must be MONITOR:TAGGED, got {text!r}"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"link ids must be integers, got {text!r}"
        ) from None


def _cmd_serve(args: argparse.Namespace) -> int:
    import contextlib
    import dataclasses

    from repro.core.detector import DetectorConfig
    from repro.serve import (
        ServeConfig,
        iter_file,
        iter_follow,
        iter_handle,
        iter_socket,
        run_serve,
    )
    from repro.serve.ingest import BoundedLineQueue

    detector = dataclasses.replace(
        DetectorConfig(sample_size=args.sample_size, known_n=5, known_k=5),
        warmup_slots=args.warmup,
    )
    config = ServeConfig(
        detector=detector,
        separation=args.separation,
        flush_every=args.flush_every,
        maintain_every=args.maintain_every,
        max_links=args.max_links,
        observation_retention=args.retention,
        discover=not args.no_discover,
    )
    queue = BoundedLineQueue(args.queue_cap)
    if args.follow:
        lines = iter_follow(args.follow, queue)
    elif args.socket:
        lines = iter_socket(args.socket, queue)
    elif args.input and args.input != "-":
        lines = iter_file(args.input)
    else:
        lines = iter_handle(sys.stdin)

    with contextlib.ExitStack() as stack:
        audit_sink = (
            stack.enter_context(open(args.audit_out, "w", encoding="utf-8"))
            if args.audit_out
            else None
        )
        provenance_sink = (
            stack.enter_context(
                open(args.provenance_out, "w", encoding="utf-8")
            )
            if args.provenance_out
            else None
        )
        # Live sources (tail, socket) cannot be replayed into forked
        # workers; they always run single-session.  Replay sources
        # honor --jobs / REPRO_JOBS through the pool's resolution.
        live = bool(args.follow or args.socket)
        result = run_serve(
            lines,
            config=config,
            links=args.links or (),
            jobs=1 if live else None,
            audit_sink=audit_sink,
            provenance_sink=provenance_sink,
        )

    summary = result.summary()
    print(
        f"links: {summary['links']} tracked, "
        f"{summary['evicted_links']} evicted"
    )
    print(
        f"events: {summary['events']} accepted "
        f"({result.stream_snapshot['counters'].get('serve.lines', 0)} lines, "
        f"{sum(summary['rejected'].values())} rejected), "
        f"queue drops: {queue.dropped}"
    )
    for reason, count in summary["rejected"].items():
        print(f"  rejected.{reason}: {count}")
    print(
        f"verdicts: {summary['verdicts']} "
        f"({summary['violations']} deterministic violations) over "
        f"{summary['observations']} observations in "
        f"{summary['flushes']} flushes"
    )
    if args.metrics:
        # Fold the session registries into the shared runtime registry
        # so the standard --metrics / --metrics-out tail sees them.
        from repro.obs.runtime import shared_registry

        registry = shared_registry()
        registry.merge_snapshot(result.stream_snapshot)
        registry.merge_snapshot(result.link_snapshot)
    args.results = dict(summary)
    args.results["queue_dropped"] = queue.dropped
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Detecting MAC Layer Back-off Timer "
        "Violations in Mobile Ad Hoc Networks' (ICDCS 2006)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="install the runtime invariant checker on every simulation "
        "engine (see repro.checks)",
    )
    # Observability flags, shared by every subcommand (repro.obs).
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument(
        "--metrics",
        action="store_true",
        help="collect engine/detector metrics into the shared registry "
        "and print the snapshot",
    )
    obs.add_argument(
        "--json",
        dest="json_out",
        metavar="OUT",
        default=None,
        help="write a machine-readable run manifest (seed, config, "
        "REPRO_SCALE, metrics, audit, results) to OUT",
    )
    obs.add_argument(
        "--trace",
        dest="trace_out",
        metavar="OUT",
        default=None,
        help="record a deterministic slot-clocked trace and write it as "
        "Chrome trace-event JSON (Perfetto-loadable) to OUT",
    )
    obs.add_argument(
        "--metrics-out",
        dest="metrics_out",
        metavar="OUT",
        default=None,
        help="write the metric snapshot in Prometheus text format to OUT "
        "(implies --metrics)",
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="measure slot throughput (wall clock; engine phase "
        "breakdown for `demo`)",
    )
    obs.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent trials (0 = all cores; "
        "default: REPRO_JOBS or serial); results are identical for "
        "any value",
    )
    obs.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject deterministic monitor-side link faults, e.g. "
        "'decode=0.3,corrupt=0.1,burst=0.2:3000,seed=7' (see "
        "repro.faults; default: REPRO_FAULTS or clean channels)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", parents=[obs], help="print Table 1")
    p1.set_defaults(func=_cmd_table1)

    for name, func in (("fig3", _cmd_fig3), ("fig4", _cmd_fig4)):
        p = sub.add_parser(
            name, parents=[obs], help=f"run the {name} probability sweep"
        )
        p.add_argument("--loads", nargs="*", type=float)
        p.add_argument("--runs", type=int)
        p.set_defaults(func=func)

    p5 = sub.add_parser("fig5", parents=[obs], help="detection probability curves")
    p5.add_argument("--loads", nargs="*", type=float)
    p5.add_argument("--pm", nargs="*", type=int)
    p5.add_argument("--windows", type=int)
    p5.add_argument("--mobile", action="store_true")
    p5.set_defaults(func=_cmd_fig5)

    p6 = sub.add_parser("fig6", parents=[obs], help="misdiagnosis curves")
    p6.add_argument("--loads", nargs="*", type=float)
    p6.add_argument("--windows", type=int)
    p6.add_argument("--mobile", action="store_true")
    p6.set_defaults(func=_cmd_fig6)

    pf = sub.add_parser(
        "faults-sweep",
        parents=[obs],
        help="detection vs. false accusation across impairment intensities",
    )
    pf.add_argument("--decode", nargs="*", type=float)
    pf.add_argument("--pm", type=int, default=60)
    pf.add_argument("--load", type=float, default=0.6)
    pf.add_argument("--runs", type=int)
    pf.set_defaults(func=_cmd_faults_sweep)

    demo = sub.add_parser(
        "demo", parents=[obs], help="one detection run with a summary"
    )
    demo.add_argument("--pm", type=int, default=60)
    demo.add_argument("--load", type=float, default=0.6)
    demo.add_argument("--seconds", type=float, default=6.0)
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument(
        "--audit",
        dest="audit_out",
        metavar="OUT",
        default=None,
        help="export the detector decision audit log as JSONL to OUT",
    )
    demo.add_argument(
        "--provenance",
        dest="provenance_out",
        metavar="OUT",
        default=None,
        help="export each verdict's evidence chain (observations, window "
        "bounds, rank-sum inputs, ARMA state) as JSONL to OUT",
    )
    demo.set_defaults(func=_cmd_demo)

    serve = sub.add_parser(
        "serve",
        parents=[obs],
        help="streaming detection-as-a-service: replay or follow an "
        "ObservedTransmission wire stream with bounded memory",
    )
    source = serve.add_mutually_exclusive_group()
    source.add_argument(
        "--input",
        metavar="PATH",
        default=None,
        help="read the stream from PATH once ('-' = stdin, the default)",
    )
    source.add_argument(
        "--follow",
        metavar="PATH",
        default=None,
        help="tail PATH: replay existing lines, then poll for appends "
        "until a shutdown record",
    )
    source.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="listen on a unix stream socket at PATH for one producer",
    )
    serve.add_argument(
        "--links",
        nargs="*",
        type=_parse_link,
        metavar="MONITOR:TAGGED",
        help="pre-register links (default: discover from decoded "
        "start records)",
    )
    serve.add_argument(
        "--no-discover",
        action="store_true",
        help="track only --links; ignore undeclared (monitor, sender) "
        "pairs",
    )
    serve.add_argument(
        "--max-links",
        type=int,
        default=None,
        metavar="N",
        help="cap tracked links across all workers (each of J workers "
        "tracks at most N // J; N must be >= J); least-recently-active "
        "links are evicted (default: unbounded)",
    )
    serve.add_argument(
        "--retention",
        type=int,
        default=None,
        metavar="N",
        help="retain at most N observations per link (provenance ids "
        "stay stable; default: keep all)",
    )
    serve.add_argument(
        "--flush-every",
        type=int,
        default=64,
        metavar="N",
        help="cap on end events between batched rank-sum flushes; "
        "a flush also comes one exchange of stream time after a verdict "
        "went pending (verdict-identical at any cadence; default: 64)",
    )
    serve.add_argument(
        "--maintain-every",
        type=int,
        default=4096,
        metavar="N",
        help="end events between timeline prune / demux compaction "
        "sweeps (0 = never; default: 4096)",
    )
    serve.add_argument(
        "--queue-cap",
        type=int,
        default=65536,
        metavar="N",
        help="bounded ingest staging queue (drop-oldest on overflow; "
        "default: 65536 lines)",
    )
    serve.add_argument(
        "--sample-size",
        type=int,
        default=25,
        metavar="N",
        help="rank-sum window size (default: 25)",
    )
    serve.add_argument(
        "--warmup",
        type=int,
        default=100_000,
        metavar="SLOTS",
        help="per-link estimator warm-up before sampling (default: "
        "100000 slots)",
    )
    serve.add_argument(
        "--separation",
        type=float,
        default=None,
        metavar="METERS",
        help="fixed monitor-tagged separation when the stream carries "
        "no positions records",
    )
    serve.add_argument(
        "--audit",
        dest="audit_out",
        metavar="OUT",
        default=None,
        help="stream the merged decision audit log as JSONL to OUT",
    )
    serve.add_argument(
        "--provenance",
        dest="provenance_out",
        metavar="OUT",
        default=None,
        help="stream each verdict's evidence chain as JSONL to OUT",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def _config_of(args: argparse.Namespace) -> dict:
    """The run's configuration: every non-plumbing parsed argument."""
    from repro.obs.manifest import to_jsonable

    return {
        key: to_jsonable(value)
        for key, value in sorted(vars(args).items())
        if key not in _INTERNAL_ARGS
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.check:
        from repro.checks import enable_runtime_checks

        enable_runtime_checks()

    if getattr(args, "jobs", None) is not None:
        from repro.util.pool import set_default_jobs

        set_default_jobs(args.jobs)

    if getattr(args, "faults", None) is not None:
        from repro.faults.runtime import set_fault_spec

        set_fault_spec(args.faults)

    if getattr(args, "metrics_out", None):
        args.metrics = True

    registry = None
    if args.metrics:
        from repro.obs.runtime import enable_metrics, reset_metrics

        registry = reset_metrics()
        enable_metrics()

    tracer = None
    if getattr(args, "trace_out", None):
        from repro.obs.trace import enable_tracing, reset_tracer

        tracer = reset_tracer()
        enable_tracing()

    watch = None
    if args.json_out or args.profile:
        from repro.obs.profile import Stopwatch

        watch = Stopwatch()

    try:
        rc = args.func(args)
    finally:
        if args.metrics:
            from repro.obs.runtime import disable_metrics

            disable_metrics()
        if tracer is not None:
            from repro.obs.trace import disable_tracing

            disable_tracing()
        if getattr(args, "faults", None) is not None:
            from repro.faults.runtime import set_fault_spec

            set_fault_spec(None)
    duration = watch.stop() if watch is not None else None

    snapshot = None
    if registry is not None:
        snapshot = registry.snapshot()
        print()
        print(registry.render())
        if getattr(args, "metrics_out", None):
            from pathlib import Path

            Path(args.metrics_out).write_text(
                registry.render_prometheus(), encoding="ascii"
            )
            print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)

    if tracer is not None:
        path = tracer.write(args.trace_out)
        print(
            f"wrote trace ({len(tracer)} events, {tracer.dropped} dropped) "
            f"to {path}",
            file=sys.stderr,
        )

    profile_dict = None
    report = getattr(args, "profile_report", None)
    if report is not None:
        print()
        print(report.render())
        profile_dict = report.to_dict()
    elif args.profile and duration is not None:
        profile_dict = {"wall_seconds": duration}
        if snapshot is not None:
            slots = snapshot["counters"].get("engine.slots", 0)
            events = snapshot["counters"].get("engine.events", 0)
            if duration > 0:
                profile_dict["slots_per_second"] = slots / duration
                profile_dict["events_per_second"] = events / duration
        print()
        print(f"profile: wall time {duration:.3f} s")

    if args.json_out:
        from repro.obs.manifest import RunManifest
        from repro.util.fidelity import fidelity_scale

        manifest = RunManifest(
            name=args.command,
            seed=getattr(args, "seed", None),
            config=_config_of(args),
            repro_scale=fidelity_scale(),
            duration_s=duration,
            metrics=snapshot,
            audit=getattr(args, "audit_records", None),
            profile=profile_dict,
            results=getattr(args, "results", None),
        )
        path = manifest.write(args.json_out)
        print(f"wrote manifest to {path}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
