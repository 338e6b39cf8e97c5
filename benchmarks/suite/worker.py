"""One repeat of one workload, in a fresh single-threaded process.

``python -m benchmarks.suite.worker --workload W --seed N [--size S]
[--trace-out PATH]`` prints one JSON repeat record as its last line.
With ``--trace-out`` the repeat runs traced and writes its Chrome trace
there.  The suite starts this module; it is not meant to be run by hand.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, Optional, Sequence  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.suite.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="default")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from benchmarks.suite import workloads
    from benchmarks.suite.trace import SpanTracer

    tracer = SpanTracer() if args.trace_out else None
    record = workloads.run(args.workload, args.seed, args.size, _T0, tracer)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layer_table"] = tracer.layer_table()
        record["layer"].update(_layer_metrics(tracer, record["layer"]))
        tracer.write_chrome_trace(
            args.trace_out,
            extra={"workload": args.workload, "seed": args.seed},
        )
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


def _layer_metrics(tracer: Any, known: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values read off the tracer (see the README's layer map)."""
    self_s = tracer.self_seconds
    calls = tracer.calls
    counts = tracer.counts
    parse_s = known.get("serve.parse_s", 0.0)
    return {
        "sim.events_self_s": self_s("sim.events"),
        "sim.reconcile_s": self_s("sim.reconcile"),
        "sim.build_s": self_s("sim.build"),
        "sim.loop_s": self_s("sim.run"),
        "sim.events": counts.get("sim.events", 0),
        "phy.epochs": calls("phy.epoch"),
        "phy.epoch_s": self_s("phy.epoch"),
        "observatory.hook_self_s": self_s("observatory.hook"),
        "observatory.ingest_self_s": self_s("observatory.ingest"),
        "observatory.sync_self_s": self_s("observatory.sync"),
        "observatory.attach_s": self_s("observatory.attach"),
        "observatory.attaches": calls("observatory.attach"),
        "arma.folds": counts.get("arma.fold", 0),
        "detector.estimates": calls("detector.estimate"),
        "detector.estimate_s": self_s("detector.estimate"),
        "stats.evaluations": calls("stats.evaluate"),
        "stats.evaluate_s": self_s("stats.evaluate"),
        "stats.flushes": calls("stats.flush"),
        "stats.flush_s": self_s("stats.flush"),
        "stats.flush_windows": counts.get("stats.flush_windows", 0),
        "serve.session_self_s": self_s("serve.run", "serve.handle_line") - parse_s,
        "serve.finish_s": self_s("serve.finish"),
        "serve.sink_write_s": self_s("serve.sink_write"),
        "serve.sink_records": calls("serve.sink_write"),
        "runner.windowed_rate_s": self_s("runner.windowed_rate"),
        "loadgen.sleep_s": self_s("loadgen.sleep"),
        "trace.wall_s": tracer.wall(),
        "trace.other_s": tracer.layer_table()["other"],
    }


if __name__ == "__main__":
    raise SystemExit(main())
