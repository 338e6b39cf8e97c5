"""``python -m benchmarks.suite``: the repository benchmark.

Run one workload (the form ``BENCHMARK.json``'s command uses)::

    python -m benchmarks.suite --workload replay16 --seed 3 --seconds 25 --trace 0

prints a readable report, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).

Run every workload, untraced and then traced, and keep the results::

    python -m benchmarks.suite [--seed N] [--repeats R] [--out results.json]

Compare two results files against the ``BENCHMARK.json`` bounds::

    python -m benchmarks.suite compare PARENT.json CHANGE.json

The exit status is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from benchmarks.suite import spec as spec_module
from benchmarks.suite import suite


def _run(argv: Sequence[str]) -> int:
    spec = spec_module.load()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    parser.add_argument("--workload", choices=spec.workloads, default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.run_seconds),
                        help="measuring budget per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                        "(default: 0 for one workload, both for all)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="least number of untraced repeats "
                        "(default: 3 for one workload, 5 for all)")
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="input sizes (tiny: for the suite's own tests)")
    parser.add_argument("--out", default=None,
                        help="write the results file here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    single = args.workload is not None
    workloads = [args.workload] if single else spec.workloads
    if args.trace is not None:
        modes = [bool(args.trace)]
    else:
        modes = [False] if single else [False, True]
    repeats = args.repeats if args.repeats is not None else (3 if single else 5)

    reports = []
    try:
        for workload in workloads:
            for trace in modes:
                report = suite.run_workload(
                    spec, workload, args.seed, args.seconds, trace,
                    size=args.size, min_repeats=repeats,
                )
                print(suite.render(report), flush=True)
                reports.append(report)
    except suite.RepeatFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    out = args.out
    if out is None and not single:
        suite.OUT_DIR.mkdir(parents=True, exist_ok=True)
        out = str(suite.OUT_DIR / "results.json")
    if out is not None:
        Path(out).write_text(
            json.dumps(suite.results_document(reports, args.seed), indent=1),
            encoding="utf-8",
        )
        print(f"results: {out}")
    correct = all(report["correct"] for report in reports)
    if single and len(reports) == 1:
        print(json.dumps(suite.result_line(reports[0])))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
        }))
    return 0 if correct else 1


def _compare(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite compare")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = spec_module.load()
    parent, change = (
        json.loads(Path(path).read_text(encoding="utf-8"))
        for path in (args.parent, args.change)
    )
    rows = suite.compare(spec, parent, change)
    print(suite.render_compare(rows))
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    return _run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
