"""Run workloads in fresh subprocesses, aggregate, report, compare.

A *run* of one workload starts repeats one at a time, each a fresh
single-threaded ``benchmarks.suite.worker`` process, until at least
``min_repeats`` have finished and the next one would overrun the
measuring budget.  Each end-to-end metric is the median over repeats,
reported with its quartiles and repeat count.  A traced run makes one
untraced repeat, then one traced repeat, and reports the per-layer
metrics of the traced one plus the tracing overhead between the two.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.suite.spec import ROOT, Spec

#: where traces and results land (ignored by git)
OUT_DIR = ROOT / "benchmarks" / "suite" / "out"
#: no run may take longer than this, whatever the budget says
HARD_LIMIT_S = 170.0
#: the layer self times plus ``other`` must match the traced wall this well
LAYER_SUM_TOLERANCE = 0.02

_SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class RepeatFailed(RuntimeError):
    """A worker process exited non-zero or printed no record."""


def spawn(
    workload: str,
    seed: int,
    size: str,
    timeout: float,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one repeat in a fresh worker process; returns its record."""
    env = dict(os.environ)
    env.update(_SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    command = [
        sys.executable,
        "-m",
        "benchmarks.suite.worker",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--size",
        size,
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    begin = time.perf_counter()
    try:
        proc = subprocess.run(
            command,
            cwd=str(ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RepeatFailed(
            f"{workload}: repeat timed out after {exc.timeout:.0f}s"
        ) from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepeatFailed(
            f"{workload}: worker exited {proc.returncode}\n{proc.stderr.strip()}"
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["process_s"] = time.perf_counter() - begin
    return record


def quartiles(values: Sequence[float]) -> Dict[str, Any]:
    """median, q1, q3 and n, as ``statistics.quantiles`` gives them."""
    data = list(values)
    if len(data) > 1:
        q1, median, q3 = statistics.quantiles(data, n=4)
    else:
        q1 = median = q3 = data[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(data), "values": data}


def run_workload(
    spec: Spec,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "default",
    min_repeats: int = 3,
) -> Dict[str, Any]:
    """One run of ``workload``: the report its one-line result is cut from."""
    started = time.perf_counter()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - started)

    records: List[Dict[str, Any]] = []
    if trace:
        records.append(spawn(workload, seed, size, remaining()))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        traced = spawn(workload, seed, size, remaining(), trace_out=trace_path)
    else:
        traced = None
        while True:
            records.append(spawn(workload, seed, size, remaining()))
            elapsed = time.perf_counter() - started
            typical = statistics.median(r["process_s"] for r in records)
            if len(records) >= min_repeats and elapsed + typical > seconds:
                break
            if elapsed + typical > HARD_LIMIT_S:
                break
    everything = records + ([traced] if traced else [])
    checks: Dict[str, bool] = {}
    for record in everything:
        for name, ok in record["checks"].items():
            checks[name] = checks.get(name, True) and bool(ok)
    checks["fingerprint_repeats"] = len({r["fingerprint"] for r in everything}) == 1
    report: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "repeats": len(records),
        "attempted": sum(int(r["attempted"]) for r in everything),
        "failed": sum(int(r["failed"]) for r in everything),
        "fingerprint": everything[0]["fingerprint"],
        "end_to_end": {
            metric.name: {
                "unit": metric.unit,
                **quartiles([float(r[metric.name]) for r in records]),
            }
            for metric in spec.end_to_end
        },
        "diagnostics": {
            name: quartiles([float(r["diagnostics"][name]) for r in records])
            for name in records[0]["diagnostics"]
        },
    }
    if traced is not None:
        layer = _per_layer(spec, traced, records)
        wall = traced["layer"]["trace.wall_s"]
        table_sum = sum(traced["layer_table"].values())
        checks["layers_sum_to_wall"] = (
            abs(table_sum - wall) <= LAYER_SUM_TOLERANCE * wall
        )
        report["per_layer"] = {
            metric.name: {"unit": metric.unit, "value": layer[metric.name]}
            for metric in spec.per_layer
        }
        report["layer_table"] = traced["layer_table"]
        report["trace_path"] = str(trace_path.relative_to(ROOT))
    report["checks"] = checks
    report["correct"] = all(checks.values()) and report["failed"] == 0
    report["wall_s"] = time.perf_counter() - started
    return report


def _per_layer(
    spec: Spec, traced: Dict[str, Any], untraced: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    """Every per-layer metric of the spec; layers a workload never
    enters read 0."""
    names = {metric.name for metric in spec.per_layer}
    produced = dict(traced["layer"])
    unknown = sorted(set(produced) - names)
    if unknown:
        raise RuntimeError(
            f"worker produced metrics missing from BENCHMARK.json: {unknown}"
        )
    baseline = statistics.median(r["busy_s"] for r in untraced)
    produced["trace.overhead_frac"] = traced["busy_s"] / baseline - 1.0
    return {name: float(produced.get(name, 0.0)) for name in sorted(names)}


def result_line(report: Dict[str, Any]) -> Dict[str, Any]:
    """The one-line result: end-to-end medians, or per-layer values."""
    if report["trace"]:
        metrics = {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in report["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": entry["median"], "unit": entry["unit"]}
            for name, entry in report["end_to_end"].items()
        }
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def render(report: Dict[str, Any]) -> str:
    """A human-readable block for one workload run."""
    out = [
        f"== {report['workload']} (seed {report['seed']}, size {report['size']}, "
        f"{report['repeats']} untraced repeat(s), {report['wall_s']:.1f}s)"
    ]
    out.append(
        f"  {'metric':<28} {'unit':>8} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}"
    )
    for name, entry in report["end_to_end"].items():
        out.append(
            f"  {name:<28} {entry['unit']:>8} {entry['median']:>12.5g} "
            f"{entry['q1']:>12.5g} {entry['q3']:>12.5g} {entry['n']:>3}"
        )
    for name, entry in report["diagnostics"].items():
        out.append(
            f"  ~{name:<27} {'':>8} {entry['median']:>12.5g} "
            f"{entry['q1']:>12.5g} {entry['q3']:>12.5g} {entry['n']:>3}"
        )
    if "per_layer" in report:
        wall = sum(report["layer_table"].values())
        out.append(f"  layer self time (traced wall {wall:.3f}s):")
        layers = sorted(report["layer_table"].items(), key=lambda kv: -kv[1])
        for layer, seconds in layers:
            out.append(f"    {layer:<14} {seconds:>9.3f}s {seconds / wall:>7.1%}")
        out.append("  per-layer metrics:")
        for name, entry in report["per_layer"].items():
            out.append(f"    {name:<32} {entry['value']:>14.6g} {entry['unit']}")
        out.append(f"  trace: {report['trace_path']}")
    failed = [name for name, ok in report["checks"].items() if not ok]
    out.append(
        f"  attempted {report['attempted']}, failed {report['failed']}, "
        f"fingerprint {report['fingerprint'][:16]}, "
        + ("all checks pass" if not failed else f"FAILED checks: {', '.join(failed)}")
    )
    return "\n".join(out)


def host() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


# -- compare -------------------------------------------------------------------


def compare(
    spec: Spec, parent: Dict[str, Any], change: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both files.

    The verdict is ``unresolved`` when either side's spread (q3 - q1 over
    the median) is wider than the metric's bound, unless every repeat of
    the change reads better than every repeat of the parent.
    """
    rows = []
    for workload, before in parent["workloads"].items():
        after = change["workloads"].get(workload)
        if after is None:
            continue
        for name, a in before["end_to_end"].items():
            b = after["end_to_end"].get(name)
            if b is None:
                continue
            metric = spec.metric(name)
            bound = metric.bound or 0.0
            worse = metric.worse_by(a["median"], b["median"])
            spread = max(_spread(a), _spread(b))
            if metric.better == "lower":
                all_better = max(b["values"]) < min(a["values"])
            else:
                all_better = min(b["values"]) > max(a["values"])
            if all_better:
                verdict = "better in every repeat"
            elif spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regression"
            else:
                verdict = "within bound"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric.unit,
                    "parent": a,
                    "change": b,
                    "delta": -worse if metric.better == "higher" else worse,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def _spread(entry: Dict[str, Any]) -> float:
    median = entry["median"]
    return (entry["q3"] - entry["q1"]) / abs(median) if median else 0.0


def render_compare(rows: Sequence[Dict[str, Any]]) -> str:
    def side(entry: Dict[str, Any]) -> str:
        return f"{entry['median']:.5g} [{entry['q1']:.4g}, {entry['q3']:.4g}]"

    out = [
        f"{'workload':<11} {'metric':<17} {'parent median [IQR]':<34} "
        f"{'change median [IQR]':<34} {'delta':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        out.append(
            f"{row['workload']:<11} {row['metric']:<17} {side(row['parent']):<34} "
            f"{side(row['change']):<34} {row['delta']:>+7.1%} {row['bound']:>6.0%}  "
            f"{row['verdict']}"
        )
    return "\n".join(out)


def results_document(reports: Sequence[Dict[str, Any]], seed: int) -> Dict[str, Any]:
    """The file ``compare`` reads: every workload's untraced report,
    with the traced per-layer values merged in when present."""
    workloads: Dict[str, Any] = {}
    for report in reports:
        entry = workloads.setdefault(report["workload"], {})
        if report["trace"]:
            for key in ("per_layer", "layer_table", "trace_path"):
                entry[key] = report[key]
            entry["traced_correct"] = report["correct"]
        else:
            entry.update(report)
    return {
        "schema": "benchmarks.suite/results/v1",
        "seed": seed,
        "host": host(),
        "workloads": workloads,
    }
