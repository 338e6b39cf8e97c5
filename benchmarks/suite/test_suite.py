"""Every workload end to end at tiny sizes, plus ``compare``.

These start the real command (``python -m benchmarks.suite``), so they
cover the worker subprocesses, the correctness checks, the one-line
result and the traced layer table.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from benchmarks.suite import spec as spec_module
from benchmarks.suite import suite

SPEC = spec_module.load()
ROOT = spec_module.ROOT

#: Traced shares the benchmark predicts at seed (see the README's layer
#: map): metrics a workload never reaches read exactly 0.
PREDICTED_ZERO = {
    "serve-wide": (
        "sim.events", "sim.slots", "stats.rank_sum_verdicts", "stats.flushes"
    ),
    "serve-deep": ("sim.events", "sim.slots", "detector.estimates"),
    "fig5-grid": ("serve.flushes", "serve.sink_records", "stats.flushes"),
    "replay16": ("serve.rejected",),
}
PREDICTED_POSITIVE = {
    "serve-wide": ("arma.folds", "observatory.attaches", "serve.mem_kb_per_link"),
    "serve-deep": (
        "arma.folds", "stats.flushes", "stats.rank_sum_verdicts", "serve.sink_records"
    ),
    "fig5-grid": ("sim.events", "sim.slots", "arma.folds", "detector.estimates"),
    "replay16": (
        "sim.events", "stats.rank_sum_verdicts", "serve.sink_records", "loadgen.sleep_s"
    ),
}


def _bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
    )


def _last_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", SPEC.workloads)
def test_traced_run_reports_every_layer_metric(workload: str) -> None:
    proc = _bench(
        "--workload", workload, "--seed", "1", "--size", "tiny", "--trace", "1"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _last_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    metrics = line["metrics"]
    assert set(metrics) == {m.name for m in SPEC.per_layer}
    for metric in SPEC.per_layer:
        assert metrics[metric.name]["unit"] == metric.unit
    for name in PREDICTED_ZERO[workload]:
        assert metrics[name]["value"] == 0, name
    for name in PREDICTED_POSITIVE[workload]:
        assert metrics[name]["value"] > 0, name
    wall = metrics["trace.wall_s"]["value"]
    assert metrics["phy.epoch_s"]["value"] < 0.01 * wall
    trace_path = suite.OUT_DIR / f"trace-{workload}-seed1.json"
    trace = json.loads(trace_path.read_text())
    assert sum(trace["layers"].values()) == pytest.approx(wall, rel=0.02)
    assert any(event["ph"] == "X" for event in trace["traceEvents"])


def test_untraced_run_prints_end_to_end_medians() -> None:
    proc = _bench(
        "--workload", "serve-deep", "--seed", "2", "--size", "tiny",
        "--trace", "0", "--repeats", "2", "--seconds", "0",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = _last_line(proc)
    assert line["correct"] is True
    assert set(line["metrics"]) == {m.name for m in SPEC.end_to_end}
    for metric in SPEC.end_to_end:
        entry = line["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0
    assert "2 untraced repeat(s)" in proc.stdout


def test_same_seed_same_inputs_other_seed_other_inputs() -> None:
    records = [
        suite.spawn("serve-wide", seed, "tiny", timeout=120) for seed in (3, 3, 4)
    ]
    prints = [record["fingerprint"] for record in records]
    assert prints[0] == prints[1] != prints[2]


def test_fails_without_the_repository(tmp_path) -> None:
    """Only BENCHMARK.json and the suite: no ``repro`` to import."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "suite",
        tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _bench(
        "--workload", "fig5-grid", "--seed", "1", "--seconds", "5", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _results(values_by_metric: dict) -> dict:
    return {
        "workloads": {
            "serve-deep": {
                "end_to_end": {
                    name: {"unit": "", **suite.quartiles(values)}
                    for name, values in values_by_metric.items()
                }
            }
        }
    }


def test_compare_verdicts() -> None:
    parent = _results({
        "throughput_per_s": [100, 101, 99, 100, 100],
        "latency_p50_ms": [10, 10, 10, 10, 10],
        "latency_p95_ms": [20, 30, 40, 25, 35],
        "setup_s": [1.0, 1.0, 1.0, 1.0, 1.0],
    })
    change = _results({
        "throughput_per_s": [70, 71, 69, 70, 70],
        "latency_p50_ms": [10.2, 10.1, 10.3, 10.2, 10.2],
        "latency_p95_ms": [20, 30, 40, 25, 35],
        "setup_s": [0.5, 0.5, 0.5, 0.5, 0.5],
    })
    rows = {row["metric"]: row for row in suite.compare(SPEC, parent, change)}
    assert rows["throughput_per_s"]["verdict"] == "regression"
    assert rows["throughput_per_s"]["delta"] == pytest.approx(-0.3)
    assert rows["latency_p50_ms"]["verdict"] == "within bound"
    assert rows["latency_p95_ms"]["verdict"] == "unresolved"
    assert rows["setup_s"]["verdict"] == "better in every repeat"
    assert "regression" in suite.render_compare(list(rows.values()))
