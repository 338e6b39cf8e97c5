"""Extension experiment: detection latency vs misbehavior intensity.

The paper discusses the quickness/accuracy trade-off qualitatively
("there is a trade-off between the quickness of detection and the
accuracy"); this bench quantifies it: wall-clock (simulated seconds) and
sample count until the framework first flags the cheater, per PM level.
Blatant cheats should be caught in under a second of air time; subtle
ones take a window's worth of samples.
"""

from __future__ import annotations

from repro.analysis.latency import detection_latency
from repro.core.detector import DetectorConfig
from repro.experiments.parallel import run_trials
from repro.experiments.runner import collect_detection_samples
from repro.experiments.scenarios import GridScenario
from repro.obs.bench import write_bench_manifest
from repro.util.fidelity import scaled


def _latency_for(pm, seed, sample_size=25):
    scenario = GridScenario(load=0.6, seed=seed)
    detector = collect_detection_samples(
        scenario,
        pm,
        detector_config=DetectorConfig(
            sample_size=sample_size, known_n=5, known_k=5
        ),
        target_samples=scaled(250),
        max_duration_s=120.0,
    )
    return detection_latency(detector)


def _latency_trial(task):
    pm, seed = task
    return _latency_for(pm, seed)


def bench_detection_latency(benchmark):
    def run():
        pm_levels = (25, 50, 80)
        latencies = run_trials(
            _latency_trial, [(pm, 81 + pm) for pm in pm_levels]
        )
        return dict(zip(pm_levels, latencies))

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"{'PM':>4s} {'flagged':>8s} {'seconds':>9s} {'samples':>8s} {'layer':>14s}")
    for pm, latency in results.items():
        layer = (
            "deterministic" if latency.deterministic_first else "statistical"
        )
        seconds = (
            f"{latency.first_flag_seconds:9.2f}" if latency.flagged else "      inf"
        )
        print(
            f"{pm:>4d} {str(latency.flagged):>8s} {seconds} "
            f"{latency.samples_at_flag:>8d} {layer:>14s}"
        )
    write_bench_manifest("latency", results)

    assert all(lat.flagged for lat in results.values())
    # Stronger misbehavior is caught at least as fast (allow slack for
    # the Monte-Carlo noise of single runs).
    assert (
        results[80].first_flag_seconds
        <= results[25].first_flag_seconds * 2.0 + 1.0
    )
