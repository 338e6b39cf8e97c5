"""Golden-fingerprint regression suite.

Pins the sha256 fingerprints (metrics snapshot, audit log, detector
observations/verdicts) of four canonical same-seed scenarios against
committed ``tests/golden/*.json``.  Any refactor that changes what a
fixed seed produces — event ordering, estimator arithmetic, audit
record contents, metric counter names — trips these tests byte-for-byte
instead of silently shifting the reproduction's numbers.

The goldens were last regenerated when the ARMA fold switched to exact
per-interval busy counts (paper eq. 6).  That moved rho, and with it
the detector, audit and serve-stream hashes; every verdict list,
observation count and metrics snapshot stayed the same.  The runs use
the default fault-free channel (``repro.faults`` disabled).

To regenerate intentionally (after a change that is *supposed* to move
the fingerprints)::

    PYTHONPATH=src python -m pytest tests/test_golden_fingerprints.py --update-golden

and commit the rewritten ``tests/golden/*.json`` with an explanation.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.core.detector import DetectorConfig, reset_region_cache
from repro.experiments.runner import collect_detection_samples
from repro.experiments.scenarios import (
    GridScenario,
    MultiMonitorGridScenario,
    RandomScenario,
)
from repro.mac.misbehavior import PercentageMisbehavior
from repro.obs.audit import DecisionAuditLog
from repro.obs.runtime import disable_metrics, enable_metrics, reset_metrics
from repro.traffic import queue as traffic_queue
from repro.util.fidelity import reset_fidelity_cache

GOLDEN_DIR = Path(__file__).parent / "golden"

CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5)


def _fresh_process_state():
    """Rewind cross-run process state so same-seed runs are bytewise equal."""
    traffic_queue._packet_ids = itertools.count()
    reset_region_cache()
    reset_fidelity_cache()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _audit_jsonl(audit):
    return "\n".join(
        json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":"))
        for r in audit.records
    )


def _detector_text(detectors):
    lines = []
    for det in detectors:
        for obs in det.observations:
            lines.append(repr(obs))
        for verdict in det.verdicts:
            lines.append(repr(verdict))
    return "\n".join(lines)


def _run_single(config, make_scenario, pm, target_samples, max_duration_s):
    """One detection run (observatory path) under the shared registry."""
    audit = DecisionAuditLog()
    registry = reset_metrics()
    enable_metrics()
    try:
        detector = collect_detection_samples(
            make_scenario(),
            pm,
            detector_config=config,
            target_samples=target_samples,
            max_duration_s=max_duration_s,
            audit=audit,
        )
    finally:
        disable_metrics()
    if hasattr(detector, "retired_detectors"):  # MonitorHandoff
        detectors = [*detector.retired_detectors, detector.detector]
        extra = {"handoffs": detector.handoffs}
    else:
        detectors = [detector]
        extra = {}
    return detectors, audit, registry, extra


def _run_multi_monitor(config):
    """The dense 16-detector grid from the observatory equivalence suite."""
    from repro.core.observatory import SharedChannelObservatory

    scenario = MultiMonitorGridScenario(seed=7)
    taggeds = scenario.tagged_nodes()
    policies = {
        taggeds[0]: PercentageMisbehavior(60),
        taggeds[2]: PercentageMisbehavior(75),
    }
    sim, pairs = scenario.build(policies=policies)
    audit = DecisionAuditLog()
    registry = reset_metrics()
    enable_metrics()
    try:
        observatory = SharedChannelObservatory()
        sim.add_listener(observatory)
        detectors = [
            observatory.attach(
                monitor, tagged, config=config,
                separation=scenario.separation, audit=audit,
            )
            for monitor, tagged in pairs
        ]
        sim.run(4.0)
    finally:
        disable_metrics()
    return detectors, audit, registry, {}


SCENARIOS = {
    "grid": lambda config: _run_single(
        config, lambda: GridScenario(seed=5), 60, 150, 40.0
    ),
    "random": lambda config: _run_single(
        config, lambda: RandomScenario(seed=5), 50, 120, 40.0
    ),
    "mobile_handoff": lambda config: _run_single(
        config, lambda: RandomScenario(mobile=True, seed=23), 70, 400, 120.0
    ),
    "multi_monitor": _run_multi_monitor,
}


def capture(name):
    """Run one canonical scenario and produce its fingerprint dict."""
    _fresh_process_state()
    detectors, audit, registry, extra = SCENARIOS[name](CONFIG)
    snapshot = registry.snapshot()
    fingerprint = {
        "scenario": name,
        "observations": sum(len(d.observations) for d in detectors),
        "verdicts": sum(len(d.verdicts) for d in detectors),
        "audit_records": len(audit.records),
        "metrics_sha256": _sha(json.dumps(snapshot, sort_keys=True)),
        "audit_sha256": _sha(_audit_jsonl(audit)),
        "detector_sha256": _sha(_detector_text(detectors)),
    }
    fingerprint.update(extra)
    return fingerprint


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_fingerprint(name, request):
    path = GOLDEN_DIR / f"{name}.json"
    fingerprint = capture(name)
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(fingerprint, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden {path}; regenerate with --update-golden"
    )
    golden = json.loads(path.read_text())
    assert fingerprint == golden, (
        f"{name}: same-seed fingerprint drifted from "
        f"{path.name} — if the change is intentional, rerun with "
        "--update-golden and commit"
    )


def test_tracing_on_leaves_fingerprints_unchanged():
    """The flight recorder is a pure observer: with tracing enabled the
    same-seed run must reproduce the committed golden fingerprint
    exactly, while the tracer itself records a valid, slot-monotone
    Chrome trace."""
    from repro.obs.trace import (
        disable_tracing,
        enable_tracing,
        reset_tracer,
        shared_tracer,
    )

    golden = json.loads((GOLDEN_DIR / "grid.json").read_text())
    reset_tracer()
    enable_tracing()
    try:
        fingerprint = capture("grid")
        tracer = shared_tracer()
        assert tracer.emitted > 0
        doc = tracer.to_chrome_trace()
    finally:
        disable_tracing()
    assert fingerprint == golden, (
        "enabling tracing changed the run's verdict/metrics streams"
    )
    timestamps = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
    assert timestamps == sorted(timestamps)
