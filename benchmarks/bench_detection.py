"""Detection-layer throughput: M monitors x C cheaters on one event stream.

The first bench of the detection layer itself.  One dense-monitor grid
simulation is recorded as a raw transmission-event stream, then that
identical stream is replayed into the two detection paths:

* **legacy** — one full :class:`BackoffMisbehaviorDetector` engine
  listener per (monitor, tagged) pair, each maintaining its own busy
  timeline, ARMA feed and competing-terminal estimator;
* **observatory** — one :class:`SharedChannelObservatory` that resolves
  each event once per monitor *node* and demuxes to lightweight
  per-pair subscriptions.

Replaying (rather than timing ``sim.run``) isolates the detection layer
from the engine's slot loop, which ``bench_engine`` already prices; the
timer accumulates ``perf_counter`` around the hook calls only, so
medium bookkeeping (shared by both paths) never dilutes the ratio.
The reported unit is demuxed detection-events per second of
detection-layer time.  Both paths consume byte-identical inputs, so
their verdicts, audit records and metrics snapshots must match exactly
— the bench asserts that, mirroring ``tests/test_observatory.py``.

Cells sweep the attach grid (M monitors x C cheaters, up to the full
4 x 4 = 16 detectors); the headline cell asserts the >= 2x speedup of
the observatory over the legacy path it replaced at 16 attached
detectors.
"""

from __future__ import annotations

import hashlib
import json
import time

from repro.core.detector import (
    BackoffMisbehaviorDetector,
    DetectorConfig,
    reset_region_cache,
)
from repro.core.observatory import SharedChannelObservatory
from repro.experiments.scenarios import MultiMonitorGridScenario
from repro.mac.misbehavior import PercentageMisbehavior
from repro.obs.audit import DecisionAuditLog
from repro.obs.bench import write_bench_manifest
from repro.obs.registry import MetricsRegistry
from repro.phy.medium import Medium
from repro.sim.listeners import SimulationListener
from repro.util.fidelity import fidelity_scale

SEED = 7
BASE_DURATION_S = 15.0
DETECTOR_CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5)
#: (M, C) attach-grid cells; the last is the 16-detector headline.
ATTACH_GRID = ((1, 1), (2, 2), (4, 2), (4, 4))
#: Replay backends, in manifest column order.
BACKENDS = ("legacy", "observatory")
REPS = 3


class _EventRecorder(SimulationListener):
    """Captures the raw transmission-event stream for replay."""

    def __init__(self):
        self.events = []

    def on_transmission_start(self, slot, transmission, medium):
        self.events.append(("start", slot, transmission, False))

    def on_transmission_end(self, slot, transmission, success, medium):
        self.events.append(("end", slot, transmission, success))


def _record_stream():
    """One live dense-monitor run -> (scenario, channel, positions, events)."""
    scenario = MultiMonitorGridScenario(seed=SEED)
    taggeds = scenario.tagged_nodes()
    policies = {
        taggeds[0]: PercentageMisbehavior(60),
        taggeds[2]: PercentageMisbehavior(75),
    }
    sim, _pairs = scenario.build(policies=policies)
    recorder = _EventRecorder()
    sim.add_listener(recorder)
    sim.run(max(BASE_DURATION_S * fidelity_scale(), 1.5))
    return scenario, sim.channel, dict(sim.medium.positions), recorder.events


def _replay(events, channel, positions, start_hooks, end_hooks):
    """Drive a fresh medium through the recorded stream; returns seconds.

    Mirrors the engine's dispatch order: the medium registers a
    transmission before the start hooks fire and drops it before the
    end hooks fire, so carrier-sense and interference queries resolve
    exactly as they do live.  Only the hook calls are timed —
    ``perf_counter`` accumulates around them — so the medium's own
    index bookkeeping, identical for every backend, stays out of the
    measured detection-layer seconds.
    """
    medium = Medium(channel)
    medium.update_positions(positions)
    tx_ids = {}
    elapsed = 0.0
    for kind, slot, tx, success in events:
        if kind == "start":
            tx_ids[id(tx)] = medium.start_transmission(tx)
            begin = time.perf_counter()
            for hook in start_hooks:
                hook(slot, tx, medium)
            elapsed += time.perf_counter() - begin
        else:
            medium.end_transmission(tx_ids.pop(id(tx)))
            begin = time.perf_counter()
            for hook in end_hooks:
                hook(slot, tx, success, medium)
            elapsed += time.perf_counter() - begin
    return elapsed


def _fingerprint(detectors, audit, metrics):
    """SHA-256 over everything the equivalence contract covers."""
    digest = hashlib.sha256()
    for det in detectors:
        for obs in det.observations:
            digest.update(repr(obs).encode())
        for verdict in det.verdicts:
            digest.update(repr(verdict).encode())
    for record in audit.records:
        digest.update(json.dumps(record.to_dict(), sort_keys=True).encode())
    digest.update(json.dumps(metrics.snapshot(), sort_keys=True).encode())
    return digest.hexdigest()


def _run_backend(backend, pairs, separation, channel, positions, events):
    """Best-of-REPS replay of one backend; returns (secs, events, print)."""
    best = float("inf")
    fingerprint = None
    demuxed = 0
    for _rep in range(REPS):
        reset_region_cache()
        audit = DecisionAuditLog()
        metrics = MetricsRegistry()
        if backend == "legacy":
            detectors = [
                BackoffMisbehaviorDetector(
                    monitor, tagged, config=DETECTOR_CONFIG,
                    separation=separation, audit=audit, metrics=metrics,
                )
                for monitor, tagged in pairs
            ]
            start_hooks = [d.on_transmission_start for d in detectors]
            end_hooks = [d.on_transmission_end for d in detectors]
        else:
            observatory = SharedChannelObservatory()
            detectors = [
                observatory.attach(
                    monitor, tagged, config=DETECTOR_CONFIG,
                    separation=separation, audit=audit, metrics=metrics,
                )
                for monitor, tagged in pairs
            ]
            start_hooks = [observatory.on_transmission_start]
            end_hooks = [observatory.on_transmission_end]
        elapsed = _replay(events, channel, positions, start_hooks, end_hooks)
        best = min(best, elapsed)
        demuxed = sum(len(d.observed) for d in detectors)
        fingerprint = _fingerprint(detectors, audit, metrics)
    return best, demuxed, fingerprint


def bench_detection_throughput(benchmark):
    def run():
        scenario, channel, positions, events = _record_stream()
        monitors = scenario.monitor_nodes()
        taggeds = scenario.tagged_nodes()
        cells = {"stream_events": len(events)}
        for n_monitors, n_tagged in ATTACH_GRID:
            pairs = [
                (monitor, tagged)
                for monitor in monitors[:n_monitors]
                for tagged in taggeds[:n_tagged]
            ]
            label = f"m{n_monitors}x{n_tagged}"
            cell = {"detectors": len(pairs)}
            fingerprints = {}
            for backend in BACKENDS:
                secs, demuxed, fingerprints[backend] = _run_backend(
                    backend, pairs, scenario.separation,
                    channel, positions, events,
                )
                cell[f"{backend}_seconds"] = secs
                cell[f"{backend}_events_per_sec"] = (
                    demuxed / secs if secs > 0 else 0.0
                )
                cell["detection_events"] = demuxed
            cell["speedup"] = (
                cell["legacy_seconds"] / cell["observatory_seconds"]
                if cell["observatory_seconds"] > 0
                else float("inf")
            )
            cell["fingerprints_equal"] = (
                len(set(fingerprints.values())) == 1
            )
            cells[label] = cell
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for n_monitors, n_tagged in ATTACH_GRID:
        cell = cells[f"m{n_monitors}x{n_tagged}"]
        print(
            f"detection {n_monitors}x{n_tagged} ({cell['detectors']:2d} det): "
            f"legacy {cell['legacy_events_per_sec']:>9,.0f} ev/s, "
            f"observatory {cell['observatory_events_per_sec']:>9,.0f} ev/s "
            f"({cell['speedup']:.2f}x)"
        )
    write_bench_manifest(
        "detection",
        cells,
        seed=SEED,
        config={
            "base_duration_s": BASE_DURATION_S,
            "attach_grid": [list(cell) for cell in ATTACH_GRID],
            "sample_size": DETECTOR_CONFIG.sample_size,
            "backends": list(BACKENDS),
        },
    )

    # Both paths must produce byte-identical detection artifacts from
    # the identical replayed stream — at every grid cell.
    for n_monitors, n_tagged in ATTACH_GRID:
        assert cells[f"m{n_monitors}x{n_tagged}"]["fingerprints_equal"], (
            f"backend fingerprints diverged at {n_monitors}x{n_tagged}"
        )
    headline = cells["m4x4"]
    assert headline["detectors"] == 16
    assert headline["detection_events"] > 0
    # The shared observation plane's reason to exist: >= 2x detection
    # event throughput over the legacy path at 16 attached detectors.
    assert headline["speedup"] >= 2.0, (
        f"expected >= 2x at 16 detectors, measured {headline['speedup']:.2f}x"
    )
