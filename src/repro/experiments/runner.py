"""Shared experiment plumbing: fidelity scaling and sample collection.

The paper averages over 20 runs (probability curves) and 10,000 runs
(detection probabilities).  The default bench fidelity is far lower so
the whole suite completes in minutes; set ``REPRO_SCALE`` (a float
multiplier, default 1.0) to raise trial counts and durations toward the
paper's, e.g. ``REPRO_SCALE=10 pytest benchmarks/``.

The fidelity helpers themselves live in :mod:`repro.util.fidelity`
(``obs`` needs them too and sits below ``experiments`` in the layering
DAG).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.core.detector import BackoffMisbehaviorDetector, DetectorConfig, ranked_pair
from repro.core.ranksum import rank_sum_test
from repro.util.units import Seconds


def collect_detection_samples(
    scenario: Any,
    pm: float,
    detector_config: Optional[DetectorConfig] = None,
    target_samples: int = 500,
    max_duration_s: Seconds = 240.0,
    policies: Optional[Dict[int, Any]] = None,
    audit: Optional[Any] = None,
    provenance: Optional[Any] = None,
    use_observatory: bool = True,
) -> Any:
    """Run one scenario with a (possibly misbehaving) sender and collect
    the detector's raw sample stream.

    Returns the detector after the run; ``detector.observations`` holds
    the (dictated, estimated) pairs and ``detector.violations`` the
    deterministic catches.  The simulation stops as soon as
    ``target_samples`` observations exist (or at ``max_duration_s``).

    ``audit`` is an optional :class:`repro.obs.DecisionAuditLog` that
    receives one structured record per verdict (shared across monitor
    hand-offs in the mobile case); ``provenance`` is an optional
    :class:`repro.obs.ProvenanceLog` that receives the full evidence
    chain behind each of those verdicts.

    ``use_observatory`` selects the shared observation plane (one
    :class:`repro.core.observatory.SharedChannelObservatory` engine
    listener with the detector as a subscriber — the default) versus the
    legacy per-detector-listener wiring; both produce byte-identical
    results (see ``tests/test_observatory.py``), the legacy path exists
    as the equivalence/bench baseline.
    """
    from repro.core.handoff import MonitorHandoff
    from repro.core.observatory import SharedChannelObservatory
    from repro.mac.misbehavior import PercentageMisbehavior
    from repro.util.rng import RngStream

    sender_policies = dict(policies or {})
    detector_config = detector_config or DetectorConfig(
        sample_size=10_000, known_n=5, known_k=5
    )
    sim, sender, monitor = scenario.build(policies=None)
    if pm or sender_policies:
        # Rebuild with the malicious policy now that the sender is known.
        if pm:
            sender_policies[sender] = PercentageMisbehavior(pm)
        sim, sender, monitor = scenario.build(policies=sender_policies)
    mobile = bool(getattr(scenario, "mobile", False))
    observatory = None
    if use_observatory:
        observatory = SharedChannelObservatory()
        sim.add_listener(observatory)
    if mobile:
        # The paper's mobile protocol: when the monitor drifts out of
        # range, a random current neighbor takes over.
        detector = MonitorHandoff(
            sender,
            monitor,
            config=detector_config,
            rng=RngStream(getattr(scenario, "seed", 0), "monitor-handoff"),
            separation=getattr(scenario, "separation", None),
            audit=audit,
            observatory=observatory,
            provenance=provenance,
        )
        if observatory is None:
            sim.add_listener(detector)
    elif observatory is not None:
        detector = observatory.attach(
            monitor,
            sender,
            config=detector_config,
            separation=getattr(scenario, "separation", None),
            audit=audit,
            provenance=provenance,
        )
    else:
        detector = BackoffMisbehaviorDetector(
            monitor,
            sender,
            config=detector_config,
            separation=getattr(scenario, "separation", None),
            audit=audit,
            provenance=provenance,
        )
        sim.add_listener(detector)
    sim.run(
        max_duration_s,
        stop_condition=lambda: detector.observation_count >= target_samples,
    )
    return detector


def detection_trial(task: Tuple[Any, ...]) -> Any:
    """One seeded detection run, as a picklable task for ``run_trials``.

    ``task`` is ``(scenario_factory, load, pm, seed, target_samples,
    max_duration_s)`` with a module-level ``scenario_factory(load,
    seed)``; returns the detector (see
    :func:`collect_detection_samples`).
    """
    scenario_factory, load, pm, seed, target_samples, max_duration_s = task
    scenario = scenario_factory(load, seed)
    return collect_detection_samples(
        scenario,
        pm,
        target_samples=target_samples,
        max_duration_s=max_duration_s,
    )


def windowed_detection_rate(
    detector: Any,
    sample_size: int,
    alpha: float = 0.05,
    alternative: str = "less",
    include_deterministic: bool = True,
    max_attempt: Optional[int] = None,
    guard_band: Optional[float] = None,
) -> Tuple[float, int]:
    """Fraction of non-overlapping windows diagnosing the sender malicious.

    This mirrors the paper's per-run semantics: each window of
    ``sample_size`` samples yields one hypothesis-test decision; a
    deterministic violation inside the window's time span also counts
    as a (correct or false) malicious diagnosis.  Each sample is ranked
    as the detector ranks it (:func:`repro.core.detector.ranked_pair`,
    under the detector's config and timing).  ``max_attempt`` and
    ``guard_band`` default to the detector's configuration.
    """
    config = detector.config
    if max_attempt is None:
        max_attempt = config.max_test_attempt
    if guard_band is not None:
        config = dataclasses.replace(config, guard_band=guard_band)
    observations = [
        o for o in detector.observations if o.attempt <= max_attempt
    ]
    if len(observations) < sample_size:
        return float("nan"), 0
    violation_slots = sorted(v.slot for v in detector.violations)
    detected = 0
    windows = 0
    for start in range(0, len(observations) - sample_size + 1, sample_size):
        window = observations[start : start + sample_size]
        pairs = [ranked_pair(config, detector.timing, w) for w in window]
        x = [pair[0] for pair in pairs]
        y = [pair[1] for pair in pairs]
        result = rank_sum_test(x, y, alternative)
        hit = result.p_value < alpha
        if include_deterministic and not hit:
            lo = window[0].slot
            hi = window[-1].slot
            hit = any(lo <= s <= hi for s in violation_slots)
        detected += 1 if hit else 0
        windows += 1
    return detected / windows, windows


def split_seeds(base_seed: int, count: int) -> List[int]:
    """Deterministic distinct seeds for repeated trials."""
    return [base_seed * 10_007 + i for i in range(count)]
