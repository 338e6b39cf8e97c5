"""Detector graceful degradation on undecodable observations.

An :class:`~repro.core.observation.ObservedTransmission` with no decoded
RTS (physics-side loss, or an injected impairment) must never feed the
deterministic verifiers or the rank-sum window.  Two regimes:

* **faults disabled** (the historical baseline): undecodable
  observations are skipped quietly — counted in ``quarantine_counts``,
  but no audit records and no metrics are emitted, keeping same-seed
  audit/metrics streams byte-identical to pre-fault-injection versions
  (pinned by ``tests/test_golden_fingerprints.py``);
* **faults enabled**: every quarantined observation emits a ``rule="quarantine"`` audit
  record whose ``detail`` is the impairment reason code, plus
  ``detector.quarantined.<reason>`` metric counters.
"""

from __future__ import annotations

from repro.core.detector import DetectorConfig
from repro.experiments.runner import collect_detection_samples
from repro.experiments.scenarios import GridScenario
from repro.faults import (
    IMPAIRMENT_DECODE_FAILURE,
    IMPAIRMENT_REASONS,
    IMPAIRMENT_UNDECODABLE,
    set_fault_spec,
)
from repro.obs.audit import AUDIT_RULES, DecisionAuditLog

CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5)


def _run(spec=None, config=CONFIG, pm=0, seconds=20.0, target=80):
    audit = DecisionAuditLog()
    set_fault_spec(spec)
    try:
        detector = collect_detection_samples(
            GridScenario(load=0.6, seed=11),
            pm=pm,
            detector_config=config,
            target_samples=target,
            max_duration_s=seconds,
            audit=audit,
        )
    finally:
        set_fault_spec(None)
    return detector, audit


def _quarantine_records(audit):
    return [r for r in audit.records if r.rule == "quarantine"]


def test_quarantine_rule_is_catalogued():
    assert "quarantine" in AUDIT_RULES


# -- baseline: faults disabled = the historical silent skip -------------------


def test_clean_run_counts_but_does_not_audit():
    """Physics-side losses are tracked (``undecodable``) but emit no
    audit records: the pre-fault-injection audit stream is preserved."""
    detector, audit = _run(spec=None)
    assert not detector._quarantine_audit
    assert _quarantine_records(audit) == []
    # The grid at load 0.6 does lose some frames to collisions/ranging,
    # so the silent path is genuinely exercised, not vacuous.
    assert detector.quarantine_counts.get(IMPAIRMENT_UNDECODABLE, 0) > 0
    assert set(detector.quarantine_counts) <= {IMPAIRMENT_UNDECODABLE}


def test_clean_run_emits_no_quarantine_metrics():
    from repro.obs.runtime import disable_metrics, enable_metrics, reset_metrics

    registry = reset_metrics()
    enable_metrics()
    try:
        _run(spec=None)
    finally:
        disable_metrics()
    counters = registry.snapshot()["counters"]
    assert not any(name.startswith("detector.quarantined") for name in counters)


def test_quarantined_observations_never_become_samples():
    detector, _audit = _run(spec="decode=0.5,seed=7")
    undecodable = [o for o in detector.observed if o.rts is None]
    assert len(undecodable) == sum(detector.quarantine_counts.values())
    # Every accepted rank-sum sample came from a decoded announcement.
    assert detector.observation_count == len(detector.observations)


# -- faulted runs: quarantine + audit -----------------------------------------


def test_faulted_run_audits_every_quarantine():
    detector, audit = _run(spec="decode=0.4,seed=7")
    assert detector._quarantine_audit
    records = _quarantine_records(audit)
    assert len(records) == sum(detector.quarantine_counts.values())
    assert detector.quarantine_counts.get(IMPAIRMENT_DECODE_FAILURE, 0) > 0
    for record in records:
        assert record.detail in IMPAIRMENT_REASONS
        assert record.deterministic is False
        assert record.monitor == detector.monitor_id
        assert record.tagged == detector.tagged_id


def test_faulted_run_metrics_match_counts():
    from repro.obs.runtime import disable_metrics, enable_metrics, reset_metrics

    registry = reset_metrics()
    enable_metrics()
    try:
        detector, _audit = _run(spec="decode=0.4,seed=7")
    finally:
        disable_metrics()
    counters = registry.snapshot()["counters"]
    total = sum(detector.quarantine_counts.values())
    assert counters.get("detector.quarantined") == total
    for reason, count in detector.quarantine_counts.items():
        assert counters.get(f"detector.quarantined.{reason}") == count


def test_injected_and_physics_losses_get_distinct_reasons():
    detector, audit = _run(spec="decode=0.4,seed=7")
    reasons = {r.detail for r in _quarantine_records(audit)}
    assert IMPAIRMENT_DECODE_FAILURE in reasons
    assert IMPAIRMENT_UNDECODABLE in reasons


def test_detector_still_detects_through_impairment():
    """Graceful degradation, not blindness: a PM=60 cheat is still
    caught while 40% of announcements quarantine."""
    detector, _audit = _run(spec="decode=0.4,seed=7", pm=60, seconds=30.0)
    assert detector.quarantine_counts.get(IMPAIRMENT_DECODE_FAILURE, 0) > 0
    assert detector.observations  # samples still accumulate
    malicious = [v for v in detector.verdicts if v.diagnosis.value == "malicious"]
    assert malicious or detector.violations
