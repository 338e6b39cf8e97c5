"""Tests for the offline analysis helpers (latency, summary)."""

import math

import pytest

from repro.analysis.latency import DetectionLatency, detection_latency
from repro.analysis.summary import summarize_estimation
from repro.core.records import BackoffObservation, Diagnosis, Verdict


class _FakeDetector:
    """Minimal stand-in exposing observations/verdicts/config."""

    def __init__(self, observations=(), verdicts=(), guard_band=0.0,
                 max_test_attempt=3):
        from repro.core.detector import DetectorConfig

        self.observations = list(observations)
        self.verdicts = list(verdicts)
        self.config = DetectorConfig(
            guard_band=guard_band, max_test_attempt=max_test_attempt
        )


def _obs(slot, dictated, estimated, attempt=1):
    return BackoffObservation(
        slot=slot,
        seq_off=slot,
        attempt=attempt,
        dictated=dictated,
        estimated=estimated,
        idle_slots=dictated,
        busy_slots=0,
        interval_slots=dictated + 3,
        rho=0.5,
        unambiguous=True,
    )


def _verdict(slot, malicious, deterministic=False):
    return Verdict(
        diagnosis=Diagnosis.MALICIOUS if malicious else Diagnosis.WELL_BEHAVED,
        p_value=0.001 if malicious else 0.9,
        sample_size=10,
        slot=slot,
        deterministic=deterministic,
    )


class TestDetectionLatency:
    def test_never_flagged(self):
        det = _FakeDetector(verdicts=[_verdict(100, False)])
        latency = detection_latency(det)
        assert not latency.flagged
        assert latency.first_flag_seconds == float("inf")

    def test_first_flag(self):
        det = _FakeDetector(
            observations=[_obs(s, 10, 10) for s in (10, 20, 30, 40)],
            verdicts=[_verdict(25, False), _verdict(35, True)],
        )
        latency = detection_latency(det)
        assert latency.flagged
        assert latency.first_flag_slot == 35
        assert latency.samples_at_flag == 3
        assert latency.first_flag_seconds == pytest.approx(35 * 20e-6)

    def test_deterministic_first(self):
        det = _FakeDetector(
            verdicts=[_verdict(50, True, deterministic=True), _verdict(60, True)]
        )
        assert detection_latency(det).deterministic_first

    def test_never_constructor(self):
        never = DetectionLatency.never()
        assert not never.flagged
        assert never.samples_at_flag == -1


class TestSummarizeEstimation:
    def test_empty(self):
        summary = summarize_estimation(_FakeDetector())
        assert summary.samples == 0
        assert math.isnan(summary.mean_error)

    def test_unbiased_samples(self):
        det = _FakeDetector(observations=[_obs(i, 10, 10) for i in range(10)])
        summary = summarize_estimation(det)
        assert summary.mean_error == 0.0
        assert summary.rmse == 0.0
        assert summary.relative_shift == 1.0
        assert summary.unambiguous_fraction == 1.0

    def test_cheating_shift(self):
        det = _FakeDetector(
            observations=[_obs(i, 20, 10) for i in range(10)]
        )
        summary = summarize_estimation(det)
        assert summary.relative_shift == pytest.approx(0.5)
        assert summary.mean_error == -10.0
        assert summary.rmse == 10.0

    def test_normalized_error(self):
        det = _FakeDetector(observations=[_obs(0, 32, 16)])
        summary = summarize_estimation(det)
        assert summary.mean_normalized_error == pytest.approx(-0.5)
