"""Integration tests for the full misbehavior detector.

These run real (small) simulations: a sender S monitored by its
receiver R inside a contention neighborhood, exercising the entire
pipeline — observation, ARMA, system-state estimation, deterministic
verifiers, and the rank-sum hypothesis test.
"""

import pytest

from repro.core.detector import BackoffMisbehaviorDetector, DetectorConfig
from repro.core.records import Diagnosis
from repro.mac.adversary import AttemptAlwaysOne, StaleSequenceOffset
from repro.mac.misbehavior import (
    AlienDistributionBackoff,
    FixedBackoff,
    PercentageMisbehavior,
)
from repro.sim.network import Flow, Simulation, SimulationConfig
from repro.topology.placement import center_pair_indices, grid_positions
from repro.util.rng import RngStream


def _run_detection(pm=0, policy=None, duration_s=12.0, sample_size=25,
                   load=0.6, seed=3, mac_options=None, config=None):
    positions = grid_positions()
    sender, monitor = center_pair_indices()
    flows = [
        Flow(source=i, load=load)
        for i in range(len(positions))
        if i != monitor
    ]
    policies = {}
    if pm:
        policies[sender] = PercentageMisbehavior(pm)
    if policy is not None:
        policies[sender] = policy
    sim = Simulation(
        positions,
        flows=flows,
        policies=policies,
        config=SimulationConfig(seed=seed),
        mac_options={sender: mac_options} if mac_options else None,
    )
    detector = BackoffMisbehaviorDetector(
        monitor,
        sender,
        config=config
        or DetectorConfig(sample_size=sample_size, known_n=5, known_k=5),
    )
    sim.add_listener(detector)
    sim.run(duration_s)
    return detector


@pytest.fixture(scope="module")
def honest_detector():
    return _run_detection(pm=0)


@pytest.fixture(scope="module")
def cheating_detector():
    return _run_detection(pm=60)


class TestHonestSender:
    def test_no_deterministic_violations(self, honest_detector):
        assert honest_detector.violations == []

    def test_no_statistical_false_alarms(self, honest_detector):
        stat = [v for v in honest_detector.verdicts if not v.deterministic]
        assert stat, "no verdicts produced"
        false_alarms = sum(v.is_malicious for v in stat)
        assert false_alarms / len(stat) < 0.05

    def test_estimates_track_dictated(self, honest_detector):
        obs = honest_detector.observations
        assert len(obs) > 100
        mean_dict = sum(o.dictated for o in obs) / len(obs)
        mean_est = sum(o.estimated for o in obs) / len(obs)
        assert mean_est == pytest.approx(mean_dict, rel=0.25)

    def test_rho_reflects_saturation(self, honest_detector):
        assert 0.4 < honest_detector.rho <= 1.0

    def test_observations_carry_announced_fields(self, honest_detector):
        o = honest_detector.observations[0]
        assert o.attempt >= 1
        assert o.dictated >= 0
        assert o.interval_slots > 0


class TestCheatingSender:
    def test_statistical_detection(self, cheating_detector):
        stat = [v for v in cheating_detector.verdicts if not v.deterministic]
        assert stat
        rate = sum(v.is_malicious for v in stat) / len(stat)
        assert rate > 0.8

    def test_deterministic_catches_too(self, cheating_detector):
        assert any(
            v.kind == "blatant_countdown" for v in cheating_detector.violations
        )

    def test_estimates_fall_below_dictated(self, cheating_detector):
        obs = cheating_detector.observations
        mean_dict = sum(o.dictated for o in obs) / len(obs)
        mean_est = sum(o.estimated for o in obs) / len(obs)
        assert mean_est < 0.7 * mean_dict

    def test_flagged_malicious(self, cheating_detector):
        assert cheating_detector.flagged_malicious
        assert cheating_detector.latest_verdict is not None


class TestOtherAttacks:
    def test_fixed_backoff_detected(self):
        detector = _run_detection(policy=FixedBackoff(2), duration_s=8.0)
        assert detector.flagged_malicious

    def test_alien_distribution_detected(self):
        detector = _run_detection(
            policy=AlienDistributionBackoff(RngStream(9, "alien"), cw=4),
            duration_s=8.0,
        )
        assert detector.flagged_malicious

    def test_attempt_liar_caught_deterministically(self):
        detector = _run_detection(
            mac_options={"announcement": AttemptAlwaysOne()},
            duration_s=10.0,
        )
        kinds = {v.kind for v in detector.violations}
        assert "attempt_number" in kinds

    def test_offset_liar_caught_deterministically(self):
        detector = _run_detection(
            mac_options={"announcement": StaleSequenceOffset()},
            duration_s=10.0,
        )
        kinds = {v.kind for v in detector.violations}
        assert "seq_offset" in kinds


class TestDetectorConfigBehavior:
    def test_density_estimation_path(self):
        """Without known n/k the Bianchi/density pipeline supplies them."""
        detector = _run_detection(
            pm=60,
            duration_s=8.0,
            config=DetectorConfig(sample_size=25),
        )
        assert detector.terminal_estimator.samples > 0
        assert detector.flagged_malicious

    def test_verdict_records_p_value(self):
        detector = _run_detection(pm=60, duration_s=8.0)
        stat = [v for v in detector.verdicts if not v.deterministic]
        assert all(0.0 <= v.p_value <= 1.0 for v in stat)
        assert all(v.sample_size == 25 for v in stat)

    def test_diagnosis_enum(self):
        detector = _run_detection(pm=60, duration_s=8.0)
        assert any(
            v.diagnosis is Diagnosis.MALICIOUS for v in detector.verdicts
        )
