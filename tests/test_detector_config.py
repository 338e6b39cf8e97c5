"""Tests for detector configuration paths not covered elsewhere."""

import pytest

from repro.core.detector import BackoffMisbehaviorDetector, DetectorConfig
from repro.geometry.regions import RegionModel
from repro.mac.misbehavior import PercentageMisbehavior
from repro.sim.network import Flow, Simulation, SimulationConfig
from repro.topology.placement import center_pair_indices, grid_positions


def _run(config, pm=60, duration_s=8.0, seed=3):
    positions = grid_positions(rows=5, cols=6)
    sender, monitor = center_pair_indices(5, 6)
    flows = [
        Flow(source=i, load=0.6)
        for i in range(len(positions))
        if i != monitor
    ]
    policies = {sender: PercentageMisbehavior(pm)} if pm else {}
    sim = Simulation(
        positions,
        flows=flows,
        policies=policies,
        config=SimulationConfig(seed=seed),
    )
    detector = BackoffMisbehaviorDetector(monitor, sender, config=config)
    sim.add_listener(detector)
    sim.run(duration_s)
    return detector


class TestConfigVariants:
    def test_raw_slot_mode_detects(self):
        """normalize_by_cw=False still catches a strong cheat."""
        detector = _run(
            DetectorConfig(
                sample_size=25, known_n=5, known_k=5, normalize_by_cw=False
            ),
            pm=70,
        )
        assert detector.flagged_malicious

    def test_custom_region_model(self):
        model = RegionModel(separation=240.0, interferer_offset=300.0)
        detector = _run(
            DetectorConfig(sample_size=25, known_n=5, known_k=5,
                           region_model=model),
            pm=70,
        )
        assert detector.state_estimator.region_model is model
        assert detector.flagged_malicious

    def test_zero_warmup_admits_early_samples(self):
        with_warmup = _run(
            DetectorConfig(sample_size=25, known_n=5, known_k=5),
            pm=0,
            duration_s=3.0,
        )
        without = _run(
            DetectorConfig(sample_size=25, known_n=5, known_k=5, warmup_slots=0),
            pm=0,
            duration_s=3.0,
        )
        assert len(without.observations) >= len(with_warmup.observations)

    def test_max_test_attempt_filters_window(self):
        detector = _run(
            DetectorConfig(sample_size=25, known_n=5, known_k=5,
                           max_test_attempt=1),
            pm=0,
            duration_s=6.0,
        )
        # Observations record all attempts; only attempt-1 samples enter
        # the test window, which therefore lags the observation count.
        high_attempts = [o for o in detector.observations if o.attempt > 1]
        if high_attempts:
            assert detector.test.n_samples <= len(detector.observations) - len(
                high_attempts
            ) + detector.test.sample_size

    def test_negative_p_ib_scale_rejected(self):
        from repro.core.sysstate import SystemStateEstimator

        with pytest.raises(ValueError):
            SystemStateEstimator().probabilities(0.5, 5, 5, p_ib_scale=-1.0)


class TestConfigValidation:
    """A field a downstream constructor or estimate would reject fails
    when the config is built, not mid-run."""

    @pytest.mark.parametrize(
        "name, fields",
        [
            ("arma_alpha", {"arma_alpha": 1.5}),
            ("arma_interval_slots", {"arma_interval_slots": 0}),
            ("known_n", {"known_n": -1, "known_k": 5}),
            ("known_k", {"known_n": 5, "known_k": -1}),
        ],
        ids=["arma_alpha", "arma_interval_slots", "known_n", "known_k"],
    )
    def test_bad_field_fails_at_construction(self, name, fields):
        with pytest.raises(ValueError, match=name):
            DetectorConfig(**fields)

    def test_defaults_and_known_counts_accepted(self):
        DetectorConfig()
        DetectorConfig(known_n=0, known_k=0, arma_alpha=1.0)
