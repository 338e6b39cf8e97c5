"""Cross-module integration tests: detection under harder conditions.

These exercise combinations the unit tests don't: shadowing channels,
multiple simultaneous monitors, and the extension attack strategies
running through the full simulator.
"""

import pytest

from repro.core.detector import BackoffMisbehaviorDetector, DetectorConfig
from repro.mac.misbehavior import (
    IntermittentMisbehavior,
    PercentageMisbehavior,
)
from repro.sim.network import Flow, Simulation, SimulationConfig
from repro.topology.placement import center_pair_indices, grid_positions
from repro.util.rng import RngStream


def _grid_sim(policies=None, seed=3, load=0.6, shadowing=0.0):
    positions = grid_positions()
    sender, monitor = center_pair_indices()
    flows = [
        Flow(source=i, load=load)
        for i in range(len(positions))
        if i != monitor
    ]
    sim = Simulation(
        positions,
        flows=flows,
        policies=policies,
        config=SimulationConfig(seed=seed, shadowing_sigma_db=shadowing),
    )
    return sim, sender, monitor


class TestShadowingChannel:
    @staticmethod
    def _pick_decodable_monitor(sim, sender, fallback):
        """Shadowing can silence the nominal S-R link; monitor from any
        neighbor that can actually decode the sender."""
        neighbors = sorted(sim.medium.neighbors(sender))
        return neighbors[0] if neighbors else fallback

    def test_honest_node_stays_clean_under_shadowing(self):
        sim, sender, monitor = _grid_sim(shadowing=4.0, seed=11)
        monitor = self._pick_decodable_monitor(sim, sender, monitor)
        det = BackoffMisbehaviorDetector(
            monitor, sender,
            config=DetectorConfig(sample_size=25, known_n=5, known_k=5),
        )
        sim.add_listener(det)
        sim.run(12.0)
        stat = [v for v in det.verdicts if not v.deterministic]
        if stat:
            rate = sum(v.is_malicious for v in stat) / len(stat)
            assert rate < 0.2
        assert len(det.violations) == 0

    def test_cheater_caught_under_shadowing(self):
        sender, _ = center_pair_indices()
        sim, sender, monitor = _grid_sim(
            policies={sender: PercentageMisbehavior(70)},
            shadowing=4.0,
            seed=11,
        )
        monitor = self._pick_decodable_monitor(sim, sender, monitor)
        det = BackoffMisbehaviorDetector(
            monitor, sender,
            config=DetectorConfig(sample_size=25, known_n=5, known_k=5),
        )
        sim.add_listener(det)
        sim.run(20.0)
        assert len(det.observations) > 0
        assert det.flagged_malicious


class TestMultipleMonitors:
    def test_independent_monitors_agree(self):
        """The paper: every neighbor monitors; here two monitors watch
        the same cheater and both should converge to the same verdict."""
        positions = grid_positions()
        sender, monitor = center_pair_indices()
        second_monitor = sender - 1  # the neighbor on the other side
        flows = [
            Flow(source=i, load=0.6)
            for i in range(len(positions))
            if i not in (monitor, second_monitor)
        ]
        sim = Simulation(
            positions,
            flows=flows,
            policies={sender: PercentageMisbehavior(65)},
            config=SimulationConfig(seed=21),
        )
        detectors = [
            BackoffMisbehaviorDetector(
                m, sender,
                config=DetectorConfig(sample_size=25, known_n=5, known_k=5),
            )
            for m in (monitor, second_monitor)
        ]
        for det in detectors:
            sim.add_listener(det)
        sim.run(12.0)
        for det in detectors:
            assert det.flagged_malicious, f"monitor {det.monitor_id} missed it"


class TestIntermittentAttack:
    def test_diluted_cheat_detected_with_larger_windows(self):
        positions = grid_positions()
        sender, monitor = center_pair_indices()
        policy = IntermittentMisbehavior(
            PercentageMisbehavior(90), 0.5, RngStream(4, "dilute")
        )
        flows = [
            Flow(source=i, load=0.6)
            for i in range(len(positions))
            if i != monitor
        ]
        sim = Simulation(
            positions,
            flows=flows,
            policies={sender: policy},
            config=SimulationConfig(seed=13),
        )
        det = BackoffMisbehaviorDetector(
            monitor, sender,
            config=DetectorConfig(sample_size=50, known_n=5, known_k=5),
        )
        sim.add_listener(det)
        sim.run(20.0)
        assert policy.cheated_draws > 0
        assert det.flagged_malicious
