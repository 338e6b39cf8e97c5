"""Unit tests for the Simulation facade (flows, policies, configs)."""

import pytest

from repro.mac.adversary import AttemptAlwaysOne
from repro.mac.misbehavior import PercentageMisbehavior
from repro.sim.listeners import StatsCollector
from repro.sim.network import Flow, Simulation, SimulationConfig
from repro.topology.mobility import RandomWaypoint
from repro.topology.placement import grid_positions
from repro.util.rng import RngStream


class TestFlowValidation:
    def test_defaults(self):
        f = Flow(source=0)
        assert f.kind == "poisson"
        assert f.picks_per_packet  # poisson re-picks per packet

    def test_cbr_fixed_destination(self):
        assert not Flow(source=0, kind="cbr").picks_per_packet

    def test_override_per_packet(self):
        assert Flow(source=0, kind="cbr", per_packet_destination=True).picks_per_packet

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            Flow(source=0, kind="vbr")

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            Flow(source=0, load=0)


class TestSimulationAssembly:
    def test_builds_macs_for_all_nodes(self):
        sim = Simulation(grid_positions(rows=2, cols=2))
        assert set(sim.macs) == {0, 1, 2, 3}

    def test_policies_installed(self):
        policy = PercentageMisbehavior(40)
        sim = Simulation(
            grid_positions(rows=2, cols=2), policies={1: policy}
        )
        assert sim.macs[1].policy is policy
        assert sim.macs[0].policy is not policy

    def test_mac_options(self):
        policy = AttemptAlwaysOne()
        sim = Simulation(
            grid_positions(rows=2, cols=2),
            mac_options={2: {"announcement": policy}},
        )
        assert sim.macs[2].announcement is policy

    def test_unknown_flow_source_rejected(self):
        with pytest.raises(ValueError):
            Simulation(grid_positions(rows=2, cols=2), flows=[Flow(source=99)])

    def test_duplicate_flow_source_rejected(self):
        with pytest.raises(ValueError):
            Simulation(
                grid_positions(rows=2, cols=2),
                flows=[Flow(source=0), Flow(source=0)],
            )

    def test_queue_capacity_from_config(self):
        sim = Simulation(
            grid_positions(rows=2, cols=2),
            config=SimulationConfig(queue_capacity=7),
        )
        assert sim.macs[0].queue.capacity == 7


class TestSimulationRuns:
    def test_fixed_destination_flow_delivers(self):
        stats = StatsCollector()
        sim = Simulation(
            grid_positions(rows=1, cols=2),
            flows=[Flow(source=0, destination=1, load=0.3)],
        )
        sim.add_listener(stats)
        sim.run(duration_s=0.5)
        assert stats.successes > 0

    def test_random_neighbor_destination(self):
        stats = StatsCollector()
        sim = Simulation(
            grid_positions(rows=2, cols=2),
            flows=[Flow(source=0, load=0.3)],
        )
        sim.add_listener(stats)
        sim.run(duration_s=0.5)
        assert stats.successes > 0

    def test_reproducibility(self):
        def run(seed):
            stats = StatsCollector()
            sim = Simulation(
                grid_positions(rows=3, cols=3),
                flows=[Flow(source=i, load=0.4) for i in range(4)],
                config=SimulationConfig(seed=seed),
            )
            sim.add_listener(stats)
            sim.run(duration_s=0.5)
            return (stats.transmissions, stats.successes, stats.failures)

        assert run(5) == run(5)
        assert run(5) != run(6)  # different seeds diverge (overwhelmingly)

    def test_run_slots(self):
        sim = Simulation(grid_positions(rows=1, cols=2))
        final = sim.run_slots(1234)
        assert final == 1234

    def test_isolated_node_generates_no_deliveries(self):
        stats = StatsCollector()
        sim = Simulation(
            [(0.0, 0.0), (5000.0, 5000.0)],
            flows=[Flow(source=0, load=0.3)],
        )
        sim.add_listener(stats)
        sim.run(duration_s=0.2)
        assert stats.successes == 0

    def test_mobile_simulation_runs(self):
        initial = grid_positions(rows=2, cols=2, spacing=200)
        mobility = RandomWaypoint(
            initial,
            width=600,
            height=600,
            max_speed=20.0,
            rng=RngStream(4, "wp"),
        )
        stats = StatsCollector()
        sim = Simulation(mobility, flows=[Flow(source=0, load=0.4)])
        sim.add_listener(stats)
        sim.run(duration_s=2.0)
        assert stats.transmissions > 0

    def test_shadowing_config(self):
        sim = Simulation(
            grid_positions(rows=2, cols=2),
            config=SimulationConfig(shadowing_sigma_db=6.0),
        )
        # The propagation model must be the shadowing one.
        from repro.phy.propagation import LogNormalShadowing

        assert isinstance(sim.channel.propagation, LogNormalShadowing)
