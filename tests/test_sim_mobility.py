"""Engine behavior under mobility and load extremes."""

import pytest

from repro.sim.listeners import SimulationListener, StatsCollector
from repro.sim.network import Flow, Simulation, SimulationConfig
from repro.topology.mobility import RandomWaypoint
from repro.topology.placement import grid_positions
from repro.util.rng import RngStream


class _EpochCounter(SimulationListener):
    def __init__(self):
        self.epochs = 0
        self.last_positions = None

    def on_positions_updated(self, slot, positions, medium):
        self.epochs += 1
        self.last_positions = positions


class TestMobilityEpochs:
    def _mobile_sim(self, epoch_interval_s=0.5):
        initial = grid_positions(rows=2, cols=3, spacing=200)
        mobility = RandomWaypoint(
            initial,
            width=800,
            height=600,
            max_speed=20.0,
            rng=RngStream(2, "wp"),
        )
        return Simulation(
            mobility,
            flows=[Flow(source=0, load=0.4)],
            config=SimulationConfig(seed=2, epoch_interval_s=epoch_interval_s),
        )

    def test_epochs_fire_at_interval(self):
        sim = self._mobile_sim(epoch_interval_s=0.5)
        counter = _EpochCounter()
        sim.add_listener(counter)
        sim.run(3.0)
        assert counter.epochs == 6

    def test_positions_change_between_epochs(self):
        sim = self._mobile_sim(epoch_interval_s=1.0)
        counter = _EpochCounter()
        sim.add_listener(counter)
        sim.run(1.1)
        first = counter.last_positions
        sim.run(1.0)
        second = counter.last_positions
        assert first != second

    def test_static_simulation_has_no_epochs(self):
        sim = Simulation(
            grid_positions(rows=2, cols=2),
            flows=[Flow(source=0, load=0.4)],
        )
        counter = _EpochCounter()
        sim.add_listener(counter)
        sim.run(3.0)
        assert counter.epochs == 0

    def test_traffic_survives_topology_changes(self):
        sim = self._mobile_sim()
        stats = StatsCollector()
        sim.add_listener(stats)
        sim.run(5.0)
        assert stats.transmissions > 0


class TestLoadExtremes:
    def test_overload_fills_queue_and_drops(self):
        """Load far beyond capacity: the drop-tail queue must bound
        memory and count drops."""
        positions = grid_positions(rows=1, cols=2)
        sim = Simulation(
            positions,
            flows=[Flow(source=0, destination=1, load=30.0)],
            config=SimulationConfig(seed=4, queue_capacity=10),
        )
        sim.run(2.0)
        mac = sim.macs[0]
        assert len(mac.queue) <= 10
        assert mac.queue.drops > 0
        assert mac.stats.successes > 0

    def test_tiny_load_produces_sparse_traffic(self):
        positions = grid_positions(rows=1, cols=2)
        stats = StatsCollector()
        sim = Simulation(
            positions,
            flows=[Flow(source=0, destination=1, load=0.01)],
        )
        sim.add_listener(stats)
        sim.run(2.0)
        # ~ 0.01 * (100000 slots / ~360 service slots) ~ a couple packets.
        assert 0 <= stats.transmissions < 20

    def test_saturated_channel_utilization(self):
        """Under saturation the channel around a node should be busy
        most of the time."""
        from repro.core.observation import ChannelObserver

        positions = grid_positions()
        flows = [Flow(source=i, load=0.8) for i in range(0, 56)]
        sim = Simulation(positions, flows=flows, config=SimulationConfig(seed=5))
        observer = ChannelObserver(27, 28)
        sim.add_listener(observer)
        sim.run(2.0)
        _idle, busy = observer.idle_busy_counts(0, sim.engine.now)
        assert busy / sim.engine.now > 0.5
