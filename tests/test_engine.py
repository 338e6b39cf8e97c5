"""Unit tests for the event-driven simulation engine.

Uses miniature networks where exact slot arithmetic can be checked by
hand against the DCF rules.
"""

import pytest

from repro.mac.constants import DEFAULT_TIMING
from repro.mac.dcf import DcfMac
from repro.phy.channel import Channel
from repro.phy.medium import Medium
from repro.sim.engine import EventKind, SimulationEngine
from repro.sim.listeners import SimulationListener, StatsCollector
from repro.sim.network import Flow, Simulation
from repro.topology.placement import grid_positions
from repro.traffic.queue import Packet


class _Recorder(SimulationListener):
    def __init__(self):
        self.starts = []
        self.ends = []

    def on_transmission_start(self, slot, tx, medium):
        self.starts.append((slot, tx.sender, tx.receiver))

    def on_transmission_end(self, slot, tx, success, medium):
        self.ends.append((slot, tx.sender, success, tx.start_slot, tx.end_slot))


class _Lifecycle(SimulationListener):
    """Every transmission start and outcome, in hook delivery order."""

    def __init__(self):
        self.events = []

    def on_transmission_start(self, slot, tx, medium):
        self.events.append((slot, "start", (tx.sender, tx.start_slot)))

    def on_transmission_end(self, slot, tx, success, medium):
        self.events.append((slot, "end", (tx.sender, tx.start_slot)))


def _engine(positions, listeners=None):
    medium = Medium(Channel())
    medium.update_positions(positions)
    macs = {i: DcfMac(i) for i in positions}
    engine = SimulationEngine(
        medium, macs, DEFAULT_TIMING, listeners=listeners or []
    )
    return engine, medium, macs


class TestSingleTransmission:
    def test_exact_timing(self):
        rec = _Recorder()
        engine, _medium, macs = _engine({0: (0, 0), 1: (200, 0)}, [rec])
        macs[0].enqueue(Packet(source=0, destination=1))
        engine.run_until(100_000)

        t = DEFAULT_TIMING
        backoff = macs[0].prng.dictated_backoff(0, 1)
        expected_start = t.difs_slots + backoff
        assert rec.starts[0] == (expected_start, 0, 1)
        slot, sender, success, start, end = rec.ends[0]
        assert success
        assert end - start == t.exchange_slots

    def test_queue_drains(self):
        engine, _medium, macs = _engine({0: (0, 0), 1: (200, 0)})
        for _ in range(3):
            macs[0].enqueue(Packet(source=0, destination=1))
        engine.run_until(100_000)
        assert not macs[0].has_traffic
        assert macs[0].stats.successes == 3

    def test_unreachable_receiver_fails_and_drops(self):
        rec = _Recorder()
        engine, _medium, macs = _engine({0: (0, 0), 1: (5000, 0)}, [rec])
        macs[0].enqueue(Packet(source=0, destination=1))
        engine.run_until(1_000_000)
        assert all(not success for _s, _snd, success, _a, _b in rec.ends)
        assert macs[0].stats.drops == 1
        assert len(rec.ends) == DEFAULT_TIMING.retry_limit

    def test_failed_handshake_short_busy_period(self):
        rec = _Recorder()
        engine, _medium, macs = _engine({0: (0, 0), 1: (5000, 0)}, [rec])
        macs[0].enqueue(Packet(source=0, destination=1))
        engine.run_until(1_000_000)
        _slot, _sender, _success, start, end = rec.ends[0]
        assert end - start == DEFAULT_TIMING.handshake_slots

    def test_retry_backoffs_follow_prs(self):
        """Each retry consumes the next PRS offset with a doubled CW."""
        rec = _Recorder()
        engine, _medium, macs = _engine({0: (0, 0), 1: (5000, 0)}, [rec])
        macs[0].enqueue(Packet(source=0, destination=1))
        engine.run_until(1_000_000)
        t = DEFAULT_TIMING
        prng = macs[0].prng
        expected = t.difs_slots + prng.dictated_backoff(0, 1)
        assert rec.starts[0][0] == expected
        # Second attempt: DIFS + dictated(offset=1, attempt=2) after the
        # failed handshake ends.
        second = rec.ends[0][0] + t.difs_slots + prng.dictated_backoff(1, 2)
        assert rec.starts[1][0] == second


class TestContention:
    def test_two_contenders_serialize(self):
        """Nodes within sensing range overlap only by colliding in the
        same slot (both timers hit zero together) — never partially."""
        rec = _Recorder()
        engine, _medium, macs = _engine(
            {0: (0, 0), 1: (240, 0), 2: (120, 200)}, [rec]
        )
        for _ in range(3):
            macs[0].enqueue(Packet(source=0, destination=2))
            macs[1].enqueue(Packet(source=1, destination=2))
        engine.run_until(500_000)
        periods = sorted((start, end) for _s, _snd, _ok, start, end in rec.ends)
        for (s1, e1), (s2, e2) in zip(periods, periods[1:]):
            assert s2 >= e1 or s2 == s1, f"partial overlap: ({s1},{e1}) vs ({s2},{e2})"

    def test_freeze_preserves_total_countdown(self):
        """A node frozen by a neighbor's transmission still counts its
        full dictated back-off in total."""
        rec = _Recorder()
        engine, _medium, macs = _engine({0: (0, 0), 1: (240, 0), 2: (480, 0)}, [rec])
        # Node 1 will grab the channel first (we give node 0 a head start
        # by enqueueing node 1 with a packet while 0 arrives later).
        macs[1].enqueue(Packet(source=1, destination=0))
        macs[0].enqueue(Packet(source=0, destination=1))
        engine.run_until(500_000)
        # Whatever the interleaving, both queues drained successfully.
        assert macs[0].stats.successes == 1
        assert macs[1].stats.successes == 1

    def test_hidden_terminal_corrupts(self):
        """0 and 2 are out of each other's sensing range (1300 m apart)
        but both interfere at 1 (650 m from each): simultaneous sends
        collide at the receiver."""
        rec = _Recorder()
        positions = {0: (0, 0), 1: (650, 0), 2: (1300, 0)}
        medium = Medium(Channel(transmission_range=700, sensing_range=700))
        medium.update_positions(positions)
        macs = {i: DcfMac(i) for i in positions}
        engine = SimulationEngine(medium, macs, DEFAULT_TIMING, listeners=[rec])
        macs[0].enqueue(Packet(source=0, destination=1))
        macs[2].enqueue(Packet(source=2, destination=1))
        engine.run_until(2_000_000)
        # With identical arrival times and independent back-offs the two
        # senders cannot sense each other; at least one early attempt
        # must have failed (they start within a handshake of each other).
        failures = [e for e in rec.ends if not e[2]]
        assert failures, "hidden terminals never collided"
        # Both eventually succeed via retries.
        assert macs[0].stats.successes == 1
        assert macs[2].stats.successes == 1


class TestEngineMechanics:
    def test_cannot_schedule_in_past(self):
        engine, _medium, _macs = _engine({0: (0, 0)})
        engine.now = 100
        with pytest.raises(ValueError):
            engine.schedule(50, EventKind.ARRIVAL, 0)

    def test_run_until_advances_clock(self):
        engine, _medium, _macs = _engine({0: (0, 0)})
        engine.run_until(500)
        assert engine.now == 500

    def test_stop_condition(self):
        rec = _Recorder()
        engine, _medium, macs = _engine({0: (0, 0), 1: (200, 0)}, [rec])
        for _ in range(10):
            macs[0].enqueue(Packet(source=0, destination=1))
        engine.run_until(1_000_000, stop_condition=lambda: len(rec.ends) >= 2)
        assert len(rec.ends) == 2
        assert engine.now < 1_000_000

    def test_stats_collector_integration(self):
        stats = StatsCollector()
        engine, _medium, macs = _engine({0: (0, 0), 1: (200, 0)}, [stats])
        macs[0].enqueue(Packet(source=0, destination=1))
        engine.run_until(100_000)
        assert stats.transmissions == 1
        assert stats.successes == 1
        assert stats.success_ratio == 1.0

    def test_every_start_has_one_outcome_in_slot_order(self):
        """A real simulation's transmission stream is consistent: every
        start is followed by exactly one outcome, and hook slots never
        go backwards."""
        sim = Simulation(
            grid_positions(rows=1, cols=2),
            flows=[Flow(source=0, destination=1, load=0.3)],
        )
        lifecycle = _Lifecycle()
        sim.add_listener(lifecycle)
        sim.run(0.5)
        in_flight = set()
        outcomes = 0
        for _slot, kind, key in lifecycle.events:
            if kind == "start":
                assert key not in in_flight
                in_flight.add(key)
            else:
                in_flight.remove(key)
                outcomes += 1
        assert outcomes > 0
        assert not in_flight
        slots = [slot for slot, _kind, _key in lifecycle.events]
        assert slots == sorted(slots)
