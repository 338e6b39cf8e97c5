"""Unit tests for the channel observer (the monitor's raw view)."""

from repro.core.observation import ChannelObserver, joint_state_counts
from repro.phy.channel import Channel
from repro.phy.medium import Medium, Transmission


def _medium():
    m = Medium(Channel())
    m.update_positions({0: (0, 0), 1: (240, 0), 2: (480, 0), 9: (5000, 0)})
    return m


def _tx(sender, receiver, start, end, frame=None):
    return Transmission(
        sender=sender, receiver=receiver, start_slot=start, end_slot=end,
        kind="handshake", frame=frame,
    )


def _feed(observer, medium, transmissions, success=True):
    for tx in transmissions:
        observer.on_transmission_start(tx.start_slot, tx, medium)
    for tx in transmissions:
        observer.on_transmission_end(tx.end_slot, tx, success, medium)


class TestBusyIntervals:
    def test_single_interval(self):
        m = _medium()
        obs = ChannelObserver(1, 0)
        _feed(obs, m, [_tx(0, 1, 10, 20)])
        assert obs.busy_slots_in(0, 30) == 10
        assert obs.idle_busy_counts(0, 30) == (20, 10)

    def test_clipping(self):
        m = _medium()
        obs = ChannelObserver(1, 0)
        _feed(obs, m, [_tx(0, 1, 10, 20)])
        assert obs.busy_slots_in(15, 18) == 3
        assert obs.busy_slots_in(0, 10) == 0
        assert obs.busy_slots_in(20, 30) == 0

    def test_merge_overlapping(self):
        m = _medium()
        obs = ChannelObserver(1, 0)
        _feed(obs, m, [_tx(0, 1, 10, 20), _tx(2, 1, 15, 25)])
        assert obs.busy_slots_in(0, 40) == 15

    def test_merge_adjacent(self):
        m = _medium()
        obs = ChannelObserver(1, 0)
        _feed(obs, m, [_tx(0, 1, 10, 20), _tx(2, 1, 20, 30)])
        assert obs.busy_slots_in(0, 40) == 20

    def test_out_of_range_tx_ignored(self):
        m = _medium()
        obs = ChannelObserver(1, 0)
        _feed(obs, m, [_tx(9, 0, 10, 20)])  # node 9 is 5 km away
        assert obs.busy_slots_in(0, 30) == 0

    def test_own_transmission_is_busy(self):
        m = _medium()
        obs = ChannelObserver(1, 0)
        _feed(obs, m, [_tx(1, 0, 10, 20)])
        assert obs.busy_slots_in(0, 30) == 10
        assert obs.own_tx_slots_in(0, 30) == 10
        assert obs.own_tx_slots_in(12, 15) == 3

    def test_insert_out_of_order(self):
        m = _medium()
        obs = ChannelObserver(1, 0)
        _feed(obs, m, [_tx(0, 1, 50, 60)])
        _feed(obs, m, [_tx(0, 1, 10, 20)])
        assert obs.busy_slots_in(0, 100) == 20

    def test_empty_range(self):
        obs = ChannelObserver(1, 0)
        assert obs.idle_busy_counts(10, 10) == (0, 0)


class TestTaggedObservations:
    def test_decoded_rts_recorded(self):
        m = _medium()
        obs = ChannelObserver(1, 0)
        frame = object()
        _feed(obs, m, [_tx(0, 1, 10, 20, frame=frame)])
        assert len(obs.observed) == 1
        assert obs.observed[0].rts is frame
        assert obs.observed[0].success

    def test_sensed_but_not_decodable(self):
        m = _medium()
        obs = ChannelObserver(1, 2)  # monitoring node 2 at 480 m
        _feed(obs, m, [_tx(2, 1, 10, 20, frame=object())])
        # Wait: node 2 at 240 m from node 1 is decodable; monitor node 0
        # instead, which is 480 m from node 2.
        obs = ChannelObserver(0, 2)
        _feed(obs, m, [_tx(2, 1, 30, 40, frame=object())])
        assert len(obs.observed) == 1
        assert obs.observed[0].rts is None  # sensed only

    def test_concurrent_interference_blocks_decode(self):
        m = _medium()
        obs = ChannelObserver(1, 0)
        jam = _tx(2, 1, 5, 30)
        rts = _tx(0, 1, 10, 20, frame=object())
        obs.on_transmission_start(5, jam, m)
        m.start_transmission(jam)
        obs.on_transmission_start(10, rts, m)
        obs.on_transmission_end(20, rts, False, m)
        assert obs.observed[0].rts is None

    def test_monitor_transmitting_blocks_decode(self):
        m = _medium()
        obs = ChannelObserver(1, 0)
        own = _tx(1, 2, 5, 30)
        m.start_transmission(own)
        rts = _tx(0, 1, 10, 20, frame=object())
        obs.on_transmission_start(10, rts, m)
        obs.on_transmission_end(20, rts, True, m)
        assert obs.observed[0].rts is None

class TestJointStateCounts:
    def test_partition_sums_to_range(self):
        m = _medium()
        a = ChannelObserver(1, 0)
        b = ChannelObserver(0, 1)
        _feed(a, m, [_tx(0, 1, 10, 20)])
        _feed(b, m, [_tx(0, 1, 10, 20)])
        counts = joint_state_counts(a, b, 0, 100)
        assert sum(counts.values()) == 100

    def test_disjoint_busy_periods(self):
        m = _medium()
        a = ChannelObserver(1, 0)
        b = ChannelObserver(0, 1)
        _feed(a, m, [_tx(2, 1, 0, 10)])   # node 2 sensed by 1, not by 0? 480m: sensed!
        counts = joint_state_counts(a, b, 0, 10)
        # node 2 is 480 m from node 0: still within sensing range, so b
        # missed it only because it wasn't fed.
        assert counts["BI"] == 10

    def test_both_busy(self):
        m = _medium()
        a = ChannelObserver(1, 0)
        b = ChannelObserver(0, 1)
        tx = _tx(0, 1, 5, 15)
        _feed(a, m, [tx])
        _feed(b, m, [tx])
        counts = joint_state_counts(a, b, 0, 20)
        assert counts["BB"] == 10
        assert counts["II"] == 10

    def test_empty_range(self):
        a = ChannelObserver(1, 0)
        b = ChannelObserver(0, 1)
        assert joint_state_counts(a, b, 5, 5)["II"] == 0
