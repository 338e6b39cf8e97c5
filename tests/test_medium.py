"""Unit tests for repro.phy.medium."""

import pytest

from repro.phy.channel import Channel
from repro.phy.medium import Medium, Transmission


@pytest.fixture
def medium():
    """Three nodes in a line: 0 -- 240m -- 1 -- 240m -- 2.

    0 and 2 are 480 m apart: inside sensing range (550) of each other but
    outside decode range (250).
    """
    m = Medium(Channel())
    m.update_positions({0: (0, 0), 1: (240, 0), 2: (480, 0)})
    return m


class TestReachability:
    def test_neighbors_decode_range(self, medium):
        assert medium.neighbors(0) == {1}
        assert medium.neighbors(1) == {0, 2}

    def test_sensors_of_symmetric_model(self, medium):
        assert medium.sensors_of(0) == {1, 2}
        assert medium.sensors_of(1) == {0, 2}

    def test_can_decode(self, medium):
        assert medium.can_decode(0, 1)
        assert not medium.can_decode(0, 2)

    def test_senses(self, medium):
        assert medium.senses(0, 2)

    def test_positions_read_only(self, medium):
        positions = medium.positions
        with pytest.raises(TypeError):
            positions[0] = (999, 999)
        assert medium.positions[0] == (0, 0)


class TestTransmissions:
    def test_start_and_end(self, medium):
        tx = Transmission(sender=0, receiver=1, start_slot=0, end_slot=10)
        tx_id = medium.start_transmission(tx)
        assert medium.is_transmitting(0)
        assert medium.active_item(tx_id) is tx
        assert medium.end_transmission(tx_id) is tx
        assert not medium.is_transmitting(0)

    def test_zero_duration_rejected(self, medium):
        with pytest.raises(ValueError):
            medium.start_transmission(
                Transmission(sender=0, receiver=1, start_slot=5, end_slot=5)
            )

    def test_senses_busy(self, medium):
        medium.start_transmission(
            Transmission(sender=0, receiver=1, start_slot=0, end_slot=10)
        )
        assert medium.senses_busy(1)
        assert medium.senses_busy(2)  # within 550 m of node 0

    def test_own_transmission_not_busy(self, medium):
        medium.start_transmission(
            Transmission(sender=0, receiver=1, start_slot=0, end_slot=10)
        )
        assert not medium.senses_busy(0)

    def test_interferers_at(self, medium):
        medium.start_transmission(
            Transmission(sender=0, receiver=1, start_slot=0, end_slot=10)
        )
        medium.start_transmission(
            Transmission(sender=2, receiver=1, start_slot=2, end_slot=12)
        )
        assert medium.interferers_at(1, exclude_sender=0) == [2]

    def test_active_items(self, medium):
        tx = Transmission(sender=0, receiver=1, start_slot=0, end_slot=10)
        tx_id = medium.start_transmission(tx)
        assert list(medium.active_items()) == [(tx_id, tx)]
        assert list(medium.active_transmissions()) == [tx]

    def test_active_handshakes(self, medium):
        hs = Transmission(
            sender=0, receiver=1, start_slot=0, end_slot=10, kind="handshake"
        )
        data = Transmission(sender=2, receiver=1, start_slot=0, end_slot=10)
        hs_id = medium.start_transmission(hs)
        medium.start_transmission(data)
        assert list(medium.active_handshakes()) == [(hs_id, hs)]
        medium.extend_transmission(hs_id, 40, kind="exchange")
        assert list(medium.active_handshakes()) == []

    def test_extend_transmission(self, medium):
        tx = Transmission(sender=0, receiver=1, start_slot=0, end_slot=10)
        tx_id = medium.start_transmission(tx)
        medium.extend_transmission(tx_id, 30)
        assert tx.end_slot == 30
        with pytest.raises(ValueError):
            medium.extend_transmission(tx_id, 20)  # never shrink


class TestOutOfRange:
    def test_far_node_not_busy(self):
        m = Medium(Channel())
        m.update_positions({0: (0, 0), 1: (240, 0), 9: (2000, 0)})
        m.start_transmission(
            Transmission(sender=0, receiver=1, start_slot=0, end_slot=10)
        )
        assert not m.senses_busy(9)

    def test_update_positions_rebuilds(self):
        m = Medium(Channel())
        m.update_positions({0: (0, 0), 1: (2000, 0)})
        assert m.neighbors(0) == frozenset()
        m.update_positions({0: (0, 0), 1: (100, 0)})
        assert m.neighbors(0) == {1}
