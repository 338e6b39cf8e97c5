"""Unit tests for the DCF MAC entity state machine."""

import pytest

from repro.mac.adversary import AttemptAlwaysOne, StaleSequenceOffset
from repro.mac.dcf import DcfMac, MacState
from repro.mac.digest import data_digest
from repro.mac.misbehavior import PercentageMisbehavior
from repro.traffic.queue import Packet


def _packet(destination=2):
    return Packet(source=1, destination=destination)


@pytest.fixture
def mac():
    return DcfMac(1)


class TestStateMachine:
    def test_initial_idle(self, mac):
        assert mac.state is MacState.IDLE
        assert not mac.needs_backoff_draw()

    def test_enqueue_triggers_draw_need(self, mac):
        mac.enqueue(_packet())
        assert mac.needs_backoff_draw()

    def test_draw_moves_to_contending(self, mac):
        mac.enqueue(_packet())
        mac.draw_backoff()
        assert mac.state is MacState.CONTENDING
        assert not mac.needs_backoff_draw()

    def test_begin_transmission(self, mac):
        mac.enqueue(_packet())
        mac.draw_backoff()
        mac.begin_transmission()
        assert mac.state is MacState.TRANSMITTING

    def test_success_pops_packet_resets_attempt(self, mac):
        mac.enqueue(_packet())
        mac.draw_backoff()
        mac.begin_transmission()
        mac.complete_transmission(True)
        assert mac.state is MacState.IDLE
        assert mac.attempt == 1
        assert mac.stats.successes == 1

    def test_failure_increments_attempt_keeps_packet(self, mac):
        mac.enqueue(_packet())
        mac.draw_backoff()
        mac.begin_transmission()
        mac.complete_transmission(False)
        assert mac.attempt == 2
        assert mac.has_traffic
        assert mac.stats.failures == 1

    def test_retry_limit_drops_packet(self, mac):
        mac.enqueue(_packet())
        for _ in range(mac.timing.retry_limit):
            mac.draw_backoff()
            mac.begin_transmission()
            mac.complete_transmission(False)
        assert not mac.has_traffic
        assert mac.stats.drops == 1
        assert mac.attempt == 1

    def test_draw_without_packet_rejected(self, mac):
        with pytest.raises(RuntimeError):
            mac.draw_backoff()

    def test_double_draw_rejected(self, mac):
        mac.enqueue(_packet())
        mac.draw_backoff()
        with pytest.raises(RuntimeError):
            mac.draw_backoff()

    def test_complete_without_transmit_rejected(self, mac):
        with pytest.raises(RuntimeError):
            mac.complete_transmission(True)


class TestPrsConsumption:
    def test_offsets_consumed_sequentially(self, mac):
        mac.enqueue(_packet())
        mac.enqueue(_packet())
        for expected_offset in (0, 1):
            mac.draw_backoff()
            assert mac.current_draw.offset == expected_offset
            mac.begin_transmission()
            mac.complete_transmission(True)

    def test_retransmission_consumes_new_offset(self, mac):
        mac.enqueue(_packet())
        mac.draw_backoff()
        mac.begin_transmission()
        mac.complete_transmission(False)
        mac.draw_backoff()
        assert mac.current_draw.offset == 1
        assert mac.current_draw.attempt == 2

    def test_honest_draw_matches_prs(self, mac):
        mac.enqueue(_packet())
        actual = mac.draw_backoff()
        assert actual == mac.prng.dictated_backoff(0, 1)
        assert mac.current_draw.dictated == actual

    def test_misbehaving_draw_shrinks(self):
        mac = DcfMac(1, policy=PercentageMisbehavior(50))
        mac.enqueue(_packet())
        mac.draw_backoff()
        draw = mac.current_draw
        assert draw.actual == round(draw.dictated / 2)


class TestRtsConstruction:
    def test_rts_announces_draw(self, mac):
        packet = _packet(destination=9)
        mac.enqueue(packet)
        mac.draw_backoff()
        rts = mac.build_rts()
        assert rts.sender == 1
        assert rts.receiver == 9
        assert rts.seq_off == 0
        assert rts.attempt == 1
        assert rts.digest == data_digest(packet.payload)

    def test_rts_tracks_attempt(self, mac):
        mac.enqueue(_packet())
        mac.draw_backoff()
        mac.begin_transmission()
        mac.complete_transmission(False)
        mac.draw_backoff()
        rts = mac.build_rts()
        assert rts.attempt == 2
        assert rts.seq_off == 1

    def test_rts_before_draw_rejected(self, mac):
        mac.enqueue(_packet())
        with pytest.raises(RuntimeError):
            mac.build_rts()

    def test_attempt_liar_always_announces_one(self):
        mac = DcfMac(1, announcement=AttemptAlwaysOne())
        mac.enqueue(_packet())
        mac.draw_backoff()
        mac.begin_transmission()
        mac.complete_transmission(False)
        mac.draw_backoff()
        assert mac.build_rts().attempt == 1

    def test_offset_liar_reuses_offset(self):
        mac = DcfMac(1, announcement=StaleSequenceOffset())
        mac.enqueue(_packet())
        mac.enqueue(_packet())
        mac.draw_backoff()
        mac.begin_transmission()
        mac.complete_transmission(True)
        mac.draw_backoff()
        # Real offset is 1; the liar announces 0 again.
        assert mac.build_rts().seq_off == 0


class TestStats:
    def test_backoff_totals(self, mac):
        mac.enqueue(_packet())
        mac.enqueue(_packet())
        total = 0
        for _ in range(2):
            total += mac.draw_backoff()
            mac.begin_transmission()
            mac.complete_transmission(True)
        assert mac.stats.total_actual_backoff == total
        assert mac.stats.backoffs_drawn == 2
        assert mac.stats.attempts == 2
