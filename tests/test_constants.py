"""Unit tests for MAC timing constants."""

import dataclasses
import pickle

import pytest

from repro.mac.constants import DEFAULT_TIMING, MacTiming
from repro.util.units import microseconds_to_slots


class TestDefaultTiming:
    def test_slot_is_20us(self):
        assert DEFAULT_TIMING.slot_time_us == 20.0

    def test_difs_three_slots(self):
        assert DEFAULT_TIMING.difs_slots == 3

    def test_sifs_one_slot(self):
        assert DEFAULT_TIMING.sifs_slots == 1

    def test_modified_rts_is_38_bytes(self):
        # Stock 20-byte RTS + 2 bytes SeqOff#/Attempt# + 16-byte MD5.
        assert DEFAULT_TIMING.rts_bytes == 38

    def test_rts_air_time(self):
        # 38 bytes at 1 Mb/s + 192 us preamble = 496 us -> 25 slots.
        assert DEFAULT_TIMING.rts_slots == 25

    def test_cts_air_time(self):
        # 14 bytes at 1 Mb/s + 192 us = 304 us -> 16 slots.
        assert DEFAULT_TIMING.cts_slots == 16

    def test_data_air_time(self):
        # (512+28) bytes at 2 Mb/s + 192 us = 2352 us -> 118 slots.
        assert DEFAULT_TIMING.data_slots == 118

    def test_exchange_longer_than_handshake(self):
        assert DEFAULT_TIMING.exchange_slots > DEFAULT_TIMING.handshake_slots

    def test_handshake_composition(self):
        t = DEFAULT_TIMING
        assert t.handshake_slots == t.rts_slots + t.sifs_slots + t.cts_slots

    def test_exchange_composition(self):
        t = DEFAULT_TIMING
        assert t.exchange_slots == (
            t.handshake_slots
            + t.sifs_slots
            + t.data_slots
            + t.sifs_slots
            + t.ack_slots
        )

    def test_mean_service_includes_backoff(self):
        t = DEFAULT_TIMING
        assert t.mean_service_slots > t.exchange_slots

    def test_cw_bounds(self):
        assert DEFAULT_TIMING.cw_min == 31
        assert DEFAULT_TIMING.cw_max == 1023

    def test_retry_limit(self):
        assert DEFAULT_TIMING.retry_limit == 7


class TestCustomTiming:
    def test_payload_changes_data_slots(self):
        small = MacTiming(payload_bytes=64)
        assert small.data_slots < DEFAULT_TIMING.data_slots

    def test_invalid_cw_rejected(self):
        with pytest.raises(ValueError):
            MacTiming(cw_min=64, cw_max=32)

    def test_invalid_slot_time_rejected(self):
        with pytest.raises(ValueError):
            MacTiming(slot_time_us=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_TIMING.cw_min = 15


SLOT_NAMES = (
    "sifs_slots",
    "difs_slots",
    "rts_slots",
    "cts_slots",
    "ack_slots",
    "data_slots",
    "handshake_slots",
    "payload_phase_slots",
    "exchange_slots",
    "mean_service_slots",
)


def _recomputed(timing):
    """Every ``*_slots`` value walked from the microsecond fields."""

    def to_slots(us):
        return microseconds_to_slots(us, timing.slot_time_us)

    def frame(size, rate):
        return to_slots(timing.phy_overhead_us + size * 8 * 1e6 / rate)

    sifs, difs = to_slots(timing.sifs_us), to_slots(timing.difs_us)
    rts = frame(timing.rts_bytes, timing.basic_rate_bps)
    cts = frame(timing.cts_bytes, timing.basic_rate_bps)
    ack = frame(timing.ack_bytes, timing.basic_rate_bps)
    data = frame(
        timing.payload_bytes + timing.mac_data_header_bytes, timing.data_rate_bps
    )
    handshake = rts + sifs + cts
    payload_phase = sifs + data + sifs + ack
    exchange = handshake + payload_phase
    return {
        "sifs_slots": sifs,
        "difs_slots": difs,
        "rts_slots": rts,
        "cts_slots": cts,
        "ack_slots": ack,
        "data_slots": data,
        "handshake_slots": handshake,
        "payload_phase_slots": payload_phase,
        "exchange_slots": exchange,
        "mean_service_slots": exchange + difs + timing.cw_min // 2,
    }


CUSTOM = MacTiming(
    slot_time_us=9.0, sifs_us=16.0, difs_us=34.0, payload_bytes=1500
)
TIMINGS = pytest.mark.parametrize(
    "timing", [DEFAULT_TIMING, CUSTOM], ids=["default", "custom"]
)


class TestCachedSlotValues:
    """The ``*_slots`` values are resolved once per instance."""

    @TIMINGS
    def test_values_match_the_chain_and_stay_put(self, timing):
        expected = _recomputed(timing)
        first = {name: getattr(timing, name) for name in SLOT_NAMES}
        second = {name: getattr(timing, name) for name in SLOT_NAMES}
        assert first == second == expected

    @TIMINGS
    def test_replace_recomputes(self, timing):
        cached = timing.data_slots  # fill the cache before deriving a copy
        small = dataclasses.replace(timing, payload_bytes=64)
        assert small.data_slots == _recomputed(small)["data_slots"]
        assert small.data_slots < cached

    @TIMINGS
    def test_pickle_round_trip(self, timing):
        values = {name: getattr(timing, name) for name in SLOT_NAMES}
        restored = pickle.loads(pickle.dumps(timing))
        assert restored == timing
        assert hash(restored) == hash(timing)
        assert {name: getattr(restored, name) for name in SLOT_NAMES} == values

    def test_cache_is_not_a_field(self):
        fresh = MacTiming()
        assert DEFAULT_TIMING.exchange_slots > 0  # now cached, fresh is not
        assert fresh == DEFAULT_TIMING
        assert hash(fresh) == hash(DEFAULT_TIMING)
