"""Property-based tests (hypothesis) on the serve wire codec.

The streaming service's byte-identity contract rests on the JSONL codec
being an exact bijection on its domain: every encodable record decodes
back to the same value, slot fields survive as python ints (never
floats), and the decoder rejects anything type-shifted (bools posing as
ints, floats posing as slots) instead of coercing it.  These properties
hold under hypothesis-generated inputs, not just the happy paths the
equivalence suite replays.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.core.observation import (
    ObservedTransmission,
    observed_from_json,
    observed_json_text,
    observed_to_json,
    rts_from_json,
    rts_to_json,
)
from repro.mac.frames import MAX_ATTEMPT_FIELD, RtsFrame
from repro.serve.records import (
    EndEvent,
    PositionsEvent,
    ShutdownEvent,
    StartEvent,
    end_line,
    parse_line,
    positions_line,
    shutdown_line,
    start_line,
)

# -- strategies ------------------------------------------------------------

node_ids = st.integers(min_value=0, max_value=2**40)
slots = st.integers(min_value=0, max_value=2**48)
tx_ids = st.integers(min_value=0, max_value=2**32)

rts_frames = st.builds(
    RtsFrame,
    sender=node_ids,
    receiver=node_ids,
    seq_off=st.integers(min_value=0, max_value=2**31),
    attempt=st.integers(min_value=1, max_value=MAX_ATTEMPT_FIELD),
    digest=st.binary(min_size=16, max_size=16),
)

observed_transmissions = st.builds(
    ObservedTransmission,
    start_slot=slots,
    end_slot=slots,
    rts=st.one_of(st.none(), rts_frames),
    success=st.booleans(),
    receiver=node_ids,
    impairment=st.one_of(
        st.none(), st.text(alphabet=st.characters(codec="ascii"), max_size=12)
    ),
)

id_sets = st.frozensets(node_ids, max_size=6)

finite_coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

position_maps = st.dictionaries(
    node_ids, st.tuples(finite_coords, finite_coords), max_size=6
)


def _wire_trip(data):
    """One hop across the wire: serialize and parse back, like a socket."""
    return json.loads(json.dumps(data))


# -- codec bijection -------------------------------------------------------


class TestCodecRoundTrip:
    @given(frame=rts_frames)
    def test_rts_round_trip_is_exact(self, frame):
        back = rts_from_json(_wire_trip(rts_to_json(frame)))
        assert back == frame
        assert back.digest == frame.digest

    @given(observed=observed_transmissions)
    def test_observed_round_trip_is_exact(self, observed):
        back = observed_from_json(_wire_trip(observed_to_json(observed)))
        assert back == observed

    @given(observed=observed_transmissions)
    def test_slots_stay_exact_ints(self, observed):
        """Slot fields must come back as python ints, never floats —
        a float slot would poison every downstream Slots computation."""
        back = observed_from_json(_wire_trip(observed_to_json(observed)))
        assert type(back.start_slot) is int
        assert type(back.end_slot) is int
        assert type(back.receiver) is int
        if back.rts is not None:
            assert type(back.rts.seq_off) is int
            assert type(back.rts.attempt) is int

    @given(observed=observed_transmissions)
    def test_serialization_is_canonical(self, observed):
        """Encoding is deterministic: two encodes of equal values agree
        byte for byte (sorted keys, no whitespace)."""
        first = json.dumps(observed_to_json(observed), sort_keys=True)
        second = json.dumps(observed_to_json(observed), sort_keys=True)
        assert first == second


# -- line-level round trips ------------------------------------------------


class TestLineRoundTrip:
    @given(slot=slots, tx=tx_ids, sender=node_ids, sensed=id_sets, decoded=id_sets)
    def test_start_line(self, slot, tx, sender, sensed, decoded):
        event = parse_line(start_line(slot, tx, sender, sensed, decoded))
        assert isinstance(event, StartEvent)
        assert event == StartEvent(
            slot=slot, tx=tx, sender=sender, sensed=sensed, decoded=decoded
        )
        assert type(event.slot) is int

    @settings(deadline=None)
    @given(
        slot=slots,
        tx=tx_ids,
        sender=node_ids,
        sensed=id_sets,
        observed=observed_transmissions,
    )
    def test_end_line(self, slot, tx, sender, sensed, observed):
        event = parse_line(end_line(slot, tx, sender, sensed, observed))
        assert isinstance(event, EndEvent)
        assert event == EndEvent(
            slot=slot, tx=tx, sender=sender, sensed=sensed, observed=observed
        )

    @given(slot=slots, positions=position_maps)
    def test_positions_line(self, slot, positions):
        event = parse_line(positions_line(slot, positions))
        assert isinstance(event, PositionsEvent)
        assert event.slot == slot
        assert event.positions == positions

    @given(slot=slots)
    def test_shutdown_line(self, slot):
        event = parse_line(shutdown_line(slot))
        assert event == ShutdownEvent(slot=slot)

    def test_blank_lines_parse_to_none(self):
        assert parse_line("") is None
        assert parse_line("   \t ") is None


# -- direct encoders --------------------------------------------------------


def _dumps(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


observed_any_text = st.builds(
    ObservedTransmission,
    start_slot=slots,
    end_slot=slots,
    rts=st.one_of(st.none(), rts_frames),
    success=st.booleans(),
    receiver=node_ids,
    impairment=st.one_of(st.none(), st.text(max_size=12)),
)


class TestEncoderBytes:
    """``observed_json_text``, ``start_line`` and ``end_line`` format
    their text directly; it must be byte-identical to the sorted-key,
    space-free ``json.dumps`` of the record dict, or captured streams
    (and their goldens) move."""

    @given(observed=observed_any_text)
    def test_observed_json_text_matches_json_dumps(self, observed):
        rts = observed.rts
        expected = _dumps(
            {
                "start_slot": observed.start_slot,
                "end_slot": observed.end_slot,
                "rts": None
                if rts is None
                else {
                    "sender": rts.sender,
                    "receiver": rts.receiver,
                    "seq_off": rts.seq_off,
                    "attempt": rts.attempt,
                    "digest": rts.digest.hex(),
                },
                "success": observed.success,
                "receiver": observed.receiver,
                "impairment": observed.impairment,
            }
        )
        assert observed_json_text(observed) == expected

    @given(slot=slots, tx=tx_ids, sender=node_ids, sensed=id_sets, decoded=id_sets)
    def test_start_line_matches_json_dumps(self, slot, tx, sender, sensed, decoded):
        expected = _dumps(
            {
                "kind": "start",
                "slot": slot,
                "tx": tx,
                "sender": sender,
                "sensed": sorted(sensed),
                "decoded": sorted(decoded),
            }
        )
        assert start_line(slot, tx, sender, sensed, decoded) == expected

    @settings(deadline=None)
    @given(
        slot=slots,
        tx=tx_ids,
        sender=node_ids,
        sensed=id_sets,
        observed=observed_any_text,
    )
    def test_end_line_matches_json_dumps(self, slot, tx, sender, sensed, observed):
        expected = _dumps(
            {
                "kind": "end",
                "slot": slot,
                "tx": tx,
                "sender": sender,
                "sensed": sorted(sensed),
                "observed": observed_to_json(observed),
            }
        )
        assert end_line(slot, tx, sender, sensed, observed) == expected


# -- type-shift rejection --------------------------------------------------


class TestTypeShiftRejection:
    @given(slot=slots)
    def test_float_slot_rejected(self, slot):
        try:
            observed_from_json(
                {
                    "start_slot": float(slot),
                    "end_slot": slot,
                    "rts": None,
                    "success": True,
                    "receiver": 1,
                    "impairment": None,
                }
            )
        except ValueError:
            return
        raise AssertionError("float start_slot was accepted")

    @given(field=st.sampled_from(["start_slot", "end_slot", "receiver"]))
    def test_bool_int_field_rejected(self, field):
        data = {
            "start_slot": 1,
            "end_slot": 2,
            "rts": None,
            "success": True,
            "receiver": 3,
            "impairment": None,
        }
        data[field] = True
        try:
            observed_from_json(data)
        except ValueError:
            return
        raise AssertionError(f"bool {field} was accepted")

    def test_int_success_rejected(self):
        data = {
            "start_slot": 1,
            "end_slot": 2,
            "rts": None,
            "success": 1,
            "receiver": 3,
            "impairment": None,
        }
        try:
            observed_from_json(data)
        except ValueError:
            return
        raise AssertionError("integer success was accepted")

    @given(frame=rts_frames)
    def test_rts_bool_fields_rejected(self, frame):
        data = rts_to_json(frame)
        data["attempt"] = True
        try:
            rts_from_json(data)
        except ValueError:
            return
        raise AssertionError("bool attempt was accepted")
