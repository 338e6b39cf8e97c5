"""Malformed-input fuzzing of the serve session.

The service contract is total: a :class:`ServeSession` fed arbitrary
bytes never raises past :meth:`handle_line` — every bad line (or
well-formed line that violates stream semantics) is counted under
exactly one reason code from the closed ``REJECT_REASONS`` vocabulary,
and the session keeps accepting valid traffic afterwards.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detector import DetectorConfig
from repro.serve.capture import synthetic_links, synthetic_stream
from repro.serve.records import (
    REASON_DUPLICATE_TX,
    REASON_JSON,
    REASON_KIND,
    REASON_NOT_OBJECT,
    REASON_ORPHAN_END,
    REASON_OUT_OF_ORDER,
    REASON_SCHEMA,
    REASON_UNKNOWN_KEY,
    REJECT_REASONS,
    RecordRejected,
    parse_line,
)
from repro.serve.server import ServeConfig, ServeSession

CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5, warmup_slots=0)


def _session() -> ServeSession:
    return ServeSession(ServeConfig(detector=CONFIG))


def _rejected(session: ServeSession, reason: str) -> int:
    counters = session.stream_metrics.snapshot()["counters"]
    return counters.get(f"serve.rejected.{reason}", 0)


def _one_exchange(tx: int, slot: int, seq_off: int) -> list:
    start = json.dumps(
        {
            "kind": "start",
            "slot": slot,
            "tx": tx,
            "sender": 77,
            "sensed": [7],
            "decoded": [7],
        }
    )
    end = json.dumps(
        {
            "kind": "end",
            "slot": slot + 20,
            "tx": tx,
            "sender": 77,
            "sensed": [7],
            "observed": {
                "start_slot": slot,
                "end_slot": slot + 20,
                "rts": {
                    "sender": 77,
                    "receiver": 7,
                    "seq_off": seq_off,
                    "attempt": 1,
                    "digest": ("%032x" % seq_off),
                },
                "success": True,
                "receiver": 7,
                "impairment": None,
            },
        }
    )
    return [start, end]


def _valid_exchange(start_slot: int = 10**6) -> list:
    """Two consecutive exchanges on one fresh link, late on the slot
    axis (the first transmission only anchors; the second — at an exact
    ``difs + dictated`` gap — yields the first back-off observation)."""
    return list(
        synthetic_stream(
            1,
            2,
            monitor_base=7,
            tagged_base=77,
            start_slot=start_slot,
            emit_shutdown=False,
        )
    )


#: One malformed line per reason code that parse_line itself assigns.
PARSE_REJECTS = {
    "garbage": ("}{ not json", REASON_JSON),
    "truncated": ('{"kind": "start", "slot"', REASON_JSON),
    "array": ("[1,2,3]", REASON_NOT_OBJECT),
    "scalar": ('"start"', REASON_NOT_OBJECT),
    "unknown_kind": ('{"kind":"frob","slot":1}', REASON_KIND),
    "missing_kind": ('{"slot":1}', REASON_KIND),
    "top_unknown_key": ('{"kind":"shutdown","slot":1,"x":2}', REASON_UNKNOWN_KEY),
    "observed_unknown_key": (
        json.dumps(
            {
                "kind": "end",
                "slot": 5,
                "tx": 1,
                "sender": 2,
                "sensed": [3],
                "observed": {
                    "start_slot": 1,
                    "end_slot": 2,
                    "rts": None,
                    "success": True,
                    "receiver": 3,
                    "impairment": None,
                    "smuggled": 1,
                },
            }
        ),
        REASON_UNKNOWN_KEY,
    ),
    "rts_unknown_key": (
        json.dumps(
            {
                "kind": "end",
                "slot": 5,
                "tx": 1,
                "sender": 2,
                "sensed": [3],
                "observed": {
                    "start_slot": 1,
                    "end_slot": 2,
                    "rts": {
                        "sender": 2,
                        "receiver": 3,
                        "seq_off": 0,
                        "attempt": 1,
                        "digest": "00" * 16,
                        "smuggled": 1,
                    },
                    "success": True,
                    "receiver": 3,
                    "impairment": None,
                },
            }
        ),
        REASON_UNKNOWN_KEY,
    ),
    "float_slot": ('{"kind":"shutdown","slot":1.5}', REASON_SCHEMA),
    "bool_slot": ('{"kind":"shutdown","slot":true}', REASON_SCHEMA),
    "string_sensed": (
        '{"kind":"start","slot":1,"tx":0,"sender":2,"sensed":"x","decoded":[]}',
        REASON_SCHEMA,
    ),
    "bad_digest": (
        json.dumps(
            {
                "kind": "end",
                "slot": 5,
                "tx": 1,
                "sender": 2,
                "sensed": [3],
                "observed": {
                    "start_slot": 1,
                    "end_slot": 2,
                    "rts": {
                        "sender": 2,
                        "receiver": 3,
                        "seq_off": 0,
                        "attempt": 1,
                        "digest": "zz",
                    },
                    "success": True,
                    "receiver": 3,
                    "impairment": None,
                },
            }
        ),
        REASON_SCHEMA,
    ),
    "bad_positions": ('{"kind":"positions","slot":1,"positions":[1]}', REASON_SCHEMA),
}


class TestParseRejects:
    @pytest.mark.parametrize("case", sorted(PARSE_REJECTS))
    def test_reason_code(self, case):
        line, reason = PARSE_REJECTS[case]
        with pytest.raises(RecordRejected) as exc:
            parse_line(line)
        assert exc.value.reason == reason
        assert reason in REJECT_REASONS

    @pytest.mark.parametrize("case", sorted(PARSE_REJECTS))
    def test_session_counts_and_survives(self, case):
        line, reason = PARSE_REJECTS[case]
        session = _session()
        assert session.handle_line(line) is None
        assert _rejected(session, reason) == 1
        # ... and valid traffic still lands afterwards.
        for ok in _valid_exchange():
            session.handle_line(ok)
        result = session.finish()
        assert result.summary()["rejected"] == {reason: 1}
        assert sum(len(link.observations) for link in result.links) == 1

    def test_unknown_reason_code_is_a_bug(self):
        with pytest.raises(ValueError):
            RecordRejected("made_up_reason", "detail")


class TestStreamSemanticRejects:
    def test_out_of_order(self):
        session = _session()
        for line in _one_exchange(1, 1000, 0):
            session.handle_line(line)
        stale = json.dumps({"kind": "shutdown", "slot": 3})
        session.handle_line(stale)
        assert _rejected(session, REASON_OUT_OF_ORDER) == 1
        assert not session.shutdown  # the stale shutdown did not stick

    def test_orphan_end(self):
        session = _session()
        _start, end = _one_exchange(5, 1000, 0)
        session.handle_line(end)
        assert _rejected(session, REASON_ORPHAN_END) == 1

    def test_duplicate_tx(self):
        session = _session()
        lines = _valid_exchange()
        session.handle_line(lines[0])
        session.handle_line(lines[0])  # same tx started twice
        assert _rejected(session, REASON_DUPLICATE_TX) == 1
        # the original in-flight transmission still completes, and the
        # next exchange anchors on it to produce an observation
        for line in lines[1:]:
            session.handle_line(line)
        result = session.finish()
        assert sum(len(link.observations) for link in result.links) == 1

    def test_rejects_never_advance_the_event_clock(self):
        session = _session()
        for line, _reason in PARSE_REJECTS.values():
            session.handle_line(line)
        assert session.clock.index == 0


@pytest.mark.parametrize(
    "config, detector",
    [
        ({"observation_retention": 0}, {}),
        ({}, {"sample_size": 0}),
    ],
    ids=["retention", "sample_size"],
)
def test_config_rejects_empty_stores(config, detector):
    """Checked when the config is built, not when a link first attaches
    mid-stream (a live source would already be open)."""
    with pytest.raises(ValueError):
        ServeConfig(detector=DetectorConfig(**detector), **config)


@pytest.mark.parametrize(
    "detector",
    [{"alpha": 1.5}, {"alternative": "lesser"}],
    ids=["alpha", "alternative"],
)
def test_config_rejects_bad_rank_sum_settings(detector):
    """A bad alpha or test direction fails when the config is built."""
    with pytest.raises(ValueError):
        ServeConfig(detector=DetectorConfig(**detector))


def test_bad_alternative_fails_before_the_first_line():
    """Not at the first flush, with the source already half read."""
    lines = list(synthetic_stream(3, 40))
    pulled = []

    def source():
        for line in lines:
            pulled.append(line)
            yield line

    with pytest.raises(ValueError, match="alternative"):
        detector = DetectorConfig(
            sample_size=5, known_n=5, known_k=5, warmup_slots=0,
            alternative="bogus",
        )
        ServeSession(ServeConfig(detector=detector)).run(source())
    assert pulled == []


class TestFuzzTotality:
    @settings(max_examples=200, deadline=None)
    @given(line=st.text(max_size=200))
    def test_arbitrary_text_never_raises(self, line):
        session = _session()
        session.handle_line(line)
        counters = session.stream_metrics.snapshot()["counters"]
        for name in counters:
            if name.startswith("serve.rejected."):
                assert name.split("serve.rejected.", 1)[1] in REJECT_REASONS

    @settings(max_examples=50, deadline=None)
    @given(
        payload=st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.integers(), st.text(max_size=8), st.booleans()),
            max_size=5,
        )
    )
    def test_arbitrary_objects_never_raise(self, payload):
        session = _session()
        session.handle_line(json.dumps(payload))

    def test_interleaved_garbage_leaves_verdicts_intact(self):
        """A stream with garbage spliced between every valid line must
        produce the same detection output as the clean stream."""
        lines = list(synthetic_stream(2, 40))
        links = synthetic_links(2)
        clean = ServeSession(ServeConfig(detector=CONFIG), links=links)
        clean_result = clean.run(lines)

        dirty_lines = []
        for line in lines:
            dirty_lines.append("not json at all")
            dirty_lines.append(line)
        dirty = ServeSession(ServeConfig(detector=CONFIG), links=links)
        dirty_result = dirty.run(dirty_lines)

        assert dirty_result.fingerprint() == clean_result.fingerprint()
        assert dirty_result.summary()["rejected"] == {REASON_JSON: len(lines)}
