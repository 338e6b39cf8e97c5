"""Serve-vs-simulator equivalence and the bounded-memory soak.

The streaming service's correctness anchor: a captured simulator stream
replayed through :func:`repro.serve.shard.run_serve` must produce the
same verdicts, audit records, and provenance records — byte for byte —
as the in-process observatory detectors that watched the same run,
at any worker count.  The committed golden
(``tests/golden/serve_streams.json``) additionally pins each scenario's
captured stream bytes and combined detection fingerprint, so stream
codec drift and detection drift each trip a named assertion.

To regenerate after an intentional change::

    PYTHONPATH=src python -m pytest tests/test_serve_equivalence.py --update-golden

The soak half replays a two-phase synthetic stream (cold churn, then a
hot working set) through a memory-capped session and proves the caps
fire — links evicted, observations compacted, timelines pruned — while
the hot links' verdict/audit/provenance streams stay identical to an
uncapped run's.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.detector import DetectorConfig, reset_region_cache
from repro.core.observatory import BatchScheduler, SharedChannelObservatory
from repro.mac.constants import DEFAULT_TIMING
from repro.obs.audit import DecisionAuditLog
from repro.obs.provenance import ProvenanceLog
from repro.serve.capture import (
    STREAM_SCENARIOS,
    StreamCapture,
    capture_scenario,
    synthetic_links,
    synthetic_stream,
)
from repro.serve.records import EndEvent
from repro.serve.server import (
    ServeConfig,
    ServeSession,
    export_detector,
    result_fingerprint,
)
from repro.serve.shard import run_serve
from repro.traffic import queue as traffic_queue
from repro.util.fidelity import reset_fidelity_cache

GOLDEN_PATH = Path(__file__).parent / "golden" / "serve_streams.json"

CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5)

#: Scenarios pinned by the golden (one static cheat, one mobile, one
#: dense multi-monitor grid with two cheaters).
GOLDEN_SCENARIOS = ("grid-cheat", "mobile", "multi")

JOBS = (1, 2, 4)

#: Scheduler flush caps in end events: eager, the default suite cadence,
#: and a cap that never fires, which leaves the flushes to the session's
#: one-exchange stream-time bound.  The default keeps its bare ``jobs``
#: id.  (The longest deferral, one flush after the whole run, is
#: :func:`test_one_flush_after_the_run_matches_eager_evaluation`.)
CADENCES = [
    pytest.param(
        jobs,
        flush_every,
        id=str(jobs) if flush_every == 32 else f"{jobs}-flush{flush_every}",
    )
    for flush_every in (32, 1, 10**9)
    for jobs in JOBS
]


def _fresh_process_state():
    traffic_queue._packet_ids = itertools.count()
    reset_region_cache()
    reset_fidelity_cache()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_RUNS = {}


def _captured_run(name: str):
    """One scenario run with the stream capture AND the in-process
    observatory attached — the serve replay and its reference come from
    the same events.  Memoized: captures are same-seed deterministic and
    read-only, so every jobs-parametrization shares one simulation."""
    if name in _RUNS:
        return _RUNS[name]
    _fresh_process_state()
    sim, pairs, separation, duration_s = STREAM_SCENARIOS[name](3.0)
    capture = StreamCapture(pairs)
    sim.add_listener(capture)
    observatory = SharedChannelObservatory()
    sim.add_listener(observatory)
    attached = []
    for seq, (monitor, tagged) in enumerate(pairs):
        audit = DecisionAuditLog()
        provenance = ProvenanceLog()
        detector = observatory.attach(
            monitor,
            tagged,
            config=CONFIG,
            separation=separation,
            audit=audit,
            provenance=provenance,
        )
        attached.append((monitor, tagged, seq, detector, audit, provenance))
    sim.run(duration_s)
    reference = [
        export_detector(monitor, tagged, seq, detector, audit, provenance)
        for monitor, tagged, seq, detector, audit, provenance in attached
    ]
    _RUNS[name] = (capture.finished_lines(), pairs, separation, reference)
    return _RUNS[name]


def _serve_config(separation, flush_every=32):
    return ServeConfig(
        detector=CONFIG,
        separation=separation,
        discover=False,
        flush_every=flush_every,
    )


class TestServeEquivalence:
    @pytest.mark.parametrize("jobs, flush_every", CADENCES)
    @pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
    def test_replay_matches_in_process_reference(self, name, jobs, flush_every):
        """Serve's scheduler is the only user of the defer -> reserve ->
        fill path; at every cadence it must match eager evaluation."""
        lines, pairs, separation, reference = _captured_run(name)
        result = run_serve(
            iter(lines),
            _serve_config(separation, flush_every),
            links=pairs,
            jobs=jobs,
        )
        assert result.jobs == jobs
        assert result.flushes > 0  # windows really went through deferral
        ref_print = result_fingerprint(reference)
        srv_print = result.fingerprint()
        assert srv_print["combined"] == ref_print["combined"], (
            f"{name} at jobs={jobs}, flush_every={flush_every}: streamed "
            "detection diverged from the "
            f"in-process observatory (per-link: "
            f"{ {k: (srv_print['links'].get(k), v) for k, v in ref_print['links'].items() if srv_print['links'].get(k) != v} })"
        )
        assert srv_print == ref_print

    def test_one_flush_after_the_run_matches_eager_evaluation(self):
        """The longest reservation gap: every detector of a golden
        scenario defers into one scheduler flushed once after the run,
        so every deterministic verdict publishes between a window's
        deferral and its fill."""
        _lines, _pairs, _separation, reference = _captured_run("multi")
        _fresh_process_state()
        sim, pairs, separation, duration_s = STREAM_SCENARIOS["multi"](3.0)
        observatory = SharedChannelObservatory()
        sim.add_listener(observatory)
        scheduler = BatchScheduler()
        attached = []
        for seq, (monitor, tagged) in enumerate(pairs):
            audit = DecisionAuditLog()
            provenance = ProvenanceLog()
            detector = observatory.attach(
                monitor,
                tagged,
                config=CONFIG,
                separation=separation,
                audit=audit,
                provenance=provenance,
            )
            detector._batch_scheduler = scheduler
            attached.append((monitor, tagged, seq, detector, audit, provenance))
        sim.run(duration_s)
        assert len(scheduler) > 0
        scheduler.flush()
        deferred = [
            export_detector(monitor, tagged, seq, detector, audit, provenance)
            for monitor, tagged, seq, detector, audit, provenance in attached
        ]
        assert result_fingerprint(deferred) == result_fingerprint(reference)

    @pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
    def test_merged_logs_are_jobs_invariant(self, name):
        lines, pairs, separation, _reference = _captured_run(name)
        outputs = []
        for jobs in JOBS:
            result = run_serve(
                iter(lines), _serve_config(separation), links=pairs, jobs=jobs
            )
            outputs.append(
                (jobs, result.audit_jsonl(), result.provenance_jsonl())
            )
        _jobs0, audit0, provenance0 = outputs[0]
        for jobs, audit, provenance in outputs[1:]:
            assert audit == audit0, f"audit interleaving moved at jobs={jobs}"
            assert provenance == provenance0, (
                f"provenance interleaving moved at jobs={jobs}"
            )

    @pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
    def test_golden_stream_fingerprint(self, name, request):
        lines, _pairs, separation, reference = _captured_run(name)
        stream_text = "\n".join(lines)
        entry = {
            "scenario": name,
            "lines": len(lines),
            "stream_sha256": _sha(stream_text),
            "combined": result_fingerprint(reference)["combined"],
            "link_count": len(reference),
            "verdicts": sum(len(link.verdicts) for link in reference),
            "observations": sum(len(link.observations) for link in reference),
        }
        golden = (
            json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        )
        if request.config.getoption("--update-golden"):
            golden[name] = entry
            GOLDEN_PATH.write_text(
                json.dumps(golden, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip(f"regenerated {GOLDEN_PATH.name}[{name}]")
        assert name in golden, (
            f"missing golden entry {name!r}; regenerate with --update-golden"
        )
        assert entry == golden[name], (
            f"{name}: same-seed capture or detection fingerprint drifted "
            f"from {GOLDEN_PATH.name} — if intentional, rerun with "
            "--update-golden and commit"
        )

    def test_discovery_finds_the_monitored_links(self):
        lines, pairs, separation, _reference = _captured_run("multi")
        result = run_serve(
            iter(lines),
            ServeConfig(detector=CONFIG, separation=separation),
            jobs=1,
        )
        discovered = {(link.monitor, link.tagged) for link in result.links}
        assert discovered
        assert discovered <= set(pairs)
        assert all(link.discovered for link in result.links)
        assert sum(len(link.observations) for link in result.links) > 0


@pytest.mark.parametrize("max_links", [None, 6], ids=["uncapped", "capped"])
def test_sinks_receive_the_merged_publication_order(max_links):
    """The bytes a session streams to its sinks, at every flush cadence.

    Uncapped, they are the final merged logs; capped, evicted links'
    records reach the sinks only, so the cadences are compared.
    """
    lines, _pairs, separation, _reference = _captured_run("multi")
    written = []
    for flush_every in (1, 64, 10**9):
        audit, provenance = io.StringIO(), io.StringIO()
        result = run_serve(
            iter(lines),
            ServeConfig(
                detector=CONFIG,
                separation=separation,
                flush_every=flush_every,
                max_links=max_links,
            ),
            jobs=1,
            audit_sink=audit,
            provenance_sink=provenance,
        )
        if max_links is None:
            assert audit.getvalue() == result.audit_jsonl() + "\n"
            assert provenance.getvalue() == result.provenance_jsonl() + "\n"
        else:
            assert result.evicted_links > 0
        written.append((audit.getvalue(), provenance.getvalue()))
    assert written[0][0] and written[0][1]
    for flush_every, sinks in zip((64, 10**9), written[1:]):
        assert sinks == written[0], f"sink bytes moved at flush_every={flush_every}"


class _StampedSink:
    """A sink that stamps each write with the stream position being
    applied (``position[0]``, set by the test as it feeds lines)."""

    def __init__(self, position):
        self.position = position
        self.writes = []

    def write(self, text):
        self.writes.append((self.position[0], text))


def test_verdicts_reach_the_sink_within_one_exchange_of_stream_time():
    """With a flush cap that never fires, every audit record is written
    no later than the first event at least one exchange of stream time
    past the end line that completed it (the line ``(observed.start_slot,
    sender)`` equal to the record's ``(slot, tagged)``)."""
    lines, pairs, separation, _reference = _captured_run("multi")
    events = [json.loads(line) for line in lines]
    slots = [event["slot"] for event in events]
    end_index = {
        (event["observed"]["start_slot"], event["sender"]): index
        for index, event in enumerate(events)
        if event["kind"] == "end"
    }
    position = [0]
    audit = _StampedSink(position)

    def fed():
        for index, line in enumerate(lines):
            position[0] = index
            yield line
        position[0] = len(lines)

    run_serve(
        fed(),
        dataclasses.replace(_serve_config(separation), flush_every=10**9),
        links=pairs,
        jobs=1,
        audit_sink=audit,
    )
    assert audit.writes
    late = []
    for written_at, text in audit.writes:
        record = json.loads(text)
        ended = end_index[(record["slot"], record["tagged"])]
        due = slots[ended] + DEFAULT_TIMING.exchange_slots
        deadline = bisect.bisect_left(slots, due, lo=ended + 1)
        if written_at > deadline:
            late.append((record["slot"], record["tagged"], written_at, deadline))
    assert not late, f"{len(late)} of {len(audit.writes)} records late: {late[:5]}"


def test_dense_streams_keep_the_end_event_cadence():
    """On a stream dense enough that ``flush_every`` end events pass
    within one exchange, the stream-time bound never fires first: every
    sink write lands on a multiple of ``flush_every`` end events, or in
    ``finish``, so the kernel keeps its full batches."""
    config = ServeConfig(detector=SOAK_CONFIG)
    ends = [0]
    audit, provenance = _StampedSink(ends), _StampedSink(ends)
    session = ServeSession(config, audit_sink=audit, provenance_sink=provenance)
    for line in synthetic_stream(200, 50):
        if json.loads(line)["kind"] == "end":
            ends[0] += 1
        session.handle_line(line)
    ends[0] = None
    result = session.finish()
    assert result.flushes > 1
    for sink in (audit, provenance):
        stamps = {stamp for stamp, _text in sink.writes}
        assert stamps - {None}
        off_cadence = {
            stamp
            for stamp in stamps
            if stamp is not None and stamp % config.flush_every
        }
        assert not off_cadence, sorted(off_cadence)[:5]


@pytest.mark.parametrize(
    "max_links, evicted, combined",
    [
        (8, 58, "ea6adf4ea235f283"),
        (6, 132, "fd8878f7037b0e67"),
        (4, 136, "4fdb1bf8f6689285"),
    ],
    ids=["cap8", "cap6", "cap4"],
)
def test_capped_discovery_evicts_the_same_links(max_links, evicted, combined):
    """Which links a capped table evicts, pinned by count and result.

    The LRU victim is the link whose activity — the later of its attach
    and its tagged node's last end event — is oldest; a different victim
    changes the evicted count or the surviving links' fingerprints.
    """
    _fresh_process_state()
    lines, _pairs, separation = capture_scenario("multi", 1.0)
    audit, provenance = io.StringIO(), io.StringIO()
    session = ServeSession(
        ServeConfig(
            detector=DetectorConfig(
                sample_size=25, known_n=5, known_k=5, warmup_slots=0
            ),
            separation=separation,
            max_links=max_links,
            flush_every=1,
        ),
        audit_sink=audit,
        provenance_sink=provenance,
    )
    result = session.run(lines)
    assert result.evicted_links == evicted
    assert result.fingerprint()["combined"].startswith(combined)
    assert audit.getvalue() and provenance.getvalue()


def test_max_links_caps_the_total_across_workers():
    """Each of ``jobs`` workers gets ``max_links // jobs`` of the cap,
    and a cap that cannot give every worker a link is refused."""
    lines, _pairs, separation, _reference = _captured_run("multi")
    config = ServeConfig(detector=CONFIG, separation=separation, max_links=8)
    result = run_serve(iter(lines), config, jobs=2)
    assert result.jobs == 2
    assert result.evicted_links > 0
    assert len(result.links) <= 8
    with pytest.raises(ValueError, match="max_links"):
        run_serve(
            iter(lines), dataclasses.replace(config, max_links=1), jobs=2
        )


def test_subscriptions_report_the_latest_end_slot():
    """``last_slot`` is ChannelObserver-compatible mid-stream: the
    observatory every link's detector subscribes to reads the largest
    end slot ingested so far, whether or not a link's own channel took
    part in the latest events."""
    session = ServeSession(ServeConfig(detector=CONFIG))
    largest = 0
    checks = 0
    for count, line in enumerate(synthetic_stream(400, 2), 1):
        event = session.handle_line(line)
        if isinstance(event, EndEvent):
            largest = max(largest, event.observed.end_slot)
        if count % 300 == 0:
            assert len(session.table) > 1
            assert session.observatory.last_slot == largest
            checks += 1
    assert largest > 0
    assert checks >= 4


# -- bounded-memory soak ---------------------------------------------------

COLD_LINKS = 300
COLD_SAMPLES = 35
HOT_LINKS = 100
HOT_SAMPLES = 140
LINK_CAP = 120

SOAK_CONFIG = dataclasses.replace(CONFIG, warmup_slots=0)


def _soak_stream():
    """Cold churn then a hot working set, ~49k events total.

    Phase 1: 300 short-lived links (the churn an LRU cap must absorb).
    Phase 2: 100 fresh links carrying 4x the traffic, offset past every
    phase-1 slot so the concatenation stays slot-monotone.
    """
    timing = DEFAULT_TIMING
    phase1_bound = 97 + COLD_SAMPLES * (
        timing.difs_slots + timing.cw_min + timing.exchange_slots
    )
    cold = synthetic_stream(COLD_LINKS, COLD_SAMPLES, emit_shutdown=False)
    hot = synthetic_stream(
        HOT_LINKS,
        HOT_SAMPLES,
        monitor_base=1_500_000,
        tagged_base=2_500_000,
        start_slot=phase1_bound + 1,
    )
    return itertools.chain(cold, hot)


def _hot_links(result):
    return sorted(
        (
            link
            for link in result.links
            if (link.monitor, link.tagged) in set(synthetic_links(
                HOT_LINKS, monitor_base=1_500_000, tagged_base=2_500_000
            ))
        ),
        key=lambda link: (link.monitor, link.tagged),
    )


@pytest.mark.slow
def test_soak_bounded_memory_preserves_live_link_verdicts():
    capped = run_serve(
        _soak_stream(),
        ServeConfig(
            detector=SOAK_CONFIG,
            max_links=LINK_CAP,
            observation_retention=64,
            maintain_every=256,
        ),
        jobs=1,
    )
    uncapped = run_serve(
        _soak_stream(),
        ServeConfig(detector=SOAK_CONFIG),
        jobs=1,
    )

    # The caps actually fired: churn forced evictions, maintenance
    # compacted demuxes and pruned timelines, the table stayed bounded.
    assert capped.evicted_links > 0
    assert capped.compacted_observations > 0
    assert capped.pruned_intervals > 0
    assert len(capped.links) <= LINK_CAP
    counters = capped.link_snapshot["counters"]
    assert counters.get("serve.links.evicted", 0) > 0
    assert counters.get("serve.observations.compacted", 0) > 0
    assert counters.get("serve.timeline.pruned_intervals", 0) > 0
    assert len(uncapped.links) == COLD_LINKS + HOT_LINKS

    # ... without perturbing detection on the links that stayed live.
    capped_hot = _hot_links(capped)
    uncapped_hot = _hot_links(uncapped)
    assert len(capped_hot) == HOT_LINKS
    assert len(uncapped_hot) == HOT_LINKS
    for capped_link, uncapped_link in zip(capped_hot, uncapped_hot):
        key = f"{capped_link.monitor}->{capped_link.tagged}"
        assert [repr(v) for v in capped_link.verdicts] == [
            repr(v) for v in uncapped_link.verdicts
        ], f"verdicts moved on hot link {key}"
        assert capped_link.violations == uncapped_link.violations, key
        assert capped_link.audit_jsonl() == uncapped_link.audit_jsonl(), key
        assert (
            capped_link.provenance_jsonl() == uncapped_link.provenance_jsonl()
        ), key
        assert (
            capped_link.quarantine_counts == uncapped_link.quarantine_counts
        ), key
        assert capped_link.skipped_samples == uncapped_link.skipped_samples, key
        # Bounded retention kept only the tail (trims run at the
        # maintenance cadence, so a few appends can sit past the cap
        # between sweeps), but virtual indexing means provenance
        # observation ids never noticed.
        assert len(capped_link.observations) <= 64 + 8
        assert len(capped_link.observations) < len(uncapped_link.observations)


def test_capture_module_runs_without_warnings():
    """``python -m repro.serve.capture`` runs the module once: the
    ``repro.serve`` package must not import it first, or runpy warns
    (a RuntimeWarning, an error here) and the module executes twice.
    Only RuntimeWarning is made an error, so a deprecation warning from
    a dependency cannot fail this test."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    result = subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning", "-m",
            "repro.serve.capture",
            "multi", "--duration", "0.2", "--out", "-",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "found in sys.modules" not in result.stderr
    assert result.stdout.splitlines()[-1].startswith('{"kind":"shutdown"')
