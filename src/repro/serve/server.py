"""The streaming detection session: demux, evaluate, emit, bound memory.

:class:`ServeSession` replays a wire stream (:mod:`repro.serve.records`)
through the exact in-process machinery — a
:class:`~repro.core.observatory.SharedChannelObservatory` of
:class:`~repro.core.detector.BackoffMisbehaviorDetector` subscriptions —
via the observatory's medium-free ``ingest_*`` methods.  Four things
distinguish it from a simulator run:

* **Coalesced evaluation.** Every detector's ready windows defer to one
  session-owned :class:`~repro.core.observatory.BatchScheduler`, so
  :func:`~repro.core.ranksum.rank_sum_many` ranks a flush's worth of
  windows per call.  The session flushes at the first event
  :data:`PUBLISH_WITHIN_SLOTS` (one exchange) of stream time past the
  end event that left work pending, or after ``flush_every`` end
  events, whichever comes first: sparse streams publish within an
  exchange, dense ones keep full batches.  The detector reserves each
  deferred verdict's list slot, id number and log indices, and freezes
  what its records describe, at the event that produced it, so
  verdicts/audit/provenance are byte-identical to eager per-event
  evaluation at any flush schedule.

* **Incremental sinks.** Each record a link's log claims is queued, with
  its publication-order key, in the outbox of its sink; a flush writes
  only those records, so its cost follows its new records, not the
  number of tracked links.

* **Bounded memory.** At each maintenance sweep the observatory prunes
  channel timelines behind the oldest slot any live query can reach and
  compacts each detector's demux behind its sample anchor
  (:meth:`~repro.core.observatory.SharedChannelObservatory.compact`);
  the observation store can be capped with virtual indices intact, and
  the link table LRU-evicts under ``max_links``.

* **Sharding.** With ``shard_count > 1`` the session only attaches
  links whose :func:`shard_of` hash it owns; per-record event-index
  tags let :func:`merged_audit_jsonl` reassemble the single-process log
  order from any worker layout.  One helper orders records for the
  merges and for the sinks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from repro.core.detector import BackoffMisbehaviorDetector, DetectorConfig
from repro.core.observatory import BatchScheduler, SharedChannelObservatory
from repro.core.records import BackoffObservation, Verdict
from repro.mac.constants import DEFAULT_TIMING
from repro.mac.prng import splitmix64
from repro.obs.audit import AuditRecord, DecisionAuditLog, jsonl_line
from repro.obs.provenance import ProvenanceLog, ProvenanceRecord
from repro.obs.registry import MetricsRegistry
from repro.serve.links import (
    EventClock,
    LinkKey,
    LinkState,
    LinkTable,
    ObservationLedger,
    Outgoing,
    SortKey,
    TaggedAuditLog,
    TaggedProvenanceLog,
)
from repro.serve.records import (
    REASON_DUPLICATE_TX,
    REASON_ORPHAN_END,
    REASON_OUT_OF_ORDER,
    EndEvent,
    PositionsEvent,
    RecordRejected,
    StartEvent,
    StreamEvent,
    parse_line,
)
from repro.util.units import Slots
from repro.util.validation import check_positive

FINGERPRINT_SCHEMA = "repro.serve/fingerprint/v1"

#: stream time a pending verdict may wait for its flush: one exchange
#: (every link attaches with the default timing)
PUBLISH_WITHIN_SLOTS: Slots = DEFAULT_TIMING.exchange_slots


def shard_of(monitor: int, sender: int, shard_count: int) -> int:
    """The worker that owns link (monitor, sender): a splitmix64 hash.

    Pure function of the key — every worker, at any ``shard_count``,
    agrees on ownership without coordination.
    """
    if shard_count <= 1:
        return 0
    return splitmix64((monitor << 32) ^ (sender & 0xFFFFFFFF)) % shard_count


@dataclass
class ServeConfig:
    """Session policy: detection config plus memory/flush/shard knobs."""

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    separation: Optional[float] = None
    #: cap on end events between scheduler flushes (1 = eager
    #: per-event); a flush also comes one exchange of stream time after
    #: work went pending
    flush_every: int = 64
    #: end events between prune/compact sweeps (0 = never)
    maintain_every: int = 4096
    #: cap on tracked links in *this* table (None = unbounded)
    max_links: Optional[int] = None
    #: cap on retained observations per link (None = keep all)
    observation_retention: Optional[int] = None
    #: auto-register links for every decoded (monitor, sender) pair
    discover: bool = True
    shard_index: int = 0
    shard_count: int = 1

    def __post_init__(self) -> None:
        # Checked here, not when the first link attaches: by then a live
        # source is open, and every sharded worker would fail alike.
        if self.flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {self.flush_every}")
        if self.observation_retention is not None:
            check_positive(self.observation_retention, "observation_retention")
        if self.maintain_every < 0:
            raise ValueError(
                f"maintain_every must be >= 0, got {self.maintain_every}"
            )
        if not 0 <= self.shard_index < max(self.shard_count, 1):
            raise ValueError(
                f"shard_index {self.shard_index} outside shard_count "
                f"{self.shard_count}"
            )


@dataclass
class LinkExport:
    """One link's full detection record, picklable across the fork pool."""

    monitor: int
    tagged: int
    attach_seq: int
    discovered: bool
    observations: List[BackoffObservation]
    verdicts: List[Verdict]
    violations: List[str]
    quarantine_counts: Dict[str, int]
    skipped_samples: int
    audit_records: List[AuditRecord]
    audit_tags: List[int]
    provenance_records: List[ProvenanceRecord]
    provenance_tags: List[int]

    def audit_jsonl(self) -> str:
        return DecisionAuditLog(self.audit_records).to_jsonl()

    def provenance_jsonl(self) -> str:
        return ProvenanceLog(self.provenance_records).to_jsonl()

    def fingerprint(self) -> str:
        """sha256 over everything detection produced for this link."""
        digest = hashlib.sha256()
        for chunk in (
            "\n".join(repr(o) for o in self.observations),
            "\n".join(repr(v) for v in self.verdicts),
            "\n".join(self.violations),
            self.audit_jsonl(),
            self.provenance_jsonl(),
            json.dumps(sorted(self.quarantine_counts.items())),
            str(self.skipped_samples),
        ):
            digest.update(chunk.encode("ascii", errors="backslashreplace"))
            digest.update(b"\x00")
        return digest.hexdigest()


def export_detector(
    monitor: int,
    tagged: int,
    attach_seq: int,
    detector: BackoffMisbehaviorDetector,
    audit: DecisionAuditLog,
    provenance: ProvenanceLog,
    discovered: bool = False,
    audit_tags: Optional[List[int]] = None,
    provenance_tags: Optional[List[int]] = None,
) -> LinkExport:
    """Snapshot one detector (live or streamed) as a :class:`LinkExport`.

    The equivalence suite runs this over in-process detectors too, so
    both sides of the serve-vs-simulator comparison share one codec.
    """
    return LinkExport(
        monitor=monitor,
        tagged=tagged,
        attach_seq=attach_seq,
        discovered=discovered,
        observations=list(detector.observations),
        verdicts=list(detector.verdicts),
        violations=[repr(v) for v in detector.violations],
        quarantine_counts=dict(detector.quarantine_counts),
        skipped_samples=detector.skipped_samples,
        audit_records=list(audit.records),
        audit_tags=list(audit_tags or []),
        provenance_records=list(provenance.records),
        provenance_tags=list(provenance_tags or []),
    )


def _ordered_lines(rows: List[Tuple[SortKey, Any]]) -> List[str]:
    """Serialize ``(sort key, record)`` rows in publication order.

    The sort key is ``(event tag, attach order, per-link index)``.
    Within one stream event only one tagged node's links publish, in
    attach order, each appending in sequence, so the key reproduces
    exactly the interleaving one shared in-process log records.  Worker
    layout cannot change any component, so every merge, and every
    flush's sink write, comes out in the same order at any ``--jobs``.
    """
    rows.sort(key=itemgetter(0))
    return [jsonl_line(record) for _key, record in rows]


def _merged_jsonl(logs: Iterable[Tuple[int, List[int], Sequence[Any]]]) -> str:
    """``(attach seq, tags, records)`` link logs as one JSONL text.

    Untagged records (an in-process reference run) sort at tag 0.
    """
    rows = [
        ((tags[idx] if idx < len(tags) else 0, attach_seq, idx), record)
        for attach_seq, tags, records in logs
        for idx, record in enumerate(records)
    ]
    return "\n".join(_ordered_lines(rows))


def merged_audit_jsonl(links: Sequence[LinkExport]) -> str:
    """All links' audit records in single-process publication order."""
    return _merged_jsonl(
        (link.attach_seq, link.audit_tags, link.audit_records) for link in links
    )


def merged_provenance_jsonl(links: Sequence[LinkExport]) -> str:
    """All links' provenance records in single-process publication order."""
    return _merged_jsonl(
        (link.attach_seq, link.provenance_tags, link.provenance_records)
        for link in links
    )


def result_fingerprint(links: Sequence[LinkExport]) -> Dict[str, object]:
    """Deterministic digest of a serve (or in-process) detection run."""
    ordered = sorted(links, key=lambda link: (link.monitor, link.tagged))
    per_link = {
        f"{link.monitor}->{link.tagged}": link.fingerprint()
        for link in ordered
    }
    combined = hashlib.sha256()
    for name, sha in per_link.items():
        combined.update(f"{name}:{sha}\n".encode("ascii"))
    return {
        "schema": FINGERPRINT_SCHEMA,
        "combined": combined.hexdigest(),
        "links": per_link,
        "link_count": len(ordered),
        "verdicts": sum(len(link.verdicts) for link in ordered),
        "observations": sum(len(link.observations) for link in ordered),
    }


@dataclass
class ServeResult:
    """What a completed session (or a merged shard set) reports."""

    links: List[LinkExport]
    stream_snapshot: Dict[str, object]
    link_snapshot: Dict[str, object]
    events: int
    flushes: int
    pruned_intervals: int
    compacted_observations: int
    evicted_links: int
    jobs: int = 1

    def audit_jsonl(self) -> str:
        return merged_audit_jsonl(self.links)

    def provenance_jsonl(self) -> str:
        return merged_provenance_jsonl(self.links)

    def fingerprint(self) -> Dict[str, object]:
        return result_fingerprint(self.links)

    def summary(self) -> Dict[str, object]:
        counters = self.stream_snapshot.get("counters", {})
        rejected = {
            name.split("serve.rejected.", 1)[1]: count
            for name, count in sorted(counters.items())
            if name.startswith("serve.rejected.")
        }
        return {
            "links": len(self.links),
            "events": self.events,
            "verdicts": sum(len(link.verdicts) for link in self.links),
            "violations": sum(len(link.violations) for link in self.links),
            "observations": sum(
                len(link.observations) for link in self.links
            ),
            "flushes": self.flushes,
            "rejected": rejected,
            "evicted_links": self.evicted_links,
            "jobs": self.jobs,
        }


class ServeSession:
    """One worker's streaming detection loop (see module docstring)."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        links: Sequence[LinkKey] = (),
        audit_sink: Optional[TextIO] = None,
        provenance_sink: Optional[TextIO] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.observatory = SharedChannelObservatory()
        self.scheduler = BatchScheduler()
        self.stream_metrics = MetricsRegistry()
        self.link_metrics = MetricsRegistry()
        self.clock = EventClock()
        self.table = LinkTable(self.config.max_links)
        self.audit_sink = audit_sink
        self.provenance_sink = provenance_sink
        #: records claimed since the last flush, per attached sink
        self._audit_outbox: Optional[List[Outgoing]] = (
            None if audit_sink is None else []
        )
        self._provenance_outbox: Optional[List[Outgoing]] = (
            None if provenance_sink is None else []
        )
        #: every link key ever seen, with its global attach sequence —
        #: numbering is a pure function of the stream, shared by every
        #: shard layout (non-owned links get a number but no state)
        self._known_links: Dict[LinkKey, int] = {}
        self._inflight: Dict[int, int] = {}
        self._last_slot: Optional[Slots] = None
        self._current_slot: Slots = 0
        #: slot of the end event that left work unpublished since the
        #: last flush (None = nothing pending)
        self._pending_since: Optional[Slots] = None
        self._ends_since_flush = 0
        self._ends_since_maintain = 0
        self.flushes = 0
        self.pruned_intervals = 0
        self.compacted_observations = 0
        self.shutdown = False
        self.finished = False
        for monitor, tagged in links:
            self._ensure_link(monitor, tagged, discovered=False)

    # -- link management ---------------------------------------------------

    def _owns(self, monitor: int, tagged: int) -> bool:
        return (
            shard_of(monitor, tagged, self.config.shard_count)
            == self.config.shard_index
        )

    def _ensure_link(
        self, monitor: int, tagged: int, discovered: bool
    ) -> Optional[LinkState]:
        key = (monitor, tagged)
        seq = self._known_links.setdefault(key, len(self._known_links))
        state = self.table.get(key)
        if state is not None:
            return state
        if not self._owns(monitor, tagged):
            return None
        if self.table.needs_eviction():
            self._evict(self.table.pick_victim())
        audit = TaggedAuditLog(self.clock, seq, self._audit_outbox)
        provenance = TaggedProvenanceLog(self.clock, seq, self._provenance_outbox)
        detector = self.observatory.attach(
            monitor,
            tagged,
            config=self.config.detector,
            separation=self.config.separation,
            audit=audit,
            metrics=self.link_metrics,
            provenance=provenance,
        )
        # Detectors evaluate eagerly on their own; pointing them at the
        # session scheduler defers every ready window to the
        # flush-cadence rank_sum_many batch instead (byte-identical —
        # the detector reserves the verdict's places and freezes what
        # its records describe at the producing event).
        detector._batch_scheduler = self.scheduler
        ledger: Optional[ObservationLedger] = None
        if self.config.observation_retention is not None:
            ledger = ObservationLedger(self.config.observation_retention)
            detector.observations = ledger  # type: ignore[assignment]
        state = LinkState(
            monitor=monitor,
            tagged=tagged,
            attach_seq=seq,
            discovered=discovered,
            detector=detector,
            audit=audit,
            provenance=provenance,
            attached_at=self.clock.index,
            ledger=ledger,
        )
        self.table.insert(state)
        self.link_metrics.inc(
            "serve.links.discovered" if discovered else "serve.links.registered"
        )
        return state

    def _evict(self, state: LinkState) -> None:
        """Detach and drop the LRU link (its artifacts are released)."""
        # Unfilled reservations from un-flushed windows would be left
        # dangling; flush first so every log is concrete.
        self._flush()
        self.observatory.detach(state.detector)
        self.table.remove(state)
        self.link_metrics.inc("serve.links.evicted")

    # -- stream handling ---------------------------------------------------

    def handle_line(self, line: str) -> Optional[StreamEvent]:
        """Parse and apply one line; rejects are counted, never raised."""
        self.stream_metrics.inc("serve.lines")
        try:
            event = parse_line(line)
            if event is None:
                return None
            self.handle_event(event)
        except RecordRejected as rejected:
            self.stream_metrics.inc(f"serve.rejected.{rejected.reason}")
            return None
        return event

    def handle_event(self, event: StreamEvent) -> None:
        """Apply one parsed event (session-level rejects still raise)."""
        if self._last_slot is not None and event.slot < self._last_slot:
            raise RecordRejected(
                REASON_OUT_OF_ORDER,
                f"slot {event.slot} after slot {self._last_slot}",
            )
        if isinstance(event, StartEvent):
            self._apply_start(event)
        elif isinstance(event, EndEvent):
            self._apply_end(event)
        elif isinstance(event, PositionsEvent):
            self._apply_positions(event)
        else:
            self.shutdown = True
            self.stream_metrics.inc("serve.events.shutdown")
        self._last_slot = event.slot
        if (
            self._pending_since is not None
            and event.slot - self._pending_since >= PUBLISH_WITHIN_SLOTS
        ):
            self._flush()

    def _accept(self, event: StreamEvent, kind: str) -> None:
        self.clock.index += 1
        self._current_slot = event.slot
        self.stream_metrics.inc(f"serve.events.{kind}")

    def _apply_start(self, event: StartEvent) -> None:
        if event.tx in self._inflight:
            raise RecordRejected(
                REASON_DUPLICATE_TX, f"tx {event.tx} already in flight"
            )
        self._accept(event, "start")
        self._inflight[event.tx] = event.sender
        if self.config.discover:
            for monitor in sorted(event.decoded):
                if monitor != event.sender:
                    self._ensure_link(monitor, event.sender, discovered=True)
        self.observatory.ingest_start(
            event.slot, event.tx, event.sender, event.sensed, event.decoded
        )

    def _apply_end(self, event: EndEvent) -> None:
        if event.tx not in self._inflight:
            raise RecordRejected(
                REASON_ORPHAN_END, f"tx {event.tx} never started"
            )
        self._accept(event, "end")
        del self._inflight[event.tx]
        self.table.touch(event.sender, self.clock.index)
        observed = event.observed
        self.observatory.ingest_end(
            event.slot,
            event.tx,
            event.sender,
            observed.receiver,
            observed.start_slot,
            observed.end_slot,
            observed.success,
            observed.rts,
            event.sensed,
        )
        self._ends_since_flush += 1
        if self._ends_since_flush >= self.config.flush_every:
            self._flush()
        elif self._pending_since is None and (
            len(self.scheduler) or self._audit_outbox or self._provenance_outbox
        ):
            self._pending_since = event.slot
        self._ends_since_maintain += 1
        if (
            self.config.maintain_every
            and self._ends_since_maintain >= self.config.maintain_every
        ):
            self._maintain()

    def _apply_positions(self, event: PositionsEvent) -> None:
        self._accept(event, "positions")
        self.observatory.ingest_positions(event.slot, dict(event.positions))

    def run(self, lines: Iterable[str]) -> "ServeResult":
        """Drain a line source until EOF or a shutdown record."""
        for line in lines:
            self.handle_line(line)
            if self.shutdown:
                break
        return self.finish()

    def finish(self) -> "ServeResult":
        """Flush pending work and snapshot the session's result."""
        if not self.finished:
            self.observatory.sync_ingest()
            self._flush()
            self.link_metrics.set_gauge("serve.links.tracked", len(self.table))
            self.finished = True
        return self.result()

    # -- flush / maintenance ------------------------------------------------

    def _flush(self) -> None:
        if len(self.scheduler):
            self.scheduler.flush()
            self.flushes += 1
        self._ends_since_flush = 0
        self._pending_since = None
        # Every reservation is filled now, so each queued record is
        # concrete; write them in publication order.
        for sink, outbox in (
            (self.audit_sink, self._audit_outbox),
            (self.provenance_sink, self._provenance_outbox),
        ):
            if sink is None or not outbox:
                continue
            rows = [(key, log.records[key[2]]) for key, log in outbox]
            outbox.clear()
            for line in _ordered_lines(rows):
                sink.write(line + "\n")

    def _maintain(self) -> None:
        """Compact the observatory and trim the observation stores."""
        self._ends_since_maintain = 0
        pruned, compacted = self.observatory.compact(self._current_slot)
        for state in self.table.states():
            if state.ledger is not None:
                compacted += state.ledger.trim()
        self.pruned_intervals += pruned
        self.compacted_observations += compacted
        if pruned:
            self.link_metrics.inc("serve.timeline.pruned_intervals", pruned)
        if compacted:
            self.link_metrics.inc("serve.observations.compacted", compacted)
        self.link_metrics.set_gauge("serve.links.tracked", len(self.table))

    # -- results -----------------------------------------------------------

    def export_links(self) -> List[LinkExport]:
        """Picklable per-link snapshots, in attach order."""
        return [
            export_detector(
                state.monitor,
                state.tagged,
                state.attach_seq,
                state.detector,
                state.audit,
                state.provenance,
                discovered=state.discovered,
                audit_tags=state.audit.tags,
                provenance_tags=state.provenance.tags,
            )
            for state in self.table.states()
        ]

    def result(self) -> ServeResult:
        counters = self.stream_metrics.snapshot()["counters"]
        events = sum(
            count
            for name, count in counters.items()
            if name.startswith("serve.events.")
        )
        return ServeResult(
            links=self.export_links(),
            stream_snapshot=self.stream_metrics.snapshot(),
            link_snapshot=self.link_metrics.snapshot(),
            events=events,
            flushes=self.flushes,
            pruned_intervals=self.pruned_intervals,
            compacted_observations=self.compacted_observations,
            evicted_links=self.table.evicted_links,
        )
