"""Per-``(monitor, sender)`` link state and the bounded link table.

Each tracked link owns one observatory-subscribed detector plus private
audit and provenance logs whose records are tagged with the stream
event index they were produced (or reserved) at.  ``(event tag, attach seq,
per-link index)`` is the one publication order: it lets sharded workers
reassemble the exact single-process log interleaving, and the session's
sink writer orders each flush's records by it.

Two bounded-memory levers live here: the :class:`LinkTable` cap with LRU
eviction (least recent activity — the later of the link's attach and
its tagged node's last end event — with attach order as the tie-break;
deterministic, stream-only), and :class:`ObservationLedger`, a list
replacement for ``detector.observations`` that retains only the newest
K entries while preserving *virtual* indices (so provenance observation
ids match an unbounded run exactly).  Timeline pruning and demux
compaction belong to the observatory
(:meth:`~repro.core.observatory.SharedChannelObservatory.compact`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.detector import BackoffMisbehaviorDetector
from repro.core.records import BackoffObservation
from repro.obs.audit import AuditRecord, DecisionAuditLog, JsonlLog, RecordT
from repro.obs.provenance import ProvenanceLog, ProvenanceRecord

LinkKey = Tuple[int, int]
#: publication order of one record: (event tag, attach seq, per-link index)
SortKey = Tuple[int, int, int]
#: a claimed record awaiting its sink: its sort key and the log holding it
Outgoing = Tuple[SortKey, JsonlLog[Any]]


class EventClock:
    """The session's monotone stream event counter (shared by tagged logs)."""

    __slots__ = ("index",)

    def __init__(self) -> None:
        self.index = 0


class _EventTagged(JsonlLog[RecordT]):
    """Stamps each record a log claims with its stream event index.

    The tag is fixed when the record's index is claimed (every append
    claims through :meth:`reserve`), so a deferred fill sorts at the
    event that made its window ready, not at the flush.  Given the
    session's ``outbox`` for this log's sink, each claim also queues its
    sort key ``(event tag, attach seq, per-link index)`` and the log
    there, so the sink writer touches only records made since its last
    flush.
    """

    __slots__ = ("_clock", "_attach_seq", "_outbox", "tags")

    def __init__(
        self,
        clock: EventClock,
        attach_seq: int,
        outbox: Optional[List[Outgoing]] = None,
    ) -> None:
        super().__init__()
        self._clock = clock
        self._attach_seq = attach_seq
        self._outbox = outbox
        self.tags: List[int] = []

    def reserve(self) -> int:
        tag = self._clock.index
        if self._outbox is not None:
            self._outbox.append(((tag, self._attach_seq, len(self.tags)), self))
        self.tags.append(tag)
        return super().reserve()


class TaggedAuditLog(_EventTagged[AuditRecord], DecisionAuditLog):
    """An audit log whose records carry their stream event index."""

    __slots__ = ()


class TaggedProvenanceLog(_EventTagged[ProvenanceRecord], ProvenanceLog):
    """A provenance log whose records carry their stream event index."""

    __slots__ = ()


class ObservationLedger:
    """A bounded ``observations`` store with stable virtual indices.

    ``len()`` reports the count of observations *ever appended*, so
    ``len(ledger) - 1`` — the id the detector stamps into provenance —
    is identical to an unbounded run's; iteration yields only the
    retained tail.
    """

    __slots__ = ("_items", "_offset", "retention")

    def __init__(self, retention: int) -> None:
        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}")
        self.retention = retention
        self._items: List[BackoffObservation] = []
        self._offset = 0

    def __len__(self) -> int:
        return self._offset + len(self._items)

    def __iter__(self) -> Iterator[BackoffObservation]:
        return iter(self._items)

    def append(self, observation: BackoffObservation) -> None:
        self._items.append(observation)

    def trim(self) -> int:
        """Drop all but the newest ``retention`` entries; returns drops."""
        excess = len(self._items) - self.retention
        if excess <= 0:
            return 0
        del self._items[:excess]
        self._offset += excess
        return excess


@dataclass
class LinkState:
    """Everything the session holds for one tracked (monitor, sender).

    The detector is the link's observatory subscription: it holds its
    channel view and its demux.
    """

    monitor: int
    tagged: int
    attach_seq: int
    discovered: bool
    detector: BackoffMisbehaviorDetector
    audit: TaggedAuditLog
    provenance: TaggedProvenanceLog
    #: stream event index at which the link was attached
    attached_at: int
    ledger: Optional[ObservationLedger] = field(default=None)


class LinkTable:
    """Tracked links keyed by (monitor, sender), LRU-bounded.

    ``max_links`` caps *this table*; a sharded
    :func:`~repro.serve.shard.run_serve` gives each worker's table
    ``max_links // workers``, so the cap holds for the total.  Eviction
    picks the link that has been idle longest: its activity is the
    later of its attach and its tagged node's last end event (stream
    event indices), and attach order breaks ties — both are pure
    functions of the stream, so eviction is deterministic and
    replayable.
    """

    def __init__(self, max_links: Optional[int] = None) -> None:
        if max_links is not None and max_links < 1:
            raise ValueError(f"max_links must be >= 1, got {max_links}")
        self.max_links = max_links
        self.evicted_links = 0
        self.evicted_verdicts = 0
        self._states: Dict[LinkKey, LinkState] = {}
        #: sender -> stream event index of its latest end event (one
        #: entry per sender seen, like the session's link numbering)
        self._last_end: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, key: LinkKey) -> bool:
        return key in self._states

    def get(self, key: LinkKey) -> Optional[LinkState]:
        return self._states.get(key)

    def states(self) -> List[LinkState]:
        """Live links in attach order."""
        return sorted(self._states.values(), key=lambda s: s.attach_seq)

    def touch(self, sender: int, index: int) -> None:
        """Record that ``sender`` ended a transmission at event ``index``."""
        self._last_end[sender] = index

    def needs_eviction(self) -> bool:
        return self.max_links is not None and len(self._states) >= self.max_links

    def pick_victim(self) -> LinkState:
        """The LRU link (oldest activity, earliest attach breaks ties)."""
        last_end = self._last_end
        return min(
            self._states.values(),
            key=lambda s: (
                max(s.attached_at, last_end.get(s.tagged, 0)),
                s.attach_seq,
            ),
        )

    def insert(self, state: LinkState) -> None:
        key = (state.monitor, state.tagged)
        if key in self._states:
            raise ValueError(f"link {key} already tracked")
        self._states[key] = state

    def remove(self, state: LinkState) -> None:
        del self._states[(state.monitor, state.tagged)]
        self.evicted_links += 1
        self.evicted_verdicts += len(state.detector.verdicts)

