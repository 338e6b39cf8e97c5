"""Streaming detection-as-a-service (``repro serve``).

Replays :class:`~repro.core.observation.ObservedTransmission` wire
records — from stdin, a file, a tailed file, or a unix socket — through
the shared observation plane with bounded memory: pruned busy
timelines, compacted demuxes, capped observation stores, and an
LRU-bounded link table.  Verdicts, audit records, provenance, and
Prometheus metrics stream out incrementally, byte-identical to an
in-process observatory run over the same events.

The stream producers (:class:`~repro.serve.capture.StreamCapture`,
``capture_scenario``, ``synthetic_stream``) are imported from
:mod:`repro.serve.capture` itself: the package does not import that
module, so ``python -m repro.serve.capture`` runs it exactly once.
"""

from repro.serve.ingest import (
    DEFAULT_QUEUE_CAP,
    BoundedLineQueue,
    iter_file,
    iter_follow,
    iter_handle,
    iter_socket,
)
from repro.serve.links import (
    EventClock,
    LinkKey,
    LinkState,
    LinkTable,
    ObservationLedger,
    TaggedAuditLog,
    TaggedProvenanceLog,
)
from repro.serve.records import (
    REJECT_REASONS,
    EndEvent,
    PositionsEvent,
    RecordRejected,
    ShutdownEvent,
    StartEvent,
    StreamEvent,
    end_line,
    parse_line,
    positions_line,
    shutdown_line,
    start_line,
)
from repro.serve.server import (
    LinkExport,
    ServeConfig,
    ServeResult,
    ServeSession,
    export_detector,
    merged_audit_jsonl,
    merged_provenance_jsonl,
    result_fingerprint,
    shard_of,
)
from repro.serve.shard import merge_results, run_serve

__all__ = [
    "DEFAULT_QUEUE_CAP",
    "BoundedLineQueue",
    "iter_file",
    "iter_follow",
    "iter_handle",
    "iter_socket",
    "EventClock",
    "LinkKey",
    "LinkState",
    "LinkTable",
    "ObservationLedger",
    "TaggedAuditLog",
    "TaggedProvenanceLog",
    "REJECT_REASONS",
    "EndEvent",
    "PositionsEvent",
    "RecordRejected",
    "ShutdownEvent",
    "StartEvent",
    "StreamEvent",
    "end_line",
    "parse_line",
    "positions_line",
    "shutdown_line",
    "start_line",
    "LinkExport",
    "ServeConfig",
    "ServeResult",
    "ServeSession",
    "export_detector",
    "merged_audit_jsonl",
    "merged_provenance_jsonl",
    "result_fingerprint",
    "shard_of",
    "merge_results",
    "run_serve",
]
