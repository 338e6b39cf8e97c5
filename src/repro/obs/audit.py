"""The detector decision audit log.

Every verdict of :class:`repro.core.detector.BackoffMisbehaviorDetector`
is a statistical claim; this module makes each one auditable by
recording *which rule fired* as a structured record:

``seq_offset``
    the announced SeqOff# did not advance by a positive amount within
    the missed-frame allowance (deterministic);
``attempt_number``
    a reused Attempt#/digest pair, or a fresh digest not starting at
    attempt 1 (deterministic);
``blatant_countdown``
    the observed countdown budget was shorter than the dictated
    back-off over an interval with no estimation ambiguity
    (deterministic);
``rank_sum``
    a Wilcoxon rank-sum window evaluation, with its statistic, p-value
    and the alpha threshold it was judged against (statistical — the
    diagnosis may be ``well_behaved``);
``quarantine``
    an observation whose announced ``SeqOff#``/``Attempt#``/``MD``
    fields were missing or corrupt was excluded from the verifiers and
    the rank-sum window; ``detail`` carries the impairment reason code
    (see :mod:`repro.faults`) and the diagnosis is always
    ``insufficient_data``.  Emitted only when quarantine auditing is
    active (automatic whenever fault injection is, off otherwise so
    clean-run audit streams stay byte-identical to earlier versions).

Records are plain dataclasses serialized to JSON-lines with sorted
keys, so audit files are diffable and byte-stable for a fixed seed.
:class:`JsonlLog` is the one log base: the record list, index
reservation (:meth:`~JsonlLog.reserve` / :meth:`~JsonlLog.fill`) and
JSONL in and out.  :class:`DecisionAuditLog` here and
:class:`repro.obs.provenance.ProvenanceLog` add only their queries.
This module deliberately imports nothing from :mod:`repro.core` — the
detector depends on it, not the other way around.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

AUDIT_SCHEMA = "repro.obs/audit/v1"

#: Every rule identifier an AuditRecord may carry.
AUDIT_RULES: Tuple[str, ...] = (
    "seq_offset",
    "attempt_number",
    "blatant_countdown",
    "rank_sum",
    "quarantine",
)

#: The exact key set of a serialized record (the JSONL schema).
AUDIT_FIELDS: Tuple[str, ...] = (
    "slot",
    "monitor",
    "tagged",
    "rule",
    "diagnosis",
    "deterministic",
    "detail",
    "p_value",
    "statistic",
    "threshold",
    "sample_size",
)


@dataclass(frozen=True)
class AuditRecord:
    """One detector decision, with the evidence that produced it."""

    slot: int
    monitor: int
    tagged: int
    rule: str                          # one of AUDIT_RULES
    diagnosis: str                     # Diagnosis.value
    deterministic: bool
    detail: str = ""
    p_value: Optional[float] = None    # rank_sum only
    statistic: Optional[float] = None  # rank_sum only
    threshold: Optional[float] = None  # the alpha the p-value was judged at
    sample_size: int = 0

    def __post_init__(self) -> None:
        if self.rule not in AUDIT_RULES:
            raise ValueError(
                f"unknown audit rule {self.rule!r}; expected one of {AUDIT_RULES}"
            )

    def to_dict(self) -> Dict[str, object]:
        # Every field is a scalar: the flat dict asdict() builds, without
        # its recursive copy.
        return {name: getattr(self, name) for name in AUDIT_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AuditRecord":
        unknown = sorted(set(data) - set(AUDIT_FIELDS))
        if unknown:
            raise ValueError(f"unknown audit record keys: {unknown}")
        return cls(**data)  # type: ignore[arg-type]


RecordT = TypeVar("RecordT")
LogT = TypeVar("LogT", bound="JsonlLog[Any]")

#: Placeholder occupying a reserved index until :meth:`JsonlLog.fill`
#: replaces it.  Identity-compared, never serialized: every reservation
#: is filled (serve's scheduler fills at its next flush) before a log is
#: read.
_RESERVED = object()


def jsonl_line(record: Any) -> str:
    """One record as a compact, sorted-key JSON line (no newline)."""
    return json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))


class JsonlLog(Generic[RecordT]):
    """An append-only record list with reserved indices, JSONL in and out.

    A verdict's records can be claimed before they can be written:
    :meth:`reserve` holds the index an eager append would have taken and
    :meth:`fill` writes the record there later, so a log's order never
    depends on when its records were completed.  :meth:`record` is both
    at once, so every index a log hands out is claimed by ``reserve``.
    Serve keeps two logs per tracked link, so the family is slotted.
    """

    __slots__ = ("records",)

    #: the record class :meth:`from_jsonl` parses each line into
    record_type: Any = None

    def __init__(self, records: Optional[Iterable[RecordT]] = None) -> None:
        self.records: List[RecordT] = list(records or [])

    def record(self, entry: RecordT) -> None:
        self.fill(self.reserve(), entry)

    def reserve(self) -> int:
        """Claim the next index for a record to be filled in later."""
        self.records.append(_RESERVED)  # type: ignore[arg-type]
        return len(self.records) - 1

    def fill(self, index: int, entry: RecordT) -> None:
        """Replace the reserved placeholder at ``index`` with ``entry``."""
        if self.records[index] is not _RESERVED:
            raise ValueError(
                f"{type(self).__name__} index {index} was not reserved"
            )
        self.records[index] = entry

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RecordT]:
        return iter(self.records)

    def to_jsonl(self) -> str:
        """One compact, sorted-key JSON object per line."""
        return "\n".join(jsonl_line(r) for r in self.records)

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        text = self.to_jsonl()
        target.write_text(text + "\n" if text else "", encoding="ascii")
        return target

    @classmethod
    def from_jsonl(cls: Type[LogT], text: str) -> LogT:
        records = [
            cls.record_type.from_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]
        return cls(records)

    @classmethod
    def read_jsonl(cls: Type[LogT], path: Union[str, Path]) -> LogT:
        return cls.from_jsonl(Path(path).read_text(encoding="ascii"))


class DecisionAuditLog(JsonlLog[AuditRecord]):
    """The detector's :class:`AuditRecord` stream, with rule summaries."""

    __slots__ = ()

    record_type = AuditRecord

    # -- summaries ----------------------------------------------------------

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.records:
            counts[entry.rule] = counts.get(entry.rule, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def deterministic_count(self) -> int:
        return sum(1 for r in self.records if r.deterministic)

    @property
    def statistical_count(self) -> int:
        return sum(1 for r in self.records if not r.deterministic)
