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
This module deliberately imports nothing from :mod:`repro.core` — the
detector depends on it, not the other way around.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

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


#: Placeholder occupying a reserved slot until :meth:`DecisionAuditLog.fill`
#: replaces it.  Identity-compared, never serialized: serve's scheduler
#: fills every reservation at its next flush, before any log is read.
_DEFERRED = AuditRecord(
    slot=-1,
    monitor=-1,
    tagged=-1,
    rule="rank_sum",
    diagnosis="deferred",
    deterministic=False,
)


class DecisionAuditLog:
    """An append-only list of :class:`AuditRecord`, JSONL in and out.

    Serve's scheduler evaluates rank-sum windows at its flush cadence
    rather than at ingest; :meth:`reserve` / :meth:`fill` let it keep
    each deferred record at the exact index an eager evaluation would
    have written, so audit streams stay byte-identical at any cadence.
    """

    def __init__(self, records: Optional[Iterable[AuditRecord]] = None) -> None:
        self.records: List[AuditRecord] = list(records or [])

    def record(self, entry: AuditRecord) -> None:
        self.records.append(entry)

    def reserve(self) -> int:
        """Claim the next index for a record to be filled in later."""
        self.records.append(_DEFERRED)
        return len(self.records) - 1

    def fill(self, index: int, entry: AuditRecord) -> None:
        """Replace the reserved placeholder at ``index`` with ``entry``."""
        if self.records[index] is not _DEFERRED:
            raise ValueError(f"audit index {index} was not reserved")
        self.records[index] = entry

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> "Iterable[AuditRecord]":
        return iter(self.records)

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

    # -- JSONL --------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One compact, sorted-key JSON object per line."""
        return "\n".join(
            json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":"))
            for r in self.records
        )

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        text = self.to_jsonl()
        target.write_text(text + "\n" if text else "", encoding="ascii")
        return target

    @classmethod
    def from_jsonl(cls, text: str) -> "DecisionAuditLog":
        records = [
            AuditRecord.from_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]
        return cls(records)

    @classmethod
    def read_jsonl(cls, path: Union[str, Path]) -> "DecisionAuditLog":
        return cls.from_jsonl(Path(path).read_text(encoding="ascii"))
