"""Verdict provenance: the evidence chain behind every detector decision.

An accusation is a statistical claim; the audit log
(:mod:`repro.obs.audit`) records *that* a rule fired, this module
records *why*: which observations entered the rank-sum window, the
window's slot bounds, the exact (dictated, estimated) inputs the
statistic ranked, the ARMA traffic-intensity state at evaluation time,
and the quarantine drops accumulated along the way.  Every verdict the
:class:`repro.core.detector.BackoffMisbehaviorDetector` publishes —
accusations, exonerations, and deterministic-verifier catches alike —
appends one :class:`ProvenanceRecord` to an attached
:class:`ProvenanceLog`.

Records link to the audit log through their shared coordinates
``(slot, monitor, tagged, rule)`` — provenance never changes the audit
schema, so clean-run audit streams stay byte-identical whether or not
provenance is attached.

:func:`explain` reconstructs the causal chain of one verdict id as a
structured dict (observations -> window -> rank-sum -> verdict), and
:func:`render_explanation` turns it into a human-readable narrative.
Export is JSONL (``demo --provenance OUT`` on the CLI), one sorted-key
object per line, byte-stable for a fixed seed.  The list, index
reservation and JSONL code live in the shared
:class:`repro.obs.audit.JsonlLog` base; :class:`ProvenanceLog` adds
only its lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.audit import JsonlLog

PROVENANCE_SCHEMA = "repro.obs/provenance/v1"

#: The exact key set of a serialized record (the JSONL schema).
PROVENANCE_FIELDS = (
    "verdict_id",
    "slot",
    "monitor",
    "tagged",
    "rule",
    "diagnosis",
    "deterministic",
    "detail",
    "observation_ids",
    "observation_slots",
    "window_start",
    "window_end",
    "dictated",
    "estimated",
    "statistic",
    "p_value",
    "threshold",
    "sample_size",
    "rho",
    "arma_alpha",
    "quarantine_drops",
    "skipped_samples",
)


@dataclass(frozen=True)
class ProvenanceRecord:
    """One verdict's full evidence chain.

    ``observation_ids`` index into the detector's accepted-observation
    list (``detector.observations``); ``observation_slots`` are the RTS
    start slots of the same samples, i.e. the window's timeline.
    Deterministic verdicts carry empty window lists (the violation's
    ``detail`` names the trigger); ``dictated``/``estimated`` hold the
    rank-sum inputs exactly as ranked (CW-normalized, guard band
    applied).
    """

    verdict_id: str
    slot: int
    monitor: int
    tagged: int
    rule: str
    diagnosis: str
    deterministic: bool
    detail: str = ""
    observation_ids: List[int] = field(default_factory=list)
    observation_slots: List[int] = field(default_factory=list)
    window_start: Optional[int] = None
    window_end: Optional[int] = None
    dictated: List[float] = field(default_factory=list)
    estimated: List[float] = field(default_factory=list)
    statistic: Optional[float] = None
    p_value: Optional[float] = None
    threshold: Optional[float] = None
    sample_size: int = 0
    rho: float = 0.0
    arma_alpha: float = 0.0
    quarantine_drops: Dict[str, int] = field(default_factory=dict)
    skipped_samples: int = 0

    def to_dict(self) -> Dict[str, object]:
        # The list and dict fields hold only scalars, so a one-level copy
        # equals asdict()'s deep copy at a fraction of its cost.
        out: Dict[str, object] = {}
        for name in PROVENANCE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, (list, dict)):
                value = value.copy()
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProvenanceRecord":
        unknown = sorted(set(data) - set(PROVENANCE_FIELDS))
        if unknown:
            raise ValueError(f"unknown provenance record keys: {unknown}")
        return cls(**data)  # type: ignore[arg-type]


class ProvenanceLog(JsonlLog[ProvenanceRecord]):
    """The detector's :class:`ProvenanceRecord` stream, with lookups."""

    __slots__ = ()

    record_type = ProvenanceRecord

    def find(self, verdict_id: str) -> ProvenanceRecord:
        """The record with ``verdict_id`` (raises KeyError if absent)."""
        for entry in self.records:
            if entry.verdict_id == verdict_id:
                return entry
        raise KeyError(
            f"no provenance record with verdict_id {verdict_id!r} "
            f"({len(self.records)} records in log)"
        )

    def verdict_ids(self) -> List[str]:
        """Every verdict id in the log, in publication order."""
        return [entry.verdict_id for entry in self.records]

    def accusations(self) -> List[ProvenanceRecord]:
        """The records whose diagnosis is an accusation."""
        return [r for r in self.records if r.diagnosis == "malicious"]

    def explain(self, verdict_id: str) -> Dict[str, object]:
        """See :func:`explain`."""
        return explain(self, verdict_id)


def explain(
    provenance: Union[ProvenanceLog, str, Path], verdict_id: str
) -> Dict[str, object]:
    """Reconstruct the causal chain behind one verdict.

    ``provenance`` is a :class:`ProvenanceLog` or a path to a JSONL
    dump of one.  Returns the chain as a structured dict::

        observations -> window -> rank_sum -> verdict

    Raises ``KeyError`` when ``verdict_id`` is not in the log.
    """
    log = (
        provenance
        if isinstance(provenance, ProvenanceLog)
        else ProvenanceLog.read_jsonl(provenance)
    )
    record = log.find(verdict_id)
    observations = [
        {
            "id": obs_id,
            "slot": slot,
            "dictated": x,
            "estimated": y,
        }
        for obs_id, slot, x, y in zip(
            record.observation_ids,
            record.observation_slots,
            record.dictated,
            record.estimated,
        )
    ]
    rank_sum: Optional[Dict[str, object]] = None
    if record.rule == "rank_sum":
        rank_sum = {
            "statistic": record.statistic,
            "p_value": record.p_value,
            "threshold": record.threshold,
            "x": list(record.dictated),
            "y": list(record.estimated),
        }
    return {
        "verdict_id": record.verdict_id,
        "slot": record.slot,
        "monitor": record.monitor,
        "tagged": record.tagged,
        "rule": record.rule,
        "diagnosis": record.diagnosis,
        "deterministic": record.deterministic,
        "detail": record.detail,
        "observations": observations,
        "window": {
            "start": record.window_start,
            "end": record.window_end,
            "size": record.sample_size,
        },
        "rank_sum": rank_sum,
        "arma": {"rho": record.rho, "alpha": record.arma_alpha},
        "quarantine_drops": dict(record.quarantine_drops),
        "skipped_samples": record.skipped_samples,
    }


def render_explanation(chain: Dict[str, object]) -> str:
    """A human-readable narrative of one :func:`explain` chain."""
    window = chain["window"]
    lines = [
        f"verdict {chain['verdict_id']}: {chain['diagnosis']} "
        f"({chain['rule']}, "
        f"{'deterministic' if chain['deterministic'] else 'statistical'}) "
        f"at slot {chain['slot']}",
        f"  monitor {chain['monitor']} observing node {chain['tagged']}",
    ]
    observations = chain["observations"]
    if observations:
        lines.append(
            f"  window: {len(observations)} observations over slots "
            f"[{window['start']}, {window['end']}]"
        )
        first, last = observations[0], observations[-1]
        lines.append(
            f"    first obs #{first['id']} @ slot {first['slot']} "
            f"(dictated {first['dictated']:.4g}, estimated {first['estimated']:.4g})"
        )
        lines.append(
            f"    last  obs #{last['id']} @ slot {last['slot']} "
            f"(dictated {last['dictated']:.4g}, estimated {last['estimated']:.4g})"
        )
    rank_sum = chain["rank_sum"]
    if rank_sum is not None:
        lines.append(
            f"  rank-sum: statistic {rank_sum['statistic']:.6g}, "
            f"p={rank_sum['p_value']:.6g} vs alpha={rank_sum['threshold']}"
        )
    arma = chain["arma"]
    lines.append(f"  ARMA traffic intensity rho={arma['rho']:.4f}")
    drops = chain["quarantine_drops"]
    if drops:
        total = sum(drops.values())
        lines.append(f"  quarantine drops along the way: {total} ({drops})")
    if chain["skipped_samples"]:
        lines.append(f"  skipped samples: {chain['skipped_samples']}")
    if chain["detail"]:
        lines.append(f"  detail: {chain['detail']}")
    return "\n".join(lines)
