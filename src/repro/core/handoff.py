"""Monitor hand-off under mobility.

The paper's mobile experiments "choose a neighbor of the malicious node
to monitor its activity.  If this neighbor moves out of range, another
neighbor is randomly chosen."  :class:`MonitorHandoff` implements that
protocol: it owns the current :class:`BackoffMisbehaviorDetector`, and
at every mobility epoch checks whether the monitor can still decode the
tagged node; if not, it promotes a random current neighbor to monitor
and starts a fresh detector (statistical history does not transfer —
the new monitor has its own channel view).

Verdicts and deterministic violations from all monitors are accumulated
so experiment harnesses see one continuous stream.

With an ``observatory`` the hand-off manager works at the subscription
layer instead of the listener layer: the engine keeps one
:class:`~repro.core.observatory.SharedChannelObservatory` listener
throughout, and a hand-off detaches the old detector's subscription and
attaches the replacement's — no listener churn.  The replacement always
gets a *fresh private channel* (``fresh_channel=True``): a brand-new
monitor's observer starts empty, and inheriting the shared channel's
busy history would diverge from what that node could have recorded
(statistical history does not transfer, per the paper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.detector import BackoffMisbehaviorDetector, DetectorConfig
from repro.core.deterministic import DeterministicViolation
from repro.core.records import BackoffObservation, Verdict
from repro.geometry.vectors import distance
from repro.mac.constants import DEFAULT_TIMING
from repro.sim.listeners import SimulationListener
from repro.util.units import Slots

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.core.observatory import SharedChannelObservatory
    from repro.mac.constants import MacTiming
    from repro.obs.audit import DecisionAuditLog
    from repro.obs.provenance import ProvenanceLog
    from repro.phy.medium import Medium, Transmission
    from repro.util.rng import RngStream


class MonitorHandoff(SimulationListener):
    """Keeps *some* neighbor monitoring the tagged node at all times."""

    def __init__(
        self,
        tagged_id: int,
        initial_monitor: int,
        config: Optional[DetectorConfig] = None,
        timing: "Optional[MacTiming]" = None,
        rng: "Optional[RngStream]" = None,
        separation: Optional[float] = None,
        audit: "Optional[DecisionAuditLog]" = None,
        observatory: "Optional[SharedChannelObservatory]" = None,
        provenance: "Optional[ProvenanceLog]" = None,
    ) -> None:
        if rng is None:
            raise ValueError("MonitorHandoff requires an RngStream")
        self.tagged_id = tagged_id
        self.config = config if config is not None else DetectorConfig()
        self.timing = timing if timing is not None else DEFAULT_TIMING
        self._rng = rng
        #: one audit log spans every monitor of this tagged node
        self.audit = audit
        #: one provenance log spans every monitor of this tagged node
        self.provenance = provenance
        #: shared observation plane, or None for the listener path
        self.observatory = observatory
        if observatory is not None:
            self.detector = observatory.attach(
                initial_monitor,
                tagged_id,
                config=self.config,
                timing=timing,
                separation=separation,
                audit=audit,
                provenance=provenance,
                position_unit=False,
            )
            observatory.add_position_listener(self)
        else:
            self.detector = BackoffMisbehaviorDetector(
                initial_monitor,
                tagged_id,
                config=self.config,
                timing=timing,
                separation=separation,
                audit=audit,
                provenance=provenance,
            )
        self.handoffs = 0
        self.retired_detectors: List[BackoffMisbehaviorDetector] = []

    # -- aggregated views ----------------------------------------------------

    @property
    def monitor_id(self) -> int:
        return self.detector.monitor_id

    @property
    def observations(self) -> List[BackoffObservation]:
        """Samples across all monitors, in order."""
        out: List[BackoffObservation] = []
        for det in self.retired_detectors:
            out.extend(det.observations)
        out.extend(self.detector.observations)
        return out

    @property
    def observation_count(self) -> int:
        """Cheap total sample count (for stop conditions)."""
        return len(self.detector.observations) + sum(
            len(det.observations) for det in self.retired_detectors
        )

    @property
    def verdicts(self) -> List[Verdict]:
        out: List[Verdict] = []
        for det in self.retired_detectors:
            out.extend(det.verdicts)
        out.extend(self.detector.verdicts)
        return out

    @property
    def violations(self) -> List[DeterministicViolation]:
        out: List[DeterministicViolation] = []
        for det in self.retired_detectors:
            out.extend(det.violations)
        out.extend(self.detector.violations)
        return out

    @property
    def flagged_malicious(self) -> bool:
        return any(v.is_malicious for v in self.verdicts)

    # -- listener plumbing ------------------------------------------------------

    def on_transmission_start(
        self, slot: Slots, transmission: "Transmission", medium: "Medium"
    ) -> None:
        # Observatory mode: the subscription receives events directly;
        # this forwarding path only exists for the listener mode (the
        # subscribed detector itself rejects listener calls).
        self.detector.on_transmission_start(slot, transmission, medium)

    def on_transmission_end(
        self,
        slot: Slots,
        transmission: "Transmission",
        success: bool,
        medium: "Medium",
    ) -> None:
        self.detector.on_transmission_end(slot, transmission, success, medium)

    def on_positions_updated(
        self,
        slot: Slots,
        positions: Dict[int, Tuple[float, float]],
        medium: "Medium",
    ) -> None:
        if self.tagged_id in medium.neighbors(self.monitor_id):
            self.detector.on_positions_updated(slot, positions, medium)
            return
        replacement = self._pick_replacement(medium)
        if replacement is None:
            # Tagged node currently has no neighbors at all; keep the old
            # monitor (it will produce no samples until someone is close).
            self.detector.on_positions_updated(slot, positions, medium)
            return
        self._handoff(replacement, positions, medium, slot)

    def _pick_replacement(self, medium: "Medium") -> Optional[int]:
        candidates = sorted(
            n for n in medium.neighbors(self.tagged_id) if n != self.tagged_id
        )
        return self._rng.choice(candidates) if candidates else None

    def _handoff(
        self,
        new_monitor: int,
        positions: Dict[int, Tuple[float, float]],
        medium: "Medium",
        slot: Slots,
    ) -> None:
        self.retired_detectors.append(self.detector)
        self.handoffs += 1
        separation = None
        mon = positions.get(new_monitor)
        tag = positions.get(self.tagged_id)
        if mon is not None and tag is not None:
            separation = max(distance(mon, tag), 1.0)
        if self.observatory is not None:
            self.observatory.detach(self.detector)
            self.detector = self.observatory.attach(
                new_monitor,
                self.tagged_id,
                config=self.config,
                timing=self.timing,
                separation=separation,
                audit=self.audit,
                provenance=self.provenance,
                fresh_channel=True,
                position_unit=False,
            )
        else:
            self.detector = BackoffMisbehaviorDetector(
                new_monitor,
                self.tagged_id,
                config=self.config,
                timing=self.timing,
                separation=separation,
                audit=self.audit,
                provenance=self.provenance,
            )
        self.detector.on_positions_updated(slot, positions, medium)
