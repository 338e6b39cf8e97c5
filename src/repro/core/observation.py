"""What a monitoring node can actually see of the channel.

The monitor's raw material is (a) its own per-slot busy/idle view of the
medium and (b) the transmissions of the tagged node it can sense, with
the modified-RTS fields of those it can also *decode*.  Everything the
detector does — ARMA traffic intensity, the Iest/Best estimates, the
rank-sum samples — is computed from this observer, never from simulator
ground truth the node could not know.

Two implementations share the interval bookkeeping in
:class:`ChannelViewBase`:

* :class:`ChannelObserver` — the standalone engine listener one detector
  owns privately (the original path, still used for baselines and
  single-detector tests);
* :class:`repro.core.observatory.MonitorChannel` — the per-monitor-node
  timeline a :class:`~repro.core.observatory.SharedChannelObservatory`
  maintains once and shares across every detector observing from that
  node.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.listeners import SimulationListener
from repro.util.units import Slots

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.faults.schedule import FaultSchedule
    from repro.mac.frames import RtsFrame
    from repro.phy.medium import Medium, Transmission


@dataclass
class ObservedTransmission:
    """One transmission of the tagged node, as seen by the monitor.

    ``impairment`` names the injected link fault that cost the monitor
    the announcement (``rts`` is then ``None``); it stays ``None`` both
    for clean decodes and for physics-side decode failures (out of
    range, monitor transmitting, garbled preamble) — the detector
    labels those ``"undecodable"`` when it quarantines them.
    """

    start_slot: Slots
    end_slot: Slots
    rts: "Optional[RtsFrame]"    # the decoded RtsFrame, or None if not decodable
    success: bool
    receiver: int
    impairment: Optional[str] = None


# -- stable JSONL codec ---------------------------------------------------
#
# The streaming service (repro.serve) ships ObservedTransmission records
# across process boundaries as JSON objects; these functions define the
# wire schema.  The ``*_json_text`` formatters are the one definition of
# each record's field layout: they write the exact bytes of
# ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` directly
# (captures write one per end line, so no per-call ``json.dumps``), and
# the ``*_to_json`` dicts are those texts parsed back.  Integers are
# rendered by ``int.__repr__``, as ``json`` renders them.  Two invariants
# matter for byte-identity of replayed verdict streams:
#
# * slot fields stay python ints end to end — a slot that came back as
#   a float would poison every downstream Slots computation;
# * ``seq_off`` is the detector-side UNWRAPPED offset, not the 13-bit
#   on-air field: the verifiable PRS is a function of the unwrapped
#   value, so serializing the wrapped one would silently change every
#   dictated back-off once a sender passes 8192 frames.


def _codec_int(value: object, field: str) -> int:
    """``value`` as an exact int (bools and floats are rejected)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"field {field!r} must be an integer, got {value!r}"
        )
    return value


def _codec_bool(value: object, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"field {field!r} must be a boolean, got {value!r}")
    return value


def rts_json_text(frame: "RtsFrame") -> str:
    """The wire text of one modified-RTS announcement (keys sorted)."""
    return (
        f'{{"attempt":{int.__repr__(frame.attempt)},'
        f'"digest":"{frame.digest.hex()}",'
        f'"receiver":{int.__repr__(frame.receiver)},'
        f'"sender":{int.__repr__(frame.sender)},'
        f'"seq_off":{int.__repr__(frame.seq_off)}}}'
    )


def rts_to_json(frame: "RtsFrame") -> Dict[str, object]:
    """The wire dict of one modified-RTS announcement."""
    return json.loads(rts_json_text(frame))


def rts_from_json(data: object) -> "RtsFrame":
    """Parse :func:`rts_to_json` output; raises ValueError on anything off."""
    from repro.mac.frames import RtsFrame

    if not isinstance(data, dict):
        raise ValueError(f"rts must be an object, got {data!r}")
    unknown = sorted(set(data) - {"sender", "receiver", "seq_off", "attempt", "digest"})
    if unknown:
        raise ValueError(f"unknown rts keys: {unknown}")
    digest = data.get("digest")
    if not isinstance(digest, str):
        raise ValueError(f"field 'digest' must be a hex string, got {digest!r}")
    try:
        digest_bytes = bytes.fromhex(digest)
    except ValueError as exc:
        raise ValueError(f"field 'digest' is not valid hex: {digest!r}") from exc
    return RtsFrame(
        sender=_codec_int(data.get("sender"), "sender"),
        receiver=_codec_int(data.get("receiver"), "receiver"),
        seq_off=_codec_int(data.get("seq_off"), "seq_off"),
        attempt=_codec_int(data.get("attempt"), "attempt"),
        digest=digest_bytes,
    )


#: The exact key set of a serialized ObservedTransmission.
OBSERVED_FIELDS: Tuple[str, ...] = (
    "start_slot",
    "end_slot",
    "rts",
    "success",
    "receiver",
    "impairment",
)


def observed_json_text(observed: ObservedTransmission) -> str:
    """The wire text of one observed transmission (keys sorted)."""
    impairment = observed.impairment
    rts = observed.rts
    return (
        f'{{"end_slot":{int.__repr__(observed.end_slot)},'
        f'"impairment":{"null" if impairment is None else json.dumps(impairment)},'
        f'"receiver":{int.__repr__(observed.receiver)},'
        f'"rts":{"null" if rts is None else rts_json_text(rts)},'
        f'"start_slot":{int.__repr__(observed.start_slot)},'
        f'"success":{"true" if observed.success else "false"}}}'
    )


def observed_to_json(observed: ObservedTransmission) -> Dict[str, object]:
    """The wire dict of one observed transmission."""
    return json.loads(observed_json_text(observed))


def observed_from_json(data: object) -> ObservedTransmission:
    """Parse :func:`observed_to_json` output; ValueError on anything off."""
    if not isinstance(data, dict):
        raise ValueError(f"observed record must be an object, got {data!r}")
    unknown = sorted(set(data) - set(OBSERVED_FIELDS))
    if unknown:
        raise ValueError(f"unknown observed record keys: {unknown}")
    impairment = data.get("impairment")
    if impairment is not None and not isinstance(impairment, str):
        raise ValueError(
            f"field 'impairment' must be a string or null, got {impairment!r}"
        )
    rts_data = data.get("rts")
    return ObservedTransmission(
        start_slot=_codec_int(data.get("start_slot"), "start_slot"),
        end_slot=_codec_int(data.get("end_slot"), "end_slot"),
        rts=None if rts_data is None else rts_from_json(rts_data),
        success=_codec_bool(data.get("success"), "success"),
        receiver=_codec_int(data.get("receiver"), "receiver"),
        impairment=impairment,
    )


def joint_state_counts(
    observer_r: "ChannelViewBase",
    observer_s: "ChannelViewBase",
    start: Slots,
    end: Slots,
) -> Dict[str, int]:
    """Slot counts of the joint (R state, S state) channel view.

    Returns a dict with keys ``"II"``, ``"IB"``, ``"BI"``, ``"BB"`` —
    first letter R's state, second S's — over ``[start, end)``.  This is
    the ground-truth measurement behind the paper's Figures 3-4: e.g.
    p(S busy | R idle) = IB / (II + IB).

    Accepts anything exposing ``busy_intervals_in`` (a
    :class:`ChannelObserver` or an observatory channel).  Implemented as
    one merged sweep over both clipped interval lists: O(R + S) after
    the clip, no per-boundary binary searches.
    """
    counts = {"II": 0, "IB": 0, "BI": 0, "BB": 0}
    if end <= start:
        return counts
    r_busy = observer_r.busy_intervals_in(start, end)
    s_busy = observer_s.busy_intervals_in(start, end)
    n_r, n_s = len(r_busy), len(s_busy)
    ri = si = 0
    cursor = start
    while cursor < end:
        # Drop intervals that ended at or before the cursor; what is
        # left determines each observer's state on the next segment.
        while ri < n_r and r_busy[ri][1] <= cursor:
            ri += 1
        while si < n_s and s_busy[si][1] <= cursor:
            si += 1
        r_state = ri < n_r and r_busy[ri][0] <= cursor
        s_state = si < n_s and s_busy[si][0] <= cursor
        # The state holds until the nearest start/end among the current
        # intervals (or the window end); both lists are sorted, so only
        # the interval at each pointer can bound the segment.
        boundary = end
        if ri < n_r:
            edge = r_busy[ri][1] if r_state else r_busy[ri][0]
            if edge < boundary:
                boundary = edge
        if si < n_s:
            edge = s_busy[si][1] if s_state else s_busy[si][0]
            if edge < boundary:
                boundary = edge
        key = ("B" if r_state else "I") + ("B" if s_state else "I")
        counts[key] += boundary - cursor
        cursor = boundary
    return counts


class ChannelViewBase:
    """Busy-interval timeline + own-transmission ledger of one monitor.

    Holds only the interval bookkeeping and the queries the detector
    runs against it; no listener plumbing, no tagged-node state.  Busy
    intervals are kept sorted by start and non-overlapping (merged on
    insert); the monitor's own transmissions are serial, so the own-tx
    ledger is sorted and disjoint by construction.
    """

    __slots__ = ("_busy_starts", "_busy_ends", "_own_starts", "_own_ends")

    def __init__(self) -> None:
        self._busy_starts: List[int] = []
        self._busy_ends: List[int] = []
        self._own_starts: List[int] = []
        self._own_ends: List[int] = []

    # -- busy/idle accounting ----------------------------------------------------

    def _add_busy_interval(self, start: Slots, end: Slots) -> None:
        """Insert [start, end) and merge with overlapping neighbors."""
        if end <= start:
            return
        i = bisect.bisect_left(self._busy_starts, start)
        # Merge backwards into a predecessor that overlaps us.
        if i > 0 and self._busy_ends[i - 1] >= start:
            i -= 1
            start = self._busy_starts[i]
            end = max(end, self._busy_ends[i])
            del self._busy_starts[i], self._busy_ends[i]
        # Merge forward over any successors we swallow.
        while i < len(self._busy_starts) and self._busy_starts[i] <= end:
            end = max(end, self._busy_ends[i])
            del self._busy_starts[i], self._busy_ends[i]
        self._busy_starts.insert(i, start)
        self._busy_ends.insert(i, end)

    def _add_own_interval(self, start: Slots, end: Slots) -> None:
        """Record one of the monitor's own tx periods (arrive in order)."""
        self._own_starts.append(start)
        self._own_ends.append(end)

    def busy_slots_in(self, start: Slots, end: Slots) -> Slots:
        """Number of busy slots the monitor saw in [start, end)."""
        if end <= start:
            return 0
        total = 0
        i = bisect.bisect_right(self._busy_starts, start) - 1
        i = max(i, 0)
        while i < len(self._busy_starts) and self._busy_starts[i] < end:
            lo = max(self._busy_starts[i], start)
            hi = min(self._busy_ends[i], end)
            if hi > lo:
                total += hi - lo
            i += 1
        return total

    def busy_intervals_in(self, start: Slots, end: Slots) -> List[Tuple[int, int]]:
        """Busy sub-intervals clipped to [start, end), sorted, disjoint."""
        clipped: List[Tuple[int, int]] = []
        if end <= start:
            return clipped
        starts, ends = self._busy_starts, self._busy_ends
        i = bisect.bisect_right(starts, start) - 1
        i = max(i, 0)
        n = len(starts)
        while i < n and starts[i] < end:
            lo = max(starts[i], start)
            hi = min(ends[i], end)
            if hi > lo:
                clipped.append((lo, hi))
            i += 1
        return clipped

    def idle_busy_counts(self, start: Slots, end: Slots) -> Tuple[int, int]:
        """(idle, busy) slot counts at the monitor over [start, end)."""
        busy = self.busy_slots_in(start, end)
        return (end - start) - busy, busy

    def busy_after(self, slot: Slots) -> bool:
        """True if any busy interval extends past ``slot``."""
        ends = self._busy_ends
        return bool(ends) and ends[-1] > slot

    def own_tx_slots_in(self, start: Slots, end: Slots) -> Slots:
        """Slots in [start, end) spent transmitting by the monitor itself.

        The tagged neighbor certainly freezes during these (it senses
        the monitor), so the deterministic countdown bound excludes
        them.  The ledger is sorted and disjoint, so clip with bisect
        like :meth:`busy_slots_in` instead of scanning from the origin.
        """
        if end <= start:
            return 0
        total = 0
        starts, ends = self._own_starts, self._own_ends
        i = bisect.bisect_right(starts, start) - 1
        i = max(i, 0)
        n = len(starts)
        while i < n and starts[i] < end:
            lo = max(starts[i], start)
            hi = min(ends[i], end)
            if hi > lo:
                total += hi - lo
            i += 1
        return total

    def prune_before(self, horizon: Slots) -> int:
        """Drop timeline intervals that end at or before ``horizon``.

        The observatory's ``compact`` calls this with the oldest slot
        any live query can still reach (ARMA cursors, pending sample
        anchors); intervals straddling the horizon are kept
        whole, so every query over ``[horizon, ∞)`` is unchanged.
        Returns the number of intervals dropped.
        """
        dropped = 0
        cut = bisect.bisect_right(self._busy_ends, horizon)
        if cut:
            del self._busy_starts[:cut], self._busy_ends[:cut]
            dropped += cut
        cut = bisect.bisect_right(self._own_ends, horizon)
        if cut:
            del self._own_starts[:cut], self._own_ends[:cut]
            dropped += cut
        return dropped


class ChannelObserver(ChannelViewBase, SimulationListener):
    """Records one monitor's channel view and its view of a tagged node.

    Parameters
    ----------
    monitor_id:
        The observing node.
    tagged_id:
        The neighbor being monitored (the paper's "tagged node").
    """

    def __init__(self, monitor_id: int, tagged_id: int) -> None:
        from repro.faults.runtime import active_schedule

        ChannelViewBase.__init__(self)
        self.monitor_id = monitor_id
        self.tagged_id = tagged_id
        #: injected link faults (None = clean channel, the default)
        self.faults: "Optional[FaultSchedule]" = active_schedule()
        #: largest end slot of any transmission seen
        self.last_slot = 0
        # In-flight transmissions we flagged as sensed at their start.
        self._sensed_active: Dict[int, bool] = {}
        self._decodable_active: Dict[int, bool] = {}
        #: ObservedTransmission of the tagged node
        self.observed: List[ObservedTransmission] = []

    # -- listener callbacks ----------------------------------------------------

    def on_transmission_start(
        self, slot: Slots, transmission: "Transmission", medium: "Medium"
    ) -> None:
        key = id(transmission)
        sender = transmission.sender
        if sender == self.monitor_id:
            self._sensed_active[key] = True
        elif medium.senses(sender, self.monitor_id):
            self._sensed_active[key] = True
        if sender == self.tagged_id:
            # Decodable iff in decode range, the monitor itself silent,
            # and no other sensed transmission garbling the preamble.
            self._decodable_active[key] = medium.clean_decode(
                sender, self.monitor_id
            )

    def on_transmission_end(
        self,
        slot: Slots,
        transmission: "Transmission",
        success: bool,
        medium: "Medium",
    ) -> None:
        key = id(transmission)
        self.last_slot = max(self.last_slot, transmission.end_slot)
        if self._sensed_active.pop(key, False):
            self._add_busy_interval(transmission.start_slot, transmission.end_slot)
            if transmission.sender == self.monitor_id:
                self._add_own_interval(
                    transmission.start_slot, transmission.end_slot
                )
        if transmission.sender == self.tagged_id:
            decodable = self._decodable_active.pop(key, False)
            rts = transmission.frame if decodable else None
            impairment = None
            if decodable and self.faults is not None:
                rts, impairment = self.faults.deliver_rts(
                    self.monitor_id,
                    transmission.sender,
                    transmission.start_slot,
                    rts,
                )
            self.observed.append(
                ObservedTransmission(
                    start_slot=transmission.start_slot,
                    end_slot=transmission.end_slot,
                    rts=rts,
                    success=success,
                    receiver=transmission.receiver,
                    impairment=impairment,
                )
            )
