"""A shared observation plane for many-monitor detection runs.

The paper's framework is cooperative: *every* neighbor of a sender is a
potential monitor.  The original wiring gave each
:class:`~repro.core.detector.BackoffMisbehaviorDetector` its own private
:class:`~repro.core.observation.ChannelObserver` registered as a full
engine listener, so a run with D detectors paid O(D) per transmission —
D ``senses()`` lookups, D copies of the *same monitor node's*
busy-interval timeline, D identical ARMA ingests.

:class:`SharedChannelObservatory` is a single engine listener that
ingests each transmission **once** and fans the result out cheaply:

* sensed/decodable status is resolved per *monitor node* once, from the
  medium's cached :meth:`~repro.phy.medium.Medium.sensors_of`
  frozensets;
* one :class:`MonitorChannel` (busy timeline + own-tx ledger) exists per
  monitor node, shared by every detector observing from that node;
* per-channel *feeds* — the ARMA traffic estimator, folded from the
  channel's timeline when rho is read, and the Bianchi competing-
  terminal estimator — are built once per (attach epoch, config) and
  shared by every detector attached to the channel with that key;
* each event touches only the channels it involves, so the per-event
  cost does not grow with the number of idle channels;
* a subscribed detector queries its :class:`MonitorChannel` directly
  and owns its ``observed`` list, the ``ObservedTransmission`` demux
  of its tagged node; the observatory keeps the subscribed detectors
  per tagged node and appends to those lists.

Equivalence contract: for detectors attached *before* the run starts
(or on a fresh private channel mid-run, as the mobility hand-off does),
same-seed observations, verdicts, audit logs and metrics snapshots are
byte-identical to the per-detector-observer path; the suite in
``tests/test_observatory.py`` pins this.  A detector attached mid-run to
an already-populated shared channel would inherit busy history its own
observer could never have seen — use ``fresh_channel=True`` there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.arma import ArmaTrafficEstimator
from repro.core.bianchi import CompetingTerminalEstimator
from repro.core.detector import BackoffMisbehaviorDetector, DetectorConfig
from repro.core.observation import ChannelViewBase, ObservedTransmission
from repro.core.ranksum import rank_sum_many, rank_sum_test
from repro.mac.constants import DEFAULT_TIMING
from repro.obs.trace import PID_ENGINE, active_tracer
from repro.sim.listeners import SimulationListener
from repro.util.units import Slots

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.core.detector import _Publication
    from repro.faults.schedule import FaultSchedule
    from repro.mac.constants import MacTiming
    from repro.obs.audit import DecisionAuditLog
    from repro.obs.provenance import ProvenanceLog
    from repro.obs.registry import MetricsRegistry
    from repro.phy.medium import Medium, Transmission

Position = Tuple[float, float]

#: Feed key: (attach epoch, arma alpha, arma interval, exchange slots).
_ArmaKey = Tuple[int, float, int, int]


class _ArmaFeed:
    """The shared estimators of one (attach epoch, config) on a channel.

    The observatory builds a feed, with its ``ArmaTrafficEstimator``
    and ``CompetingTerminalEstimator``, before the first detector that
    needs it, and every detector attached to the channel with the same
    key reads both from it.  The ARMA fold mirrors
    ``BackoffMisbehaviorDetector._advance_arma``: the cursor starts at
    the birth slot — the tx start slot of the first end event after the
    feed was created, which also fixes the subscribed detectors' birth
    slot — and only slots older than one full exchange before the
    observatory's present are folded.  The fold is chunking-invariant
    (:meth:`ArmaTrafficEstimator.fold`), so settling on read gives the
    rho that folding at every end event would.
    """

    __slots__ = (
        "key",
        "arma",
        "terminal",
        "exchange_slots",
        "cursor",
        "birth_slot",
        "detectors",
        "channel",
        "observatory",
    )

    def __init__(
        self,
        key: _ArmaKey,
        channel: "MonitorChannel",
        observatory: "SharedChannelObservatory",
    ) -> None:
        _epoch, arma_alpha, arma_interval_slots, exchange_slots = key
        self.key = key
        self.arma = ArmaTrafficEstimator(arma_alpha, arma_interval_slots)
        self.terminal = CompetingTerminalEstimator()
        self.exchange_slots = exchange_slots
        self.cursor = 0
        self.birth_slot: Optional[int] = None
        self.detectors: List[BackoffMisbehaviorDetector] = []
        self.channel = channel
        self.observatory = observatory

    def set_birth(self, birth_slot: Slots) -> None:
        """Fix the birth slot (and the fold cursor) of the feed."""
        self.birth_slot = birth_slot
        self.cursor = birth_slot
        for detector in self.detectors:
            detector._birth_slot = birth_slot

    def settle(self) -> None:
        """Fold finalized slots up to ``present_slot - exchange_slots``.

        A dead channel (no subscribers left) stays frozen where its last
        detach settled it, like a retired private observer.
        """
        if self.birth_slot is None or self.channel.subscribers <= 0:
            return
        target = self.observatory.present_slot - self.exchange_slots
        if target > self.cursor:
            self.arma.fold(self.channel, self.cursor, target)
            self.cursor = target


class MonitorChannel(ChannelViewBase):
    """One monitor node's shared busy timeline and estimator feeds.

    It is the channel view every detector subscribed from this node
    queries.  ``feeds`` maps each (attach epoch, arma_alpha,
    arma_interval_slots, exchange_slots) key to its :class:`_ArmaFeed`,
    in creation order.
    """

    __slots__ = ("monitor_id", "feeds", "occupancy_detectors", "subscribers")

    def __init__(self, monitor_id: int) -> None:
        ChannelViewBase.__init__(self)
        self.monitor_id = monitor_id
        self.feeds: Dict[_ArmaKey, _ArmaFeed] = {}
        #: detectors with occupancy correction enabled (per-tagged EWMA)
        self.occupancy_detectors: List[BackoffMisbehaviorDetector] = []
        #: live subscribed detectors reading this channel
        self.subscribers = 0

    def add_transmission(
        self, sender: int, start_slot: Slots, end_slot: Slots
    ) -> None:
        """Close a transmission this node sensed at its start."""
        self._add_busy_interval(start_slot, end_slot)
        if sender == self.monitor_id:
            self._add_own_interval(start_slot, end_slot)

    def record_attempt(
        self, sender: int, sensors: "FrozenSet[int]", collided: bool
    ) -> None:
        """Feed one foreign attempt this node sensed at its end."""
        # Every sensed attempt feeds the shared collision-probability
        # estimate behind the density inversion.
        for feed in self.feeds.values():
            feed.terminal.record_attempt(collided=collided)
        for detector in self.occupancy_detectors:
            if sender != detector.tagged_id:
                detector._record_occupancy(
                    invisible=detector.tagged_id not in sensors
                )


@dataclass
class _PendingWindow:
    """One rank-sum-ready window and its reserved publication.

    ``x`` and ``y`` are copies, so later ``add_sample`` calls in the same
    flush cycle cannot change what is ranked.
    """

    detector: BackoffMisbehaviorDetector
    slot: int
    x: List[float]
    y: List[float]
    publication: "_Publication"


class BatchScheduler:
    """Stores ready rank-sum windows and ranks them together at a flush.

    A detector tests each window at ingest, one scalar rank-sum per
    ready window.  A detector whose ``_batch_scheduler`` points here (the
    streaming service wires every link's detector to its session
    scheduler) *defers* ready windows instead, and each :meth:`flush`
    ranks them through :func:`repro.core.ranksum.rank_sum_many` in one
    vectorized call per alternative.  The scheduler only stores: the
    detector reserves each verdict's places when its window is deferred
    (``_reserve``) and fills them when the flush hands back the result.
    """

    def __init__(self) -> None:
        self._pending: List[_PendingWindow] = []

    def __len__(self) -> int:
        return len(self._pending)

    def defer(self, detector: BackoffMisbehaviorDetector, slot: Slots) -> None:
        """Store one ready window and its reserved publication."""
        x, y = detector.test.window_snapshot()
        self._pending.append(
            _PendingWindow(detector, slot, x, y, detector._reserve("rank_sum"))
        )

    def flush(self) -> None:
        """Evaluate every deferred window and publish its verdict."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        groups: Dict[str, List[_PendingWindow]] = {}
        for entry in pending:
            groups.setdefault(entry.detector.test.alternative, []).append(entry)
        for alternative, group in groups.items():
            if len(group) <= 4:
                # Below the kernel's numpy fixed cost (it overtakes the
                # scalar loop at 5 windows); the scalar test is
                # bit-identical by contract, so the fallback never
                # moves a verdict.
                results = [
                    rank_sum_test(entry.x, entry.y, alternative)
                    for entry in group
                ]
            else:
                results = rank_sum_many(
                    [entry.x for entry in group],
                    [entry.y for entry in group],
                    alternative,
                )
            for entry, result in zip(group, results):
                entry.detector._emit_rank_sum_verdict(
                    result, entry.slot, entry.publication
                )


class SharedChannelObservatory(SimulationListener):
    """The single engine listener behind every subscribed detector."""

    def __init__(self) -> None:
        from repro.faults.runtime import active_schedule

        #: injected link faults (None = clean channel, the default);
        #: applied per monitor *node*, identically to a private
        #: ChannelObserver on that node (the draws are pure hashes of
        #: (monitor, sender, start slot), so the equivalence contract
        #: holds under faults too).
        self.faults: "Optional[FaultSchedule]" = active_schedule()
        #: monitor id -> shared channel (fresh channels live only in the list)
        self._channels: Dict[int, MonitorChannel] = {}
        #: every live channel, shared and fresh, in creation order
        self._channel_list: List[MonitorChannel] = []
        #: monitor id -> every live channel on that node, shared and fresh
        self._monitor_index: Dict[int, List[MonitorChannel]] = {}
        #: channels that sensed each in-flight key at its start
        self._sensed_by_key: Dict[int, List[MonitorChannel]] = {}
        #: subscribed detectors whose monitor decoded each in-flight key
        #: at its start (keys nobody decoded have no entry)
        self._decodable_by_key: Dict[int, List[BackoffMisbehaviorDetector]] = {}
        #: end events ingested; feeds are keyed by the value at attach
        #: time so only detectors that joined at the same point in the
        #: stream share state
        self.events_ingested = 0
        #: largest end slot ingested
        self.last_slot: Slots = 0
        #: latest end-event dispatch slot; feeds fold up to one exchange
        #: before it
        self.present_slot: Slots = 0
        #: feeds whose birth slot the next end event fixes
        self._unborn: List[_ArmaFeed] = []
        #: tagged id -> subscribed detectors, in attach order (= audit order)
        self._detectors_by_tagged: Dict[int, List[BackoffMisbehaviorDetector]] = {}
        #: units receiving position epochs (detectors, hand-off managers)
        self._position_units: List[SimulationListener] = []
        #: the process tracer when tracing is on (ingest/demux instants)
        self._tracer = active_tracer()

    # -- subscription management -------------------------------------------

    def attach(
        self,
        monitor_id: int,
        tagged_id: int,
        config: Optional[DetectorConfig] = None,
        timing: "Optional[MacTiming]" = None,
        separation: Optional[float] = None,
        audit: "Optional[DecisionAuditLog]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
        provenance: "Optional[ProvenanceLog]" = None,
        fresh_channel: bool = False,
        position_unit: bool = True,
    ) -> BackoffMisbehaviorDetector:
        """Create a detector subscribed to this observatory.

        The detector reads the channel's feed for its (attach epoch,
        config) key, which is built here when it is the first to need
        it.  ``fresh_channel=True`` gives the detector a private, empty
        channel instead of the monitor node's shared one — required for
        byte-identity when attaching mid-run (a hand-off replacement
        must not inherit busy history its own observer never saw).
        ``position_unit=False`` skips mobility-epoch forwarding (the
        hand-off manager forwards positions itself).
        """
        cfg = config if config is not None else DetectorConfig()
        timing = timing if timing is not None else DEFAULT_TIMING
        channel = self._channels.get(monitor_id) if not fresh_channel else None
        if channel is None:
            channel = MonitorChannel(monitor_id)
            self._channel_list.append(channel)
            self._monitor_index.setdefault(monitor_id, []).append(channel)
            if not fresh_channel:
                self._channels[monitor_id] = channel
        key: _ArmaKey = (
            self.events_ingested,
            cfg.arma_alpha,
            cfg.arma_interval_slots,
            timing.exchange_slots,
        )
        feed = channel.feeds.get(key)
        if feed is None:
            feed = channel.feeds[key] = _ArmaFeed(key, channel, self)
            self._unborn.append(feed)
        detector = BackoffMisbehaviorDetector(
            monitor_id,
            tagged_id,
            config=cfg,
            timing=timing,
            separation=separation,
            audit=audit,
            metrics=metrics,
            feed=feed,
            provenance=provenance,
        )
        feed.detectors.append(detector)
        channel.subscribers += 1
        if cfg.occupancy_correction:
            channel.occupancy_detectors.append(detector)
        self._detectors_by_tagged.setdefault(tagged_id, []).append(detector)
        if position_unit:
            self._position_units.append(detector)
        return detector

    def detach(self, detector: BackoffMisbehaviorDetector) -> None:
        """Unsubscribe a detector; its recorded state freezes.

        Drops the detector from its tagged node's list (and the list once
        empty), its feed, and the position and occupancy registrations.
        A feed no remaining detector holds leaves the channel, so
        evictions cannot grow a live channel's per-event work.  If the
        channel has no remaining subscribers it stops updating entirely
        (like a retired private observer).  Detaching a detector twice
        raises ``ValueError`` and leaves its channel alone.
        """
        feed = detector._arma_feed
        if feed is None:
            raise ValueError("detector is not observatory-subscribed")
        if detector not in feed.detectors:
            raise ValueError("detector is already detached")
        channel = feed.channel
        siblings = self._detectors_by_tagged[detector.tagged_id]
        siblings.remove(detector)
        if not siblings:
            del self._detectors_by_tagged[detector.tagged_id]
        if detector in self._position_units:
            self._position_units.remove(detector)
        if detector in channel.occupancy_detectors:
            channel.occupancy_detectors.remove(detector)
        if channel.subscribers == 1:
            # The last subscriber is leaving: freeze its feed at the
            # present before the dead channel stops settling.
            feed.settle()
        feed.detectors.remove(detector)
        if not feed.detectors:
            del channel.feeds[feed.key]
            if feed in self._unborn:
                self._unborn.remove(feed)
        channel.subscribers -= 1
        if channel.subscribers <= 0:
            self._channel_list.remove(channel)
            channels = self._monitor_index.get(channel.monitor_id)
            if channels is not None and channel in channels:
                channels.remove(channel)
                if not channels:
                    del self._monitor_index[channel.monitor_id]
            if self._channels.get(channel.monitor_id) is channel:
                del self._channels[channel.monitor_id]

    def add_position_listener(self, unit: SimulationListener) -> None:
        """Forward mobility epochs to ``unit`` (e.g. a MonitorHandoff)."""
        self._position_units.append(unit)

    def sync_ingest(self) -> None:
        """Settle every live feed to the present.

        Feeds otherwise fold when a detector reads rho; call this before
        reading feed state (cursors, estimators) from outside.
        """
        for channel in self._channel_list:
            for feed in channel.feeds.values():
                feed.settle()

    def compact(self, present: Slots) -> Tuple[int, int]:
        """Drop timeline and demux state no live query can reach again.

        A detector's anchor is the end slot of its last processed
        observation, where the next interval query starts (``present``
        before there is one).  Each detector's ``observed`` list drops
        the processed observations before its anchor, with ``_processed``
        shifted to match; each channel prunes behind its earliest anchor
        and feed cursor.  Returns ``(intervals pruned, observations
        dropped)``.
        """
        self.sync_ingest()
        pruned = dropped = 0
        for channel in self._channel_list:
            # An unborn feed's cursor is 0, which holds the whole timeline.
            horizon = min(feed.cursor for feed in channel.feeds.values())
            for feed in channel.feeds.values():
                for detector in feed.detectors:
                    processed = detector._processed
                    if processed == 0:
                        horizon = min(horizon, present)
                        continue
                    observed = detector.observed
                    horizon = min(horizon, observed[processed - 1].end_slot)
                    if processed > 1:
                        del observed[: processed - 1]
                        detector._processed = 1
                        dropped += processed - 1
            if horizon > 0:
                pruned += channel.prune_before(horizon)
        return pruned, dropped

    def _channels_of(
        self, nodes: "FrozenSet[int]", extra: Optional[int] = None
    ) -> List[MonitorChannel]:
        """Live channels whose monitor is in ``nodes`` or is ``extra``.

        Walks whichever is smaller, the channel list or ``nodes``; both
        give the same set.
        """
        channels = self._channel_list
        if len(channels) <= len(nodes):
            return [
                channel
                for channel in channels
                if channel.monitor_id in nodes or channel.monitor_id == extra
            ]
        index = self._monitor_index
        found: List[MonitorChannel] = []
        for node in nodes:
            found.extend(index.get(node, ()))
        if extra is not None and extra not in nodes:
            found.extend(index.get(extra, ()))
        return found

    # -- medium-free ingest plane ------------------------------------------
    #
    # The engine hooks below resolve physics (``sensors_of``,
    # ``clean_decode``) from the live medium and delegate here.  The
    # streaming service (``repro.serve``) calls these methods directly
    # with sensed/decodable sets read off the wire — same code path,
    # byte-identical demux, no simulator required.

    def ingest_start(
        self,
        slot: Slots,
        key: int,
        sender: int,
        sensors: "FrozenSet[int]",
        decodable_monitors: "FrozenSet[int]",
    ) -> None:
        """Mark one transmission start: sensing channels and decoders.

        The decoders are the sender's subscribed detectors whose monitor
        decodes the frame; a detector attached after the start is not
        among them, so it does not treat this transmission as decodable.
        """
        sensed = self._channels_of(sensors, sender)
        if sensed:
            self._sensed_by_key[key] = sensed
        subs = self._detectors_by_tagged.get(sender)
        if not subs:
            return
        decoders = [d for d in subs if d.monitor_id in decodable_monitors]
        if decoders:
            self._decodable_by_key[key] = decoders

    def ingest_end(
        self,
        slot: Slots,
        key: int,
        sender: int,
        receiver: int,
        start_slot: Slots,
        end_slot: Slots,
        success: bool,
        frame: object,
        sensors: "FrozenSet[int]",
        medium: "Optional[Medium]" = None,
    ) -> None:
        """Absorb one transmission end: timelines, demux, evaluation.

        Only the channels the event involves are touched: those that
        sensed it at start close its busy interval, and those whose
        monitor senses it now feed their terminal and occupancy
        estimators.  ARMA feeds fold lazily, when rho is read.
        """
        self.events_ingested += 1
        self.present_slot = slot
        if end_slot > self.last_slot:
            self.last_slot = end_slot
        if self._unborn:
            for feed in self._unborn:
                feed.set_birth(start_slot)
            self._unborn.clear()
        # Sensed at start closes the busy interval even if the monitor
        # moved out of the end-time sensor set (mobility); a channel
        # detached while the transmission was in flight is dead.
        for channel in self._sensed_by_key.pop(key, ()):
            if channel.subscribers > 0:
                channel.add_transmission(sender, start_slot, end_slot)
        collided = not success
        for channel in self._channels_of(sensors):
            if channel.monitor_id != sender:
                channel.record_attempt(sender, sensors, collided)
        decoders = self._decodable_by_key.pop(key, ())
        subs = self._detectors_by_tagged.get(sender)
        if self._tracer is not None:
            self._tracer.instant(
                "observatory.ingest",
                slot=slot,
                pid=PID_ENGINE,
                category="observatory",
                args={
                    "sender": sender,
                    "channels": len(self._channel_list),
                    "subscriptions": len(subs) if subs else 0,
                },
            )
        if not subs:
            return
        #: per-monitor-node fault resolution memo: (rts, impairment)
        delivered: Dict[int, Tuple[object, Optional[str]]] = {}
        for detector in subs:
            decodable = detector in decoders
            rts = frame if decodable else None
            impairment = None
            if decodable and self.faults is not None:
                monitor = detector.monitor_id
                outcome = delivered.get(monitor)
                if outcome is None:
                    outcome = delivered[monitor] = self.faults.deliver_rts(
                        monitor, sender, start_slot, frame
                    )
                rts, impairment = outcome
            detector.observed.append(
                ObservedTransmission(
                    start_slot=start_slot,
                    end_slot=end_slot,
                    rts=rts,
                    success=success,
                    receiver=receiver,
                    impairment=impairment,
                )
            )
        # Run the sample pipelines only after every demux appended, in
        # attach order (which fixes the audit-record order exactly as
        # the per-listener dispatch did).
        for detector in subs:
            detector._process_new_observations(medium)

    def ingest_positions(
        self,
        slot: Slots,
        positions: Dict[int, Position],
        medium: "Optional[Medium]" = None,
    ) -> None:
        """Forward a mobility epoch to every registered position unit."""
        for unit in self._position_units:
            unit.on_positions_updated(slot, positions, medium)

    # -- engine listener callbacks -----------------------------------------

    def on_transmission_start(
        self, slot: Slots, transmission: "Transmission", medium: "Medium"
    ) -> None:
        key = id(transmission)
        sender = transmission.sender
        sensors = medium.sensors_of(sender)
        # Decodable iff in decode range, the monitor itself silent, and
        # no other sensed transmission garbling the preamble — resolved
        # once per monitor node, not once per detector.
        decodable_monitors: Set[int] = set()
        subs = self._detectors_by_tagged.get(sender)
        if subs:
            flags: Dict[int, bool] = {}
            for detector in subs:
                monitor = detector.monitor_id
                decodable = flags.get(monitor)
                if decodable is None:
                    decodable = flags[monitor] = medium.clean_decode(
                        sender, monitor
                    )
                if decodable:
                    decodable_monitors.add(monitor)
        self.ingest_start(slot, key, sender, sensors, decodable_monitors)

    def on_transmission_end(
        self,
        slot: Slots,
        transmission: "Transmission",
        success: bool,
        medium: "Medium",
    ) -> None:
        self.ingest_end(
            slot,
            id(transmission),
            transmission.sender,
            transmission.receiver,
            transmission.start_slot,
            transmission.end_slot,
            success,
            transmission.frame,
            medium.sensors_of(transmission.sender),
            medium,
        )

    def on_positions_updated(
        self, slot: Slots, positions: Dict[int, Position], medium: "Medium"
    ) -> None:
        self.ingest_positions(slot, positions, medium)
