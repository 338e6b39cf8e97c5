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
* per-channel *feeds* advance the ARMA traffic estimator and the
  Bianchi competing-terminal estimator once per event and are shared by
  every same-configuration detector on the channel;
* detectors subscribe via :class:`ObservatorySubscription` — a
  read-only, ``ChannelObserver``-compatible view plus a private
  ``ObservedTransmission`` demux of their tagged node.

Equivalence contract: for detectors attached *before* the run starts
(or on a fresh private channel mid-run, as the mobility hand-off does),
same-seed observations, verdicts, audit logs and metrics snapshots are
byte-identical to the per-detector-observer path; the suite in
``tests/test_observatory.py`` pins this.  A detector attached mid-run to
an already-populated shared channel would inherit busy history its own
observer could never have seen — use ``fresh_channel=True`` there.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.detector import BackoffMisbehaviorDetector, DetectorConfig
from repro.core.observation import ChannelViewBase, ObservedTransmission
from repro.core.ranksum import rank_sum_many, rank_sum_test
from repro.obs.trace import PID_ENGINE, active_tracer
from repro.sim.listeners import SimulationListener
from repro.util.units import Slots

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.core.arma import ArmaTrafficEstimator
    from repro.core.bianchi import CompetingTerminalEstimator
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
    """One shared ARMA ingest stream on a :class:`MonitorChannel`.

    Mirrors ``BackoffMisbehaviorDetector._advance_arma`` exactly: the
    cursor starts at the first event's start slot (which also fixes the
    subscribed detectors' birth slot) and only slots older than one full
    exchange are ingested.  Every detector whose (arma_alpha,
    arma_interval_slots, exchange_slots, attach epoch) matches shares
    this feed's estimator instance.
    """

    __slots__ = ("arma", "exchange_slots", "cursor", "birth_slot", "detectors")

    def __init__(self, arma: "ArmaTrafficEstimator", exchange_slots: int) -> None:
        self.arma = arma
        self.exchange_slots = exchange_slots
        self.cursor = 0
        self.birth_slot: Optional[int] = None
        self.detectors: List[BackoffMisbehaviorDetector] = []

    def advance(
        self, slot: Slots, tx_start_slot: Slots, channel: "MonitorChannel"
    ) -> None:
        """Ingest finalized slots up to ``slot - exchange_slots``."""
        if self.birth_slot is None:
            birth = tx_start_slot
            self.birth_slot = birth
            self.cursor = birth
            for detector in self.detectors:
                detector._birth_slot = birth
                detector._arma_cursor = birth
        target = slot - self.exchange_slots
        if target <= self.cursor:
            return
        idle, busy = channel.idle_busy_counts(self.cursor, target)
        self.arma.ingest(busy, idle + busy)
        self.cursor = target

    def replay(
        self,
        log: "List[Tuple[Slots, Slots, Slots]]",
        start: int,
        channel: "MonitorChannel",
    ) -> None:
        """Advance through deferred end events, fold-for-fold identical
        to :meth:`advance` having been called at each one.

        ``log`` holds one entry per *distinct* dispatch slot — exactly
        the granularity :meth:`advance` folds at, since repeat calls at
        an unchanged slot hit the ``target <= cursor`` early return.
        Chunking matters in exactly two places, and both are honored:
        busy slots are apportioned by the fraction pending when an
        interval completes, so (a) entries are folded one at a time
        while busy intervals remain past the cursor, and (b) once the
        remaining stretch is pure idle, entries merge freely *between*
        interval boundaries (accumulating into the pending buffer is
        associative) while each boundary-crossing entry folds alone.
        With nothing busy pending at all the fraction is identically
        ``0.0`` under any chunking and the whole tail merges into one
        ingest.  Every branch is bit-identical to the per-event
        sequence.
        """
        i = start
        n = len(log)
        if self.birth_slot is None and i < n:
            # Birth comes from the first event after feed creation,
            # exactly as the eager per-event advance fixes it.
            slot, tx_start, _end = log[i]
            self.advance(slot, tx_start, channel)
            i += 1
        arma = self.arma
        exchange = self.exchange_slots
        while i < n and channel.busy_after(self.cursor):
            target = log[i][0] - exchange
            i += 1
            if target <= self.cursor:
                continue
            idle, busy = channel.idle_busy_counts(self.cursor, target)
            arma.ingest(busy, idle + busy)
            self.cursor = target
        if i >= n:
            return
        last_target = log[n - 1][0] - exchange
        if last_target <= self.cursor:
            return
        if arma.pending_busy == 0.0:
            arma.ingest(0, last_target - self.cursor)
            self.cursor = last_target
            return
        s = arma.sample_interval_slots
        while i < n:
            # Entries below `bound` cannot complete an interval even
            # merged; the first at or past it must fold alone so the
            # apportioning fraction sees its exact chunk.
            bound = self.cursor + exchange + (s - arma.pending_total)
            j = bisect.bisect_left(log, (bound,), i, n)
            if j > i:
                merged = log[j - 1][0] - exchange
                if merged > self.cursor:
                    arma.ingest(0, merged - self.cursor)
                    self.cursor = merged
                i = j
                if i >= n:
                    return
            target = log[i][0] - exchange
            i += 1
            if target > self.cursor:
                arma.ingest(0, target - self.cursor)
                self.cursor = target


class MonitorChannel(ChannelViewBase):
    """One monitor node's shared busy timeline and estimator feeds."""

    def __init__(self, monitor_id: int) -> None:
        ChannelViewBase.__init__(self)
        self.monitor_id = monitor_id
        #: id(transmission) of in-flight transmissions sensed at start
        self._sensed_keys: Set[int] = set()
        #: end events ingested since this channel was created; feeds are
        #: keyed by the value at attach time so only detectors that
        #: joined at the same point in the stream share state.
        self.events_ingested = 0
        self._arma_by_key: Dict[_ArmaKey, _ArmaFeed] = {}
        self.arma_feeds: List[_ArmaFeed] = []
        self._terminal_by_epoch: Dict[int, "CompetingTerminalEstimator"] = {}
        self.terminal_feeds: List["CompetingTerminalEstimator"] = []
        #: lazy-ingest bookkeeping: position in the observatory's
        #: end-event log / raw event count this channel has absorbed
        #: (see SharedChannelObservatory.enable_lazy_ingest)
        self._lazy_log_index = 0
        self._lazy_events = 0
        #: detectors with occupancy correction enabled (per-tagged EWMA)
        self.occupancy_detectors: List[BackoffMisbehaviorDetector] = []
        #: live subscriptions reading this channel
        self.subscribers = 0

    def ingest_end(
        self,
        slot: Slots,
        key: int,
        sender: int,
        sensors: "FrozenSet[int]",
        start_slot: Slots,
        end_slot: Slots,
        collided: bool,
    ) -> None:
        """Absorb one end event: timeline, estimator feeds, bookkeeping."""
        monitor = self.monitor_id
        if end_slot > self.last_slot:
            self.last_slot = end_slot
        if key in self._sensed_keys:
            self._sensed_keys.remove(key)
            self._add_busy_interval(start_slot, end_slot)
            if sender == monitor:
                self._add_own_interval(start_slot, end_slot)
        self.events_ingested += 1
        if sender != monitor and monitor in sensors:
            # Every sensed attempt feeds the shared collision-
            # probability estimate behind the density inversion.
            for terminal in self.terminal_feeds:
                terminal.record_attempt(collided=collided)
            for detector in self.occupancy_detectors:
                if sender != detector.tagged_id:
                    detector._record_occupancy(
                        invisible=detector.tagged_id not in sensors
                    )
        for feed in self.arma_feeds:
            feed.advance(slot, start_slot, self)

    def replay_deferred(
        self, log: "List[Tuple[Slots, Slots, Slots]]", start: int
    ) -> None:
        """Catch up on end events this channel was not involved in.

        Reproduces exactly what per-event :meth:`ingest_end` calls with
        no sensed key, no own traffic, and a foreign non-sensing sender
        would have done: bump ``last_slot`` and advance the ARMA feeds.
        (``events_ingested`` is settled by the observatory, which knows
        the raw event count behind the distinct-slot log.)
        """
        last_end = log[-1][2]
        if last_end > self.last_slot:
            self.last_slot = last_end
        for feed in self.arma_feeds:
            feed.replay(log, start, self)


class ObservatorySubscription:
    """A detector's read-only, ``ChannelObserver``-compatible view.

    Queries delegate to the shared :class:`MonitorChannel`; the
    ``observed`` demux (and the decodable flags captured at transmission
    start) are private to this (monitor, tagged) subscription.
    """

    __slots__ = (
        "channel",
        "monitor_id",
        "tagged_id",
        "observed",
        "_observatory",
        "_decodable_keys",
        "_detector",
    )

    def __init__(
        self,
        observatory: "SharedChannelObservatory",
        channel: MonitorChannel,
        monitor_id: int,
        tagged_id: int,
    ) -> None:
        self._observatory = observatory
        self.channel = channel
        self.monitor_id = monitor_id
        self.tagged_id = tagged_id
        #: ObservedTransmission of the tagged node (this sub's demux)
        self.observed: List[ObservedTransmission] = []
        #: id(transmission) of in-flight tagged tx decodable at start
        self._decodable_keys: Set[int] = set()
        self._detector: Optional[BackoffMisbehaviorDetector] = None

    # -- ChannelObserver-compatible query surface --------------------------

    def busy_slots_in(self, start: Slots, end: Slots) -> int:
        return self.channel.busy_slots_in(start, end)

    def busy_intervals_in(self, start: Slots, end: Slots) -> List[Tuple[int, int]]:
        return self.channel.busy_intervals_in(start, end)

    def idle_busy_counts(self, start: Slots, end: Slots) -> Tuple[int, int]:
        return self.channel.idle_busy_counts(start, end)

    def idle_stretches_in(self, start: Slots, end: Slots) -> int:
        return self.channel.idle_stretches_in(start, end)

    def own_tx_slots_in(self, start: Slots, end: Slots) -> int:
        return self.channel.own_tx_slots_in(start, end)

    def traffic_intensity(self, start: Slots, end: Slots) -> float:
        return self.channel.traffic_intensity(start, end)

    @property
    def faults(self) -> "Optional[FaultSchedule]":
        """The observatory's injected fault schedule (None = clean)."""
        return self._observatory.faults

    @property
    def monitor_tx_slots(self) -> int:
        return self.channel.monitor_tx_slots

    @property
    def last_slot(self) -> int:
        return self.channel.last_slot

    @property
    def _busy_starts(self) -> List[int]:
        return self.channel._busy_starts

    @property
    def _busy_ends(self) -> List[int]:
        return self.channel._busy_ends

    def retag(self, new_tagged_id: int, drop_history: bool = True) -> None:
        """Re-point this subscription's demux at another tagged node."""
        self._observatory._retag_subscription(self, new_tagged_id)
        if drop_history:
            self.observed.clear()
            self._decodable_keys.clear()

    def on_positions_updated(
        self, slot: Slots, positions: Dict[int, Position], medium: "Medium"
    ) -> None:
        """No-op: the shared channel needs no per-epoch work."""


@dataclass
class _PendingWindow:
    """One rank-sum-ready window, snapshotted at deferral time.

    The log indices were reserved when the window became ready, so the
    flush-time fill lands every record exactly where an eager
    evaluation would have written it; the (x, y) copies protect the
    window contents from later ``add_sample`` calls in the same flush
    cycle.  The rho/quarantine/skip counters are likewise frozen at
    deferral — provenance must describe the detector state *when the
    window became ready*, not whatever it drifted to by flush time
    (coarse flush cadences, as the streaming service runs, would
    otherwise leak later ingests into earlier records).
    """

    detector: BackoffMisbehaviorDetector
    slot: int
    alternative: str
    x: List[float]
    y: List[float]
    window_meta: List[Tuple[int, int, float, float]]
    audit_index: Optional[int]
    provenance_index: Optional[int]
    #: reserved ``detector.verdicts`` slot and ``_verdict_seq`` value —
    #: deterministic violations published between deferral and flush
    #: must not overtake this verdict's list position or id numbering
    verdict_index: int
    verdict_seq: Optional[int]
    rho: float
    quarantine_drops: Dict[str, int]
    skipped_samples: int


class BatchScheduler:
    """Coalesces ready rank-sum windows across all detectors.

    A detector tests each window at ingest, one scalar rank-sum per
    ready window.  A detector whose ``_batch_scheduler`` points here (the
    streaming service wires every link's detector to its session
    scheduler) *defers* ready windows instead, and each :meth:`flush`
    ranks them through :func:`repro.core.ranksum.rank_sum_many` in one
    vectorized call per alternative.  Verdict slots, per-detector
    ordering, and the shared audit/provenance interleaving are all
    preserved: the verdict slot is captured at deferral, and the log
    positions were reserved then.
    """

    def __init__(self) -> None:
        self._pending: List[_PendingWindow] = []

    def __len__(self) -> int:
        return len(self._pending)

    def defer(self, detector: BackoffMisbehaviorDetector, slot: Slots) -> None:
        """Snapshot one ready window and reserve its log positions."""
        x, y = detector.test.window_snapshot()
        audit_index = None if detector.audit is None else detector.audit.reserve()
        provenance_index = (
            None if detector.provenance is None else detector.provenance.reserve()
        )
        verdict_index = detector._reserve_verdict()
        verdict_seq: Optional[int] = None
        if detector.provenance is not None or detector._tracer is not None:
            # Mirror _publish's id numbering at deferral time, so a
            # deterministic verdict published before the flush cannot
            # steal this verdict's sequence number.
            verdict_seq = detector._verdict_seq
            detector._verdict_seq += 1
        self._pending.append(
            _PendingWindow(
                detector=detector,
                slot=slot,
                alternative=detector.test.alternative,
                x=x,
                y=y,
                window_meta=list(detector._window_meta),
                audit_index=audit_index,
                provenance_index=provenance_index,
                verdict_index=verdict_index,
                verdict_seq=verdict_seq,
                rho=detector.rho,
                quarantine_drops=dict(detector.quarantine_counts),
                skipped_samples=detector.skipped_samples,
            )
        )

    def flush(self) -> None:
        """Evaluate every deferred window and publish its verdict."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        groups: Dict[str, List[_PendingWindow]] = {}
        for entry in pending:
            groups.setdefault(entry.alternative, []).append(entry)
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
                entry.detector._finish_deferred_evaluation(entry, result)


class SharedChannelObservatory(SimulationListener):
    """The single engine listener behind every subscribed detector."""

    def __init__(self, faults: "Optional[FaultSchedule]" = None) -> None:
        if faults is None:
            from repro.faults.runtime import active_schedule

            faults = active_schedule()
        #: injected link faults (None = clean channel, the default);
        #: applied per monitor *node*, identically to a private
        #: ChannelObserver on that node (the draws are pure hashes of
        #: (monitor, sender, start slot), so the equivalence contract
        #: holds under faults too).
        self.faults = faults
        #: monitor id -> shared channel (fresh channels live only in the list)
        self._channels: Dict[int, MonitorChannel] = {}
        #: every live channel, shared and fresh, in creation order
        self._channel_list: List[MonitorChannel] = []
        #: monitor id -> every live channel on that node, shared and
        #: fresh (the lazy ingest plane's dispatch index)
        self._monitor_index: Dict[int, List[MonitorChannel]] = {}
        #: lazy mode (serve): defer uninvolved channels' idle accounting
        self._lazy = False
        #: channels holding each in-flight sensed key (lazy mode only;
        #: lets ingest_end find start-time sensors without a scan)
        self._sensed_by_key: Dict[int, List[MonitorChannel]] = {}
        #: one entry per distinct end-event dispatch slot:
        #: (slot, first event's tx start slot, cumulative max end slot)
        self._end_log: List[Tuple[Slots, Slots, Slots]] = []
        #: absolute index of _end_log[0] (entries before it were trimmed)
        self._end_log_base = 0
        #: raw end events absorbed by the lazy plane
        self._end_events = 0
        #: tagged id -> subscriptions, in attach order (= audit order)
        self._subs_by_tagged: Dict[int, List[ObservatorySubscription]] = {}
        #: units receiving position epochs (detectors, hand-off managers)
        self._position_units: List[SimulationListener] = []
        #: live detectors in attach order
        self.detectors: List[BackoffMisbehaviorDetector] = []
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

        ``fresh_channel=True`` gives the detector a private, empty
        channel instead of the monitor node's shared one — required for
        byte-identity when attaching mid-run (a hand-off replacement
        must not inherit busy history its own observer never saw).
        ``position_unit=False`` skips mobility-epoch forwarding (the
        hand-off manager forwards positions itself).
        """
        cfg = config if config is not None else DetectorConfig()
        channel = self._channels.get(monitor_id) if not fresh_channel else None
        if channel is None:
            channel = MonitorChannel(monitor_id)
            self._channel_list.append(channel)
            self._monitor_index.setdefault(monitor_id, []).append(channel)
            channel._lazy_log_index = self._end_log_base + len(self._end_log)
            channel._lazy_events = self._end_events
            if not fresh_channel:
                self._channels[monitor_id] = channel
        elif self._lazy:
            # Feed epochs key on events_ingested: settle it first.
            self._sync_channel(channel)
        subscription = ObservatorySubscription(
            self, channel, monitor_id, tagged_id
        )
        detector = BackoffMisbehaviorDetector(
            monitor_id,
            tagged_id,
            config=cfg,
            timing=timing,
            separation=separation,
            audit=audit,
            metrics=metrics,
            observer=subscription,
            provenance=provenance,
        )
        subscription._detector = detector
        channel.subscribers += 1
        self._share_feeds(channel, detector)
        self._subs_by_tagged.setdefault(tagged_id, []).append(subscription)
        self.detectors.append(detector)
        if position_unit:
            self._position_units.append(detector)
        return detector

    def _share_feeds(
        self, channel: MonitorChannel, detector: BackoffMisbehaviorDetector
    ) -> None:
        """Point the detector at the channel's shared estimator feeds."""
        epoch = channel.events_ingested
        cfg = detector.config
        key: _ArmaKey = (
            epoch,
            cfg.arma_alpha,
            cfg.arma_interval_slots,
            detector.timing.exchange_slots,
        )
        feed = channel._arma_by_key.get(key)
        if feed is None:
            feed = _ArmaFeed(detector.arma, detector.timing.exchange_slots)
            channel._arma_by_key[key] = feed
            channel.arma_feeds.append(feed)
        else:
            detector.arma = feed.arma
        feed.detectors.append(detector)
        terminal = channel._terminal_by_epoch.get(epoch)
        if terminal is None:
            channel._terminal_by_epoch[epoch] = detector.terminal_estimator
            channel.terminal_feeds.append(detector.terminal_estimator)
        else:
            detector.terminal_estimator = terminal
        if cfg.occupancy_correction:
            channel.occupancy_detectors.append(detector)

    def detach(self, detector: BackoffMisbehaviorDetector) -> None:
        """Unsubscribe a detector; its recorded state freezes.

        Drops the demux, feed and position registrations; if the channel
        has no remaining subscribers it stops updating entirely (like a
        retired private observer).
        """
        subscription = detector.observer
        if not isinstance(subscription, ObservatorySubscription):
            raise ValueError("detector is not observatory-subscribed")
        channel = subscription.channel
        subs = self._subs_by_tagged.get(subscription.tagged_id, [])
        if subscription in subs:
            subs.remove(subscription)
        if detector in self.detectors:
            self.detectors.remove(detector)
        if detector in self._position_units:
            self._position_units.remove(detector)
        if detector in channel.occupancy_detectors:
            channel.occupancy_detectors.remove(detector)
        for feed in channel.arma_feeds:
            if detector in feed.detectors:
                feed.detectors.remove(detector)
        channel.subscribers -= 1
        if channel.subscribers <= 0:
            self._channel_list.remove(channel)
            siblings = self._monitor_index.get(channel.monitor_id)
            if siblings is not None and channel in siblings:
                siblings.remove(channel)
                if not siblings:
                    del self._monitor_index[channel.monitor_id]
            if self._channels.get(channel.monitor_id) is channel:
                del self._channels[channel.monitor_id]

    def _retag_subscription(
        self, subscription: ObservatorySubscription, new_tagged_id: int
    ) -> None:
        """Move a subscription's demux registration to a new tagged node."""
        subs = self._subs_by_tagged.get(subscription.tagged_id, [])
        if subscription in subs:
            subs.remove(subscription)
        subscription.tagged_id = new_tagged_id
        self._subs_by_tagged.setdefault(new_tagged_id, []).append(subscription)

    def add_position_listener(self, unit: SimulationListener) -> None:
        """Forward mobility epochs to ``unit`` (e.g. a MonitorHandoff)."""
        self._position_units.append(unit)

    # -- lazy ingest plane (serve) -----------------------------------------

    def enable_lazy_ingest(self) -> None:
        """Defer uninvolved channels' per-event idle accounting.

        The eager ingest plane touches every live channel on every end
        event — an uninvolved channel still folds the event's slots
        into its ARMA feeds as idle — which is O(channels) per event
        and fatal when one session tracks 10^5 links.  In lazy mode
        ``ingest_end`` touches only the channels the event can affect
        (sensing monitors, the sender's own node, the demux targets)
        and records the event in a shared distinct-slot log; every
        other channel replays the log on its next involvement.  The
        replay is fold-for-fold identical to the eager plane (see
        :meth:`_ArmaFeed.replay`), so observations, verdicts and logs
        stay byte-identical; only the *timing* of the idle folds moves.

        Serve sessions enable this; the engine listener path never does
        (tests and analyses there inspect feed state mid-run and expect
        it eagerly current).  Call :meth:`sync_ingest` before reading
        feed state from outside an ingest callback.
        """
        self._lazy = True
        tip = self._end_log_base + len(self._end_log)
        for channel in self._channel_list:
            channel._lazy_log_index = tip
            channel._lazy_events = self._end_events

    def sync_ingest(self) -> None:
        """Catch every lazy channel up and trim the shared event log."""
        if not self._lazy:
            return
        for channel in self._channel_list:
            self._sync_channel(channel)
        self._end_log_base += len(self._end_log)
        self._end_log.clear()

    def _sync_channel(self, channel: MonitorChannel) -> None:
        """Replay whatever end events a lazy channel has deferred."""
        start = channel._lazy_log_index - self._end_log_base
        if start < len(self._end_log):
            channel.replay_deferred(self._end_log, start)
            channel._lazy_log_index = self._end_log_base + len(self._end_log)
        behind = self._end_events - channel._lazy_events
        if behind:
            channel.events_ingested += behind
            channel._lazy_events = self._end_events

    def _log_end_event(
        self, slot: Slots, start_slot: Slots, end_slot: Slots
    ) -> None:
        """Append one end event to the distinct-slot log."""
        self._end_events += 1
        log = self._end_log
        if log and log[-1][0] == slot:
            # Same dispatch slot: feed folds are idempotent (the target
            # is unchanged), so only the cumulative end max can move.
            prev = log[-1]
            if end_slot > prev[2]:
                log[-1] = (slot, prev[1], end_slot)
        else:
            if log and log[-1][2] > end_slot:
                end_slot = log[-1][2]
            log.append((slot, start_slot, end_slot))

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
        """Mark one transmission start: sensed keys and decode flags."""
        if self._lazy:
            index = self._monitor_index
            sensed: List[MonitorChannel] = []
            for node in sensors:
                for channel in index.get(node, ()):
                    channel._sensed_keys.add(key)
                    sensed.append(channel)
            if sender not in sensors:
                for channel in index.get(sender, ()):
                    channel._sensed_keys.add(key)
                    sensed.append(channel)
            if sensed:
                self._sensed_by_key[key] = sensed
        else:
            for channel in self._channel_list:
                monitor = channel.monitor_id
                if monitor == sender or monitor in sensors:
                    channel._sensed_keys.add(key)
        subs = self._subs_by_tagged.get(sender)
        if not subs:
            return
        for subscription in subs:
            if subscription.monitor_id in decodable_monitors:
                subscription._decodable_keys.add(key)

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
        """Absorb one transmission end: timelines, demux, evaluation."""
        collided = not success
        if self._lazy:
            index = self._monitor_index
            involved: Dict[int, MonitorChannel] = {}
            for node in sensors:
                for channel in index.get(node, ()):
                    involved[id(channel)] = channel
            for channel in index.get(sender, ()):
                involved[id(channel)] = channel
            # Sensed at start but outside the end-time sensor set
            # (mobility): the in-flight key still closes a busy
            # interval on those channels.  A channel detached while the
            # transmission was in flight is dead (subscribers == 0) and
            # must be skipped, exactly as the eager channel-list loop
            # no longer visits it.
            for channel in self._sensed_by_key.pop(key, ()):
                if channel.subscribers > 0:
                    involved[id(channel)] = channel
            demux_subs = self._subs_by_tagged.get(sender)
            if demux_subs:
                for subscription in demux_subs:
                    involved[id(subscription.channel)] = subscription.channel
            for channel in involved.values():
                self._sync_channel(channel)
            self._log_end_event(slot, start_slot, end_slot)
            tip = self._end_log_base + len(self._end_log)
            for channel in involved.values():
                channel.ingest_end(
                    slot, key, sender, sensors, start_slot, end_slot, collided
                )
                channel._lazy_log_index = tip
                channel._lazy_events = self._end_events
        else:
            for channel in self._channel_list:
                channel.ingest_end(
                    slot,
                    key,
                    sender,
                    sensors,
                    start_slot,
                    end_slot,
                    collided,
                )
        subs = self._subs_by_tagged.get(sender)
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
        for subscription in subs:
            decodable = key in subscription._decodable_keys
            if decodable:
                subscription._decodable_keys.remove(key)
            rts = frame if decodable else None
            impairment = None
            if decodable and self.faults is not None:
                monitor = subscription.monitor_id
                outcome = delivered.get(monitor)
                if outcome is None:
                    outcome = delivered[monitor] = self.faults.deliver_rts(
                        monitor, sender, start_slot, frame
                    )
                rts, impairment = outcome
            subscription.observed.append(
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
        for subscription in subs:
            detector = subscription._detector
            if detector is not None:
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
        subs = self._subs_by_tagged.get(sender)
        if subs:
            flags: Dict[int, bool] = {}
            for subscription in subs:
                monitor = subscription.monitor_id
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
