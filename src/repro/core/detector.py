"""The back-off misbehavior detector (the paper's full framework).

One detector instance monitors one *tagged* neighbor on behalf of one
*monitor* node.  Attach it to a simulation as a listener; it then:

1. regenerates the tagged node's verifiable PRS from its MAC address,
2. tracks the monitor's own busy/idle channel view (ARMA traffic
   intensity, eq. 6) and — unless the caller supplies known region node
   counts — the Bianchi competing-terminals/density estimate,
3. for every decoded RTS of the tagged node, forms a sample pair:
   the *dictated* back-off x (pure function of the announced SeqOff# and
   Attempt#) and the *estimated observed* back-off y (eqs. 1-5 applied
   to the monitor's idle/busy counts over the contention interval),
4. runs the deterministic verifiers (SeqOff# monotonicity, Attempt#/MD5
   consistency, and the sound countdown upper bound: even if the tagged
   node could count during every slot the monitor did not rule out, it
   could not have finished the dictated countdown),
5. runs the Wilcoxon rank-sum hypothesis test whenever the observation
   window is full, emitting a :class:`Verdict`.

Sample hygiene: a pair is only entered into the statistical window when
the contention interval is trustworthy — the previous transmission of
the tagged node was observed, the announced SeqOff# advanced by exactly
one (no missed frames in between), and the estimate passes a
plausibility bound (an estimate far above the contention window means
the tagged node simply had no traffic queued, which says nothing about
its timers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.core.arma import ArmaTrafficEstimator
from repro.core.bianchi import CompetingTerminalEstimator
from repro.core.density import NodeDensityEstimator
from repro.core.deterministic import (
    AttemptNumberVerifier,
    SequenceOffsetVerifier,
    UnambiguousCountdownVerifier,
)
from repro.core.hypothesis import BackoffHypothesisTest, TestDecision
from repro.core.observation import ChannelObserver, ChannelViewBase
from repro.core.ranksum import check_alternative
from repro.core.records import BackoffObservation, Diagnosis, Verdict
from repro.core.sysstate import SystemStateEstimator
from repro.geometry.regions import RegionModel
from repro.mac.backoff import contention_window
from repro.mac.constants import DEFAULT_TIMING
from repro.mac.frames import SEQ_OFF_MODULUS
from repro.mac.prng import VerifiableBackoffPrng
from repro.obs.audit import AuditRecord, DecisionAuditLog
from repro.obs.provenance import ProvenanceLog, ProvenanceRecord
from repro.obs.trace import PID_DETECTION, active_tracer
from repro.sim.listeners import SimulationListener
from repro.util.caches import register_cache_reset
from repro.util.units import Slots
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.core.deterministic import DeterministicViolation
    from repro.core.observation import ObservedTransmission
    from repro.core.observatory import BatchScheduler, _ArmaFeed
    from repro.core.ranksum import RankSumResult
    from repro.core.records import Verdict as _Verdict
    from repro.mac.constants import MacTiming
    from repro.obs.registry import MetricsRegistry
    from repro.phy.medium import Medium, Transmission


#: Memoized RegionModel instances keyed by their full geometry.  The
#: circle-intersection areas in RegionModel.__post_init__ are the
#: expensive part of a geometry refresh; models are immutable once
#: built, so every detector (and every mobility epoch) with the same
#: quantized separation shares one instance.
_region_cache: Dict[
    Tuple[float, float, float, Optional[float]], RegionModel
] = {}


def cached_region_model(
    sensing_range: float = 550.0,
    separation: float = 240.0,
    interferer_offset: float = 450.0,
    far_interferer_offset: Optional[float] = None,
) -> RegionModel:
    """A shared :class:`RegionModel` for the given geometry (memoized)."""
    key = (sensing_range, separation, interferer_offset, far_interferer_offset)
    model = _region_cache.get(key)
    if model is None:
        model = _region_cache[key] = RegionModel(
            sensing_range=sensing_range,
            separation=separation,
            interferer_offset=interferer_offset,
            far_interferer_offset=far_interferer_offset,
        )
    return model


#: The estimators built on one RegionModel, keyed by the model's id.
#: Both only read their model, so every detector on that geometry
#: shares them; each entry holds its model, so an id cannot be reused
#: while it is cached.
_estimator_cache: Dict[
    int, Tuple[RegionModel, SystemStateEstimator, NodeDensityEstimator]
] = {}


def region_estimators(
    model: RegionModel,
) -> Tuple[SystemStateEstimator, NodeDensityEstimator]:
    """The shared (eqs. 1-5, density) estimators of ``model`` (memoized)."""
    entry = _estimator_cache.get(id(model))
    if entry is None:
        entry = _estimator_cache[id(model)] = (
            model,
            SystemStateEstimator(model),
            NodeDensityEstimator(region_model=model),
        )
    return entry[1], entry[2]


@register_cache_reset
def reset_region_cache() -> None:
    """Forget all memoized RegionModels and their estimators (test
    isolation escape hatch)."""
    _region_cache.clear()
    _estimator_cache.clear()


#: Discard samples whose estimate exceeds this many times (CW + 1) slots.
PLAUSIBILITY_SLACK = 2.0
#: Tolerance of the deterministic countdown bound, in slots.
COUNTDOWN_TOLERANCE = 6
#: EWMA factor for the occupancy tracker.
OCCUPANCY_ALPHA = 0.99
#: The countdown verifier holds only its tolerance, so detectors share it.
_COUNTDOWN_VERIFIER = UnambiguousCountdownVerifier(COUNTDOWN_TOLERANCE)


@dataclass
class DetectorConfig:
    """Tunables of the detection framework."""

    sample_size: int = 50
    alpha: float = 0.05
    alternative: str = "less"
    #: Divide each sample pair by its attempt's (CW + 1) before ranking.
    #: Retransmission attempts draw from doubled windows, so raw back-off
    #: populations are heavy-tailed mixtures; normalizing makes every
    #: dictated sample ~ U[0, 1] and restores the rank-sum test's power
    #: under heterogeneous attempt numbers.
    normalize_by_cw: bool = True
    #: Practical-significance margin, in normalized (CW-relative) units,
    #: added to each estimated sample before ranking: H0 is only
    #: rejected when the observed back-offs fall short of the dictated
    #: ones by *more* than this.  Absorbs the residual estimation bias of
    #: non-uniform/mobile neighborhoods (the paper's model assumes
    #: uniform density); a PM = 25 cheat shifts samples by ~0.125,
    #: comfortably past the default band.
    guard_band: float = 0.06
    arma_alpha: float = 0.995
    arma_interval_slots: int = 500
    #: Known node counts in regions A2 / A1 (the paper's grid experiments
    #: fix n = k = 5); None -> estimate from the Bianchi inversion.
    known_n: Optional[float] = None
    known_k: Optional[float] = None
    #: Representative-interferer geometry; None -> RegionModel defaults.
    region_model: Optional[RegionModel] = None
    #: Discard samples whose *busy* slot count exceeds
    #: ``max_busy_factor * (CW + 1)``: the p(I|B) term's estimation error
    #: scales linearly with the busy mass, so a countdown stretched over
    #: thousands of busy slots carries more model error than signal.
    max_busy_factor: float = 8.0
    #: Samples observed before this slot are used for the online
    #: estimators and the deterministic verifiers but not for the
    #: hypothesis test: while traffic ramps up and the ARMA/density
    #: estimates settle, estimated back-offs are systematically off.
    warmup_slots: int = 100_000
    #: Correct the eq.-4 p(I|B) for non-uniform neighbor occupancy: the
    #: monitor tracks the fraction of transmissions it senses whose
    #: sender the tagged node cannot sense (obtainable from the position
    #: /degree reports the paper proposes for non-uniform densities) and
    #: scales p(I|B) by measured-over-uniform.  Essential under mobility,
    #: near-neutral on the uniform grid.
    occupancy_correction: bool = True
    #: Only attempts up to this number enter the statistical window.
    #: High-attempt intervals are long (CW up to 1023), so any error in
    #: p(I|B) is amplified by thousands of busy slots; attempts 1-3 are
    #: the bulk of the traffic and estimate conservatively.  Deterministic
    #: checks still run on every attempt.
    max_test_attempt: int = 3

    def __post_init__(self) -> None:
        # Checked here, not at the first attach or estimate: a serve
        # session would otherwise fail mid-stream with its source open.
        check_positive(self.sample_size, "sample_size")
        check_probability(self.alpha, "alpha")
        check_alternative(self.alternative)
        check_in_range(self.arma_alpha, 0.0, 1.0, "arma_alpha")
        check_positive(self.arma_interval_slots, "arma_interval_slots")
        if self.known_n is not None:
            check_non_negative(self.known_n, "known_n")
        if self.known_k is not None:
            check_non_negative(self.known_k, "known_k")


def ranked_pair(
    config: DetectorConfig, timing: "MacTiming", observation: BackoffObservation
) -> Tuple[float, float]:
    """The (x, y) pair the rank-sum test ranks for one observation.

    x is the dictated back-off and y the estimate plus the guard band;
    with ``normalize_by_cw`` both are in units of the attempt's CW + 1.
    """
    window = contention_window(
        min(observation.attempt, timing.retry_limit), timing.cw_min, timing.cw_max
    )
    if config.normalize_by_cw:
        return (
            observation.dictated / (window + 1.0),
            observation.estimated / (window + 1.0) + config.guard_band,
        )
    return (
        float(observation.dictated),
        observation.estimated + config.guard_band * (window + 1.0),
    )


class _Publication(NamedTuple):
    """A verdict's reserved places and the state its records describe.

    ``verdict_index`` is the verdict's ``verdicts`` slot and id number.
    """

    verdict_index: int
    audit_index: Optional[int]
    provenance_index: Optional[int]
    window_meta: List[Tuple[int, int, float, float]]
    quarantine_drops: Dict[str, int]
    skipped_samples: int
    rho: float


class BackoffMisbehaviorDetector(SimulationListener):
    """Monitors one tagged neighbor for back-off timer violations.

    A serve session holds one detector per tracked link, so the class
    is slotted and the config-derived, stateless parts (region-model
    estimators, countdown verifier) are shared, not built per link.

    Built without ``feed``, the detector owns a private
    :class:`ChannelObserver` and its own ARMA and competing-terminal
    estimators, and is registered as an engine listener.  ``feed`` (only
    :meth:`SharedChannelObservatory.attach
    <repro.core.observatory.SharedChannelObservatory.attach>` passes
    one) subscribes it instead: the detector reads its channel view
    (the monitor node's shared ``MonitorChannel``), both estimators and
    the observatory's fault schedule from the feed, and the observatory
    appends to its ``observed`` demux.
    """

    __slots__ = (
        "config",
        "timing",
        "monitor_id",
        "tagged_id",
        "audit",
        "provenance",
        "metrics",
        "observer",
        "observed",
        "prng",
        "state_estimator",
        "arma",
        "terminal_estimator",
        "density_estimator",
        "test",
        "seq_verifier",
        "attempt_verifier",
        "countdown_verifier",
        "quarantine_counts",
        "_quarantine_audit",
        "observations",
        "skipped_samples",
        "verdicts",
        "violations",
        "_arma_cursor",
        "_processed",
        "_window_meta",
        "_tracer",
        "_birth_slot",
        "_invisible_ewma",
        "_occupancy_samples",
        "_arma_feed",
        "_batch_scheduler",
    )

    def __init__(
        self,
        monitor_id: int,
        tagged_id: int,
        config: Optional[DetectorConfig] = None,
        timing: "Optional[MacTiming]" = None,
        separation: Optional[float] = None,
        audit: Optional[DecisionAuditLog] = None,
        metrics: "Optional[MetricsRegistry]" = None,
        feed: "Optional[_ArmaFeed]" = None,
        provenance: Optional[ProvenanceLog] = None,
    ) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.timing = timing if timing is not None else DEFAULT_TIMING
        self.monitor_id = monitor_id
        self.tagged_id = tagged_id
        #: structured decision audit log (see repro.obs.audit); optional.
        self.audit = audit
        #: per-verdict evidence chains (see repro.obs.provenance); optional.
        self.provenance = provenance
        if metrics is None:
            from repro.obs.runtime import metrics_enabled, shared_registry

            metrics = shared_registry() if metrics_enabled() else None
        #: metrics registry for verdict/sample counters; optional.
        self.metrics = metrics

        cfg = self.config
        #: the channel view the detector queries; a subscribed detector
        #: must NOT be registered as an engine listener (it would
        #: double-count every transmission)
        self.observer: ChannelViewBase
        #: the tagged node's ObservedTransmissions (this detector's demux)
        self.observed: List["ObservedTransmission"]
        if feed is None:
            observer = ChannelObserver(monitor_id, tagged_id)
            self.observer, self.observed = observer, observer.observed
            self.arma = ArmaTrafficEstimator(
                cfg.arma_alpha, cfg.arma_interval_slots
            )
            self.terminal_estimator = CompetingTerminalEstimator()
            faults = observer.faults
        else:
            self.observer, self.observed = feed.channel, []
            self.arma = feed.arma
            self.terminal_estimator = feed.terminal
            faults = feed.observatory.faults
        self.prng = VerifiableBackoffPrng(
            tagged_id, cw_min=self.timing.cw_min, cw_max=self.timing.cw_max
        )
        region_model = cfg.region_model
        if region_model is None:
            kwargs = {}
            if separation is not None:
                kwargs["separation"] = separation
            region_model = cached_region_model(**kwargs)
        self.state_estimator, self.density_estimator = region_estimators(
            region_model
        )
        self.test = BackoffHypothesisTest(
            cfg.sample_size, cfg.alpha, cfg.alternative
        )
        self.seq_verifier = SequenceOffsetVerifier()
        self.attempt_verifier = AttemptNumberVerifier()
        self.countdown_verifier = _COUNTDOWN_VERIFIER

        #: quarantined (undecodable/corrupt-announcement) observation
        #: counts by reason code — always tracked.  Each one also gets an
        #: audit record + metric counter exactly when the observer has an
        #: injected fault schedule: clean runs keep their audit/metrics
        #: streams byte-identical to pre-fault-injection versions, faulted
        #: runs get a reason code per quarantined observation.
        self.quarantine_counts: Dict[str, int] = {}
        self._quarantine_audit = faults is not None
        #: accepted BackoffObservation samples
        self.observations: List[BackoffObservation] = []
        self.skipped_samples = 0
        self.verdicts: List[Verdict] = []
        #: DeterministicViolation records
        self.violations: List["DeterministicViolation"] = []
        self._arma_cursor = 0
        self._processed = 0          # observed entries consumed
        #: (observation index, slot, ranked x, ranked y) of the samples
        #: currently inside the statistical window — trimmed in lockstep
        #: with the hypothesis test's window lists so a verdict's
        #: provenance can name the exact observations it ranked.  Pure
        #: bookkeeping: no RNG draws, no float effects on the detection
        #: path.
        self._window_meta: List[Tuple[int, int, float, float]] = []
        self._tracer = active_tracer()
        #: first slot this detector saw
        self._birth_slot: Optional[int] = None
        #: P(sender invisible to tagged | sensed)
        self._invisible_ewma: Optional[float] = None
        self._occupancy_samples = 0
        #: the observatory's shared ARMA feed (None on a private
        #: observer, which folds per event in _advance_arma)
        self._arma_feed = feed
        #: when set (the streaming service wires its session scheduler
        #: here), ready windows are deferred to it instead of ranked at
        #: ingest
        self._batch_scheduler: Optional["BatchScheduler"] = None

    # -- listener plumbing -------------------------------------------------

    def _private_observer(self) -> ChannelObserver:
        """The listener-path observer; a subscribed detector has none."""
        observer = self.observer
        if not isinstance(observer, ChannelObserver):
            raise RuntimeError(
                "detector is observatory-subscribed; do not register it "
                "as an engine listener"
            )
        return observer

    def on_transmission_start(
        self, slot: Slots, transmission: "Transmission", medium: "Medium"
    ) -> None:
        self._private_observer().on_transmission_start(slot, transmission, medium)

    def on_positions_updated(
        self,
        slot: Slots,
        positions: Dict[int, Tuple[float, float]],
        medium: "Medium",
    ) -> None:
        """Track the monitor-sender separation under mobility.

        The region areas of eqs. 3-4 depend on the S-R distance; a
        monitor can range a one-hop neighbor from received signal
        strength, so the detector is allowed to know it.  Without this,
        a neighbor drifting very close (nearly identical channel views)
        is systematically *under*-estimated and honest nodes get
        flagged.
        """
        mon = positions.get(self.monitor_id)
        tag = positions.get(self.tagged_id)
        if mon is None or tag is None:
            return
        from repro.geometry.vectors import distance

        separation = max(distance(mon, tag), 1.0)
        current = self.state_estimator.region_model
        if abs(separation - current.separation) < 10.0:
            return  # avoid churning the geometry for sub-noise moves
        # The dead band above already ignores sub-10 m moves, so quantize
        # the separation to the same granularity: mobility epochs across
        # all detectors then hit a small set of memoized RegionModels
        # instead of recomputing circle-intersection areas every time.
        quantized = max(round(separation / 10.0) * 10.0, 1.0)
        model = cached_region_model(
            sensing_range=current.sensing_range,
            separation=quantized,
            interferer_offset=current.interferer_offset,
            far_interferer_offset=current.far_interferer_offset,
        )
        self.state_estimator, self.density_estimator = region_estimators(model)

    def on_transmission_end(
        self,
        slot: Slots,
        transmission: "Transmission",
        success: bool,
        medium: "Medium",
    ) -> None:
        observer = self._private_observer()
        if self._birth_slot is None:
            self._birth_slot = transmission.start_slot
            self._arma_cursor = transmission.start_slot
        observer.on_transmission_end(slot, transmission, success, medium)
        sender = transmission.sender
        if sender != self.monitor_id and medium.senses(sender, self.monitor_id):
            # Every sensed attempt feeds the collision-probability
            # estimate behind the density inversion.
            self.terminal_estimator.record_attempt(collided=not success)
            if sender != self.tagged_id and self.config.occupancy_correction:
                self._record_occupancy(
                    invisible=not medium.senses(sender, self.tagged_id)
                )
        self._advance_arma(slot)
        if sender == self.tagged_id:
            self._process_new_observations(medium)

    # -- online state ------------------------------------------------------

    def _advance_arma(self, slot: Slots) -> None:
        # Busy intervals are recorded when transmissions *end*, so slots
        # closer than one full exchange to the present may still gain
        # busy mass from in-flight transmissions.  Only slots older than
        # that horizon are final; feeding newer ones would undercount.
        target = slot - self.timing.exchange_slots
        if target <= self._arma_cursor:
            return
        self.arma.fold(self.observer, self._arma_cursor, target)
        self._arma_cursor = target

    @property
    def rho(self) -> float:
        """Current ARMA traffic-intensity estimate."""
        if self._arma_feed is not None:
            self._arma_feed.settle()
        return self.arma.estimate

    def _record_occupancy(self, invisible: bool) -> None:
        value = 1.0 if invisible else 0.0
        if self._invisible_ewma is None:
            self._invisible_ewma = value
        else:
            alpha = OCCUPANCY_ALPHA
            self._invisible_ewma = alpha * self._invisible_ewma + (1 - alpha) * value
        self._occupancy_samples += 1

    @property
    def p_ib_scale(self) -> float:
        """Measured-over-uniform invisible-transmitter ratio (eq.-4 scale)."""
        if (
            not self.config.occupancy_correction
            or self._invisible_ewma is None
            or self._occupancy_samples < 50
        ):
            return 1.0
        baseline = self.state_estimator.region_model.regions.uniform_invisible_fraction
        if baseline <= 0:
            return 1.0
        return self._invisible_ewma / baseline

    def _region_counts(self) -> Tuple[float, float]:
        cfg = self.config
        if cfg.known_n is not None and cfg.known_k is not None:
            return cfg.known_n, cfg.known_k
        counts = self.density_estimator.region_counts(
            self.terminal_estimator.estimate
        )
        n = cfg.known_n if cfg.known_n is not None else counts["A2"]
        k = cfg.known_k if cfg.known_k is not None else counts["A1"]
        return n, k

    # -- the main sample pipeline -------------------------------------------

    def _process_new_observations(self, medium: "Medium") -> None:
        observed = self.observed
        while self._processed < len(observed):
            index = self._processed
            self._processed += 1
            current = observed[index]
            if current.rts is None:
                # Sensed but no (valid) announced fields: quarantine.
                # The observation still anchors the next contention
                # interval via the busy timeline, but nothing of it may
                # feed the verifiers or the rank-sum window.
                self._quarantine(current)
                continue
            self._run_deterministic_frame_checks(current)
            if index == 0:
                continue  # no previous activity to anchor the interval
            previous = observed[index - 1]
            self._form_sample(previous, current)

    def _run_deterministic_frame_checks(
        self, current: "ObservedTransmission"
    ) -> None:
        rts = current.rts
        last_field = self.seq_verifier.last_field
        gap_free = (
            last_field is not None
            and (rts.seq_off_field - last_field) % SEQ_OFF_MODULUS == 1
        )
        violation = self.seq_verifier.observe(rts, current.start_slot)
        if violation is not None:
            self._record_violation(violation)
        violation = self.attempt_verifier.observe(
            rts, current.start_slot, gap_free=gap_free
        )
        if violation is not None:
            self._record_violation(violation)

    def _form_sample(
        self,
        previous: "ObservedTransmission",
        current: "ObservedTransmission",
    ) -> None:
        rts = current.rts
        start = previous.end_slot
        end = current.start_slot
        if end <= start:
            return
        if previous.rts is not None:
            advance = (rts.seq_off_field - previous.rts.seq_off_field) % SEQ_OFF_MODULUS
            if advance != 1:
                # Missed frames in between: interval spans >1 back-off.
                self._skip_sample()
                return

        idle, busy = self.observer.idle_busy_counts(start, end)
        own_tx = self.observer.own_tx_slots_in(start, end)
        dictated = self.prng.dictated_backoff(rts.seq_off, rts.attempt)
        window = contention_window(
            min(rts.attempt, self.timing.retry_limit),
            self.timing.cw_min,
            self.timing.cw_max,
        )

        # Sound upper bound: the tagged node might have counted during any
        # slot except the monitor's own transmissions and the single DIFS
        # it must defer after the preceding busy period.  (Per-stretch
        # DIFS costs are NOT subtracted here: the monitor's idle stretches
        # may be fragmented by transmissions the sender never sensed, and
        # a sound bound must not over-subtract.)
        budget = max(idle + busy - own_tx - self.timing.difs_slots, 0)
        violation = self.countdown_verifier.observe(
            dictated, budget, current.start_slot
        )
        if violation is not None:
            self._record_violation(violation)

        warmup_end = (self._birth_slot or 0) + self.config.warmup_slots
        if current.start_slot < warmup_end:
            self._skip_sample()
            return
        if busy > self.config.max_busy_factor * (window + 1):
            self._skip_sample()
            return

        n, k = self._region_counts()
        if busy == 0:
            # The monitor saw the whole interval idle: the slots available
            # to the sender are known exactly (the per-slot p(I|I) discount
            # is an *average* and would bias clean intervals low).  This is
            # the paper's deterministic regime.
            estimated = max(float(idle - self.timing.difs_slots), 0.0)
        else:
            i_est, b_est = self.state_estimator.estimate_sender_slots(
                idle, busy, self.rho, n, k, p_ib_scale=self.p_ib_scale
            )
            # DIFS correction: the sender defers one DIFS before its first
            # countdown slot and one more after each period it spent
            # frozen.  The monitor cannot see the sender's freezes
            # directly, so it prices them from the estimate itself: Best
            # busy-at-sender slots amount to ~ Best / exchange_slots busy
            # periods.
            freeze_periods = b_est / max(self.timing.exchange_slots, 1)
            difs_cost = self.timing.difs_slots * (1.0 + freeze_periods)
            estimated = max(i_est - difs_cost, 0.0)
        if estimated > PLAUSIBILITY_SLACK * (window + 1):
            self._skip_sample()
            return

        observation = BackoffObservation(
            slot=current.start_slot,
            seq_off=rts.seq_off,
            attempt=rts.attempt,
            dictated=dictated,
            estimated=estimated,
            idle_slots=idle,
            busy_slots=busy,
            interval_slots=end - start,
            rho=self.rho,
            unambiguous=busy == 0,
        )
        self.observations.append(observation)
        if self.metrics is not None:
            self.metrics.inc("detector.samples")
        if rts.attempt > self.config.max_test_attempt:
            return
        x, y = ranked_pair(self.config, self.timing, observation)
        self.test.add_sample(x, y)
        meta = self._window_meta
        meta.append((len(self.observations) - 1, current.start_slot, x, y))
        if len(meta) > self.test.sample_size:
            del meta[0]
        self._evaluate(current.start_slot)

    # -- verdicts ------------------------------------------------------------

    def _skip_sample(self) -> None:
        self.skipped_samples += 1
        if self.metrics is not None:
            self.metrics.inc("detector.samples_skipped")

    def _quarantine(self, current: "ObservedTransmission") -> None:
        """Count (and, when auditing, log) one undecodable observation.

        ``current.impairment`` names the injected link fault; plain
        physics-side decode failures are labeled ``"undecodable"``.
        """
        from repro.faults.schedule import IMPAIRMENT_UNDECODABLE

        reason = current.impairment or IMPAIRMENT_UNDECODABLE
        self.quarantine_counts[reason] = (
            self.quarantine_counts.get(reason, 0) + 1
        )
        if self._tracer is not None:
            self._tracer.instant(
                "detector.quarantine",
                slot=current.start_slot,
                tid=self.monitor_id,
                pid=PID_DETECTION,
                category="detector",
                args={"tagged": self.tagged_id, "reason": reason},
            )
        if not self._quarantine_audit:
            return
        if self.metrics is not None:
            self.metrics.inc("detector.quarantined")
            self.metrics.inc(f"detector.quarantined.{reason}")
        if self.audit is not None:
            self.audit.record(
                AuditRecord(
                    slot=current.start_slot,
                    monitor=self.monitor_id,
                    tagged=self.tagged_id,
                    rule="quarantine",
                    diagnosis=Diagnosis.INSUFFICIENT_DATA.value,
                    deterministic=False,
                    detail=reason,
                )
            )

    def _reserve(self, rule: str) -> _Publication:
        """Claim a verdict's places and freeze what its records describe.

        A deferred window (serve's scheduler) reserves when it becomes
        ready and is filled at a later flush.  Deterministic violations
        published in between therefore cannot take its list position or
        id number, and its provenance describes the moment it was
        reserved, so every artifact is flush-cadence-invariant.
        """
        self.verdicts.append(None)  # type: ignore[arg-type]
        audit, provenance = self.audit, self.provenance
        described = provenance is not None or self._tracer is not None
        return _Publication(
            verdict_index=len(self.verdicts) - 1,
            audit_index=None if audit is None else audit.reserve(),
            provenance_index=None if provenance is None else provenance.reserve(),
            window_meta=(
                list(self._window_meta) if described and rule == "rank_sum" else []
            ),
            quarantine_drops=dict(sorted(self.quarantine_counts.items())),
            skipped_samples=self.skipped_samples,
            # Reading rho settles the ARMA feed; only provenance needs it.
            rho=0.0 if provenance is None else self.rho,
        )

    def _publish(
        self,
        verdict: "_Verdict",
        rule: str,
        detail: str,
        threshold: Optional[float] = None,
        publication: Optional[_Publication] = None,
    ) -> None:
        """Fill a verdict's reserved places: list slot, records, metrics.

        Without ``publication`` the verdict reserves and fills at once,
        which is an eager append.
        """
        if publication is None:
            publication = self._reserve(rule)
        self.verdicts[publication.verdict_index] = verdict
        if self.audit is not None and publication.audit_index is not None:
            audit_entry = AuditRecord(
                slot=verdict.slot,
                monitor=self.monitor_id,
                tagged=self.tagged_id,
                rule=rule,
                diagnosis=verdict.diagnosis.value,
                deterministic=verdict.deterministic,
                detail=detail,
                p_value=verdict.p_value,
                statistic=verdict.statistic,
                threshold=threshold,
                sample_size=verdict.sample_size,
            )
            self.audit.fill(publication.audit_index, audit_entry)
        if self.metrics is not None:
            self.metrics.inc("detector.verdicts")
            self.metrics.inc(f"detector.verdicts.{verdict.diagnosis.value}")
            self.metrics.inc(f"detector.rule.{rule}")
            layer = "deterministic" if verdict.deterministic else "statistical"
            self.metrics.inc(f"detector.verdicts.{layer}")
        if self.provenance is None and self._tracer is None:
            return
        verdict_id = (
            f"{self.monitor_id}-{self.tagged_id}-{verdict.slot}"
            f"-{rule}-{publication.verdict_index}"
        )
        meta = publication.window_meta
        if self.provenance is not None and publication.provenance_index is not None:
            provenance_entry = ProvenanceRecord(
                verdict_id=verdict_id,
                slot=verdict.slot,
                monitor=self.monitor_id,
                tagged=self.tagged_id,
                rule=rule,
                diagnosis=verdict.diagnosis.value,
                deterministic=verdict.deterministic,
                detail=detail,
                observation_ids=[m[0] for m in meta],
                observation_slots=[m[1] for m in meta],
                window_start=meta[0][1] if meta else None,
                window_end=meta[-1][1] if meta else None,
                dictated=[m[2] for m in meta],
                estimated=[m[3] for m in meta],
                statistic=verdict.statistic,
                p_value=verdict.p_value,
                threshold=threshold,
                sample_size=verdict.sample_size,
                rho=publication.rho,
                arma_alpha=self.config.arma_alpha,
                quarantine_drops=publication.quarantine_drops,
                skipped_samples=publication.skipped_samples,
            )
            self.provenance.fill(publication.provenance_index, provenance_entry)
        tracer = self._tracer
        if tracer is not None:
            if meta:
                tracer.span(
                    "detector.rank_sum",
                    meta[0][1],
                    verdict.slot,
                    tid=self.monitor_id,
                    pid=PID_DETECTION,
                    category="detector",
                    args={
                        "tagged": self.tagged_id,
                        "samples": verdict.sample_size,
                        "p_value": verdict.p_value,
                    },
                )
            tracer.instant(
                f"verdict.{verdict.diagnosis.value}",
                slot=verdict.slot,
                tid=self.monitor_id,
                pid=PID_DETECTION,
                category="detector",
                args={
                    "tagged": self.tagged_id,
                    "rule": rule,
                    "verdict_id": verdict_id,
                },
            )

    def _record_violation(self, violation: "DeterministicViolation") -> None:
        self.violations.append(violation)
        self._publish(
            Verdict(
                diagnosis=Diagnosis.MALICIOUS,
                sample_size=self.test.n_samples,
                slot=violation.slot,
                reason=f"{violation.kind}: {violation.detail}",
                deterministic=True,
            ),
            rule=violation.kind,
            detail=violation.detail,
        )

    def _evaluate(self, slot: Slots) -> None:
        if not self.test.window_full:
            return
        scheduler = self._batch_scheduler
        if scheduler is not None:
            # Snapshot the ready window and let the scheduler's next
            # flush rank it with its peers.
            scheduler.defer(self, slot)
            return
        _decision, result = self.test.evaluate()
        if result is None:
            return
        self._emit_rank_sum_verdict(result, slot)

    def _emit_rank_sum_verdict(
        self,
        result: "RankSumResult",
        slot: Slots,
        publication: Optional[_Publication] = None,
    ) -> None:
        """Publish one rank-sum verdict (eager, or a deferred fill)."""
        decision = self.test.decide(result)
        diagnosis = (
            Diagnosis.MALICIOUS
            if decision is TestDecision.REJECT_H0
            else Diagnosis.WELL_BEHAVED
        )
        self._publish(
            Verdict(
                diagnosis=diagnosis,
                p_value=result.p_value,
                statistic=result.statistic,
                sample_size=result.n_y,
                slot=slot,
                reason="rank-sum window evaluation",
            ),
            rule="rank_sum",
            detail=(
                f"one-sided rank-sum over {result.n_y} samples: "
                f"p={result.p_value:.6g} vs alpha={self.config.alpha}"
            ),
            threshold=self.config.alpha,
            publication=publication,
        )

    # -- conveniences -----------------------------------------------------------

    @property
    def observation_count(self) -> int:
        """Number of accepted samples (for stop conditions)."""
        return len(self.observations)

    @property
    def latest_verdict(self) -> Optional[Verdict]:
        return self.verdicts[-1] if self.verdicts else None

    @property
    def flagged_malicious(self) -> bool:
        """True if any verdict so far deems the tagged node malicious."""
        return any(v.is_malicious for v in self.verdicts)
