"""The slot-exact, event-driven simulation core.

Design notes
------------

*Integer slot clock.*  Every event carries an integer slot timestamp;
within one slot, events are ordered by kind: transmission phase changes
first (the channel frees), then mobility epochs, then packet arrivals,
then back-off completions (nodes whose timers hit zero this slot
transmit — simultaneously, which is how real DCF collides).

*Reconcile pass.*  After all events of a slot are processed, a single
reconcile pass updates the back-off machinery of every *affected* node:
freezes countdowns that now sense a busy medium, resumes (a DIFS later)
countdowns whose medium went idle, and draws fresh back-offs for nodes
with newly eligible head packets.  Stale completion events are discarded
via the per-node back-off generation counter.

*Two-phase transmissions.*  A transmission first occupies the air for
the RTS+SIFS+CTS handshake.  If by the end of the handshake it was
corrupted (receiver undecodable, receiver busy or itself transmitting,
or another transmitter started within the receiver's interference range
during the handshake — the hidden-terminal case), the busy period ends
there and the sender backs off with a doubled window.  Otherwise it
extends into the full RTS/CTS/DATA/ACK exchange.  Corruption of the DATA
phase by late-starting hidden terminals is not modeled: the CTS has, by
then, silenced the receiver's neighborhood (NAV), which is exactly the
protection RTS/CTS exists to provide.

*Machine-checked contracts.*  The invariants above are enforceable at
runtime: when :func:`repro.checks.runtime.runtime_checks_enabled` is
true (the CLI ``--check`` flag or ``REPRO_CHECK=1``) the engine installs
a :class:`repro.checks.invariants.InvariantChecker` on itself, and
``python -m repro.checks`` verifies the static half of the contract.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.phy.medium import Transmission
from repro.sim.listeners import SimulationListener, overrides_hook
from repro.traffic.queue import Packet
from repro.util.units import Slots, seconds_to_slots

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.checks.invariants import InvariantChecker
    from repro.mac.constants import MacTiming
    from repro.mac.dcf import DcfMac
    from repro.obs.listener import MetricsListener
    from repro.phy.medium import Medium
    from repro.topology.mobility import MobilityModel

_Event = Tuple[int, int, int, Any]


class EventKind(enum.IntEnum):
    """Within-slot processing order (lower value = earlier)."""

    TRANSMISSION_PHASE = 0
    MOBILITY_EPOCH = 1
    ARRIVAL = 2
    COUNTDOWN_COMPLETE = 3


class SimulationEngine:
    """Drives a set of DCF MACs over a shared medium.

    Parameters
    ----------
    medium:
        A :class:`repro.phy.Medium` with positions already installed.
    macs:
        Mapping node id -> :class:`repro.mac.DcfMac`.
    timing:
        The :class:`repro.mac.MacTiming` shared by all nodes.  Its slot
        values are resolved once per instance, so the slot loop reads
        them straight off ``self.timing``.
    traffic_sources:
        Mapping node id -> object with ``generator`` (a
        :class:`repro.traffic.TrafficGenerator`) and
        ``pick_destination(medium, node_id)``; nodes absent from the
        mapping generate no traffic.
    mobility:
        Optional :class:`repro.topology.MobilityModel`; static models
        skip epoch events entirely.
    epoch_interval_s:
        Interval between mobility epochs (position + reachability
        rebuild), in seconds.
    """

    def __init__(
        self,
        medium: "Medium",
        macs: Mapping[int, "DcfMac"],
        timing: "MacTiming",
        traffic_sources: Optional[Mapping[int, Any]] = None,
        mobility: Optional["MobilityModel"] = None,
        epoch_interval_s: float = 0.5,
        listeners: Optional[Iterable[SimulationListener]] = None,
    ) -> None:
        self.medium = medium
        self.macs: Dict[int, "DcfMac"] = dict(macs)
        self.timing = timing
        self.traffic: Dict[int, Any] = dict(traffic_sources or {})
        self.mobility = mobility
        self.epoch_slots = max(
            seconds_to_slots(epoch_interval_s, timing.slot_time_us), 1
        )
        self.listeners: List[SimulationListener] = list(listeners or [])
        self.now = 0
        self._heap: List[_Event] = []
        self._seq = itertools.count()
        self._primed = False
        self._event_hooks: List[Callable[..., None]] = []
        self._slot_end_hooks: List[Callable[..., None]] = []
        self._tx_start_hooks: List[Callable[..., None]] = []
        self._tx_end_hooks: List[Callable[..., None]] = []
        self._positions_hooks: List[Callable[..., None]] = []
        self.invariant_checker: Optional["InvariantChecker"] = None
        from repro.checks.runtime import runtime_checks_enabled

        if runtime_checks_enabled():
            from repro.checks.invariants import InvariantChecker

            self.invariant_checker = InvariantChecker()
            self.listeners.append(self.invariant_checker)
        self.metrics_listener: Optional["MetricsListener"] = None
        from repro.obs.runtime import metrics_enabled

        if metrics_enabled():
            from repro.obs.listener import MetricsListener
            from repro.obs.runtime import shared_registry

            self.metrics_listener = MetricsListener(shared_registry())
            self.listeners.append(self.metrics_listener)
        from repro.obs.trace import tracing_enabled

        if tracing_enabled():
            from repro.obs.trace import TraceListener, shared_tracer

            self.listeners.append(TraceListener(shared_tracer()))
        self._refresh_hooks()

    # -- public API ------------------------------------------------------

    def add_listener(self, listener: SimulationListener) -> None:
        self.listeners.append(listener)
        self._refresh_hooks()

    def instrument_phases(
        self,
        wrap: Callable[[str, Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        """Wrap the slot loop's phase callables for instrumentation.

        ``wrap(phase_name, fn)`` receives each phase — ``"events"``
        (the per-slot batch dispatch) and ``"reconcile"`` (the back-off
        reconciliation pass) — and returns the callable the loop will
        invoke instead.  This is the sanctioned seam for profilers and
        tracers (:class:`repro.obs.profile.EngineProfiler` uses it), so
        observation-plane code never reaches into engine internals.
        """
        self._process_batch = wrap("events", self._process_batch)  # type: ignore[method-assign]
        self._reconcile = wrap("reconcile", self._reconcile)  # type: ignore[method-assign]

    def _refresh_hooks(self) -> None:
        # Per-hook dispatch lists: each callback is delivered only to
        # listeners that override it, so the hot transmission-start/end
        # loops skip the base-class no-ops entirely.
        def hooks(name: str) -> List[Callable[..., None]]:
            return [
                getattr(listener, name)
                for listener in self.listeners
                if overrides_hook(listener, name)
            ]

        self._event_hooks = hooks("on_event")
        self._slot_end_hooks = hooks("on_slot_end")
        self._tx_start_hooks = hooks("on_transmission_start")
        self._tx_end_hooks = hooks("on_transmission_end")
        self._positions_hooks = hooks("on_positions_updated")

    def schedule(self, slot: Slots, kind: int, data: Any = None) -> None:
        if slot < self.now:
            raise ValueError(f"cannot schedule in the past ({slot} < {self.now})")
        heapq.heappush(self._heap, (int(slot), int(kind), next(self._seq), data))

    def run_until(
        self,
        end_slot: Slots,
        stop_condition: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Process events up to and including ``end_slot``.

        ``stop_condition`` (a nullary callable) is polled after each slot
        batch; returning True ends the run early.  Returns the final
        simulation slot.
        """
        if not self._primed:
            self._prime()
        heap = self._heap  # never rebound; aliasing is safe
        heappop = heapq.heappop
        try:
            while heap and heap[0][0] <= end_slot:
                slot = heap[0][0]
                batch: List[_Event] = []
                while heap and heap[0][0] == slot:
                    batch.append(heappop(heap))
                affected = self._process_batch(slot, batch)
                if affected:
                    self._reconcile(slot, affected)
                self.now = slot
                for hook in self._slot_end_hooks:
                    hook(slot, self)
                if stop_condition is not None and stop_condition():
                    return self.now
            self.now = max(self.now, end_slot)
            return self.now
        finally:
            # Fold the per-node back-off statistics into the metrics
            # registry whenever a run segment completes (idempotent).
            if self.metrics_listener is not None:
                self.metrics_listener.harvest(self)

    # -- setup -----------------------------------------------------------

    def _prime(self) -> None:
        self._primed = True
        if self.mobility is not None and not self.mobility.is_static:
            self.schedule(self.epoch_slots, EventKind.MOBILITY_EPOCH)
        for node_id, source in self.traffic.items():
            first = source.generator.next_arrival_after(-1)
            if first is not None:
                self.schedule(max(first, 0), EventKind.ARRIVAL, node_id)
        self._reconcile(0, set(self.macs))

    # -- event processing --------------------------------------------------

    def _process_batch(self, slot: Slots, batch: List[_Event]) -> Set[int]:
        """Handle one slot's events; returns the set of affected nodes."""
        affected: Set[int] = set()
        for _slot, kind, _seq, data in batch:
            for hook in self._event_hooks:
                hook(slot, kind, data, self)
            if kind == EventKind.TRANSMISSION_PHASE:
                affected |= self._handle_phase(slot, data)
            elif kind == EventKind.MOBILITY_EPOCH:
                self._handle_epoch(slot)
                affected |= set(self.macs)
            elif kind == EventKind.ARRIVAL:
                self._handle_arrival(slot, data)
                affected.add(data)
            elif kind == EventKind.COUNTDOWN_COMPLETE:
                affected |= self._handle_countdown(slot, data)
        return affected

    def _handle_phase(self, slot: Slots, tx_id: int) -> Set[int]:
        tx = self.medium.active_item(tx_id)
        if tx.kind == "handshake" and not tx.corrupted:
            # CTS received: extend the busy period through DATA + ACK
            # (via the medium so its handshake index stays current).
            self.medium.extend_transmission(
                tx_id, tx.start_slot + self.timing.exchange_slots, kind="exchange"
            )
            self.schedule(tx.end_slot, EventKind.TRANSMISSION_PHASE, tx_id)
            return set()
        success = tx.kind == "exchange"
        self.medium.end_transmission(tx_id)
        self.macs[tx.sender].complete_transmission(success)
        for hook in self._tx_end_hooks:
            hook(slot, tx, success, self.medium)
        return self._neighborhood_of(tx.sender) | {tx.sender}

    def _handle_epoch(self, slot: Slots) -> None:
        time_s = slot * self.timing.slot_time_us / 1e6
        positions = self.mobility.positions_at(time_s)
        self.medium.update_positions(positions)
        for hook in self._positions_hooks:
            hook(slot, positions, self.medium)
        self.schedule(slot + self.epoch_slots, EventKind.MOBILITY_EPOCH)

    def _handle_arrival(self, slot: Slots, node_id: int) -> None:
        source = self.traffic[node_id]
        destination = source.pick_destination(self.medium, node_id)
        if destination is not None and destination != node_id:
            packet = Packet(
                source=node_id,
                destination=destination,
                size_bytes=self.timing.payload_bytes,
                created_slot=slot,
            )
            self.macs[node_id].enqueue(packet)
        nxt = source.generator.next_arrival_after(slot)
        if nxt is not None:
            self.schedule(nxt, EventKind.ARRIVAL, node_id)

    def _handle_countdown(self, slot: Slots, data: Tuple[int, int]) -> Set[int]:
        node_id, generation = data
        mac = self.macs[node_id]
        if mac.backoff.generation != generation or not mac.backoff.counting:
            return set()  # stale event: the countdown was frozen/replaced
        rts = mac.build_rts()
        mac.begin_transmission()
        receiver = rts.receiver
        corrupted = (
            not self.medium.can_decode(node_id, receiver)
            or self.medium.is_transmitting(receiver)
            or self.medium.senses_busy(receiver)
        )
        tx = Transmission(
            sender=node_id,
            receiver=receiver,
            start_slot=slot,
            end_slot=slot + self.timing.handshake_slots,
            kind="handshake",
            frame=rts,
            corrupted=corrupted,
        )
        tx_id = self.medium.start_transmission(tx)
        # A transmitter starting now corrupts any in-flight handshake whose
        # receiver lies within our interference footprint (hidden terminal).
        # Only handshake-kind transmissions can still be corrupted, so
        # iterate the medium's handshake index, not every busy period.
        for other_id, other in self.medium.active_handshakes():
            if other_id == tx_id:
                continue
            if self.medium.senses(node_id, other.receiver):
                other.corrupted = True
            if self.medium.senses(other.sender, receiver):
                tx.corrupted = True
        self.schedule(tx.end_slot, EventKind.TRANSMISSION_PHASE, tx_id)
        for hook in self._tx_start_hooks:
            hook(slot, tx, self.medium)
        return self._neighborhood_of(node_id) | {node_id}

    # -- back-off reconciliation -------------------------------------------

    def _neighborhood_of(self, node_id: int) -> "frozenset[int]":
        """Nodes whose channel view a transition at ``node_id`` can change.

        Returns the medium's cached frozenset directly — callers union
        it, they never mutate it."""
        return self.medium.sensors_of(node_id)

    def _reconcile(self, slot: Slots, affected: Set[int]) -> None:
        # This pass runs for every affected node on every non-empty slot;
        # it reads MAC state through direct attributes (``transmitting``,
        # ``backoff.remaining``/``anchor``) rather than the enum-valued
        # ``state`` property, which dominates the profile otherwise.
        #
        # Nodes advance (freeze / draw / resume) in ascending node-id
        # order, and each resumed countdown schedules its completion as
        # it goes, so the event sequence counter — the only shared state
        # the pass threads — is consumed in that same order.
        macs = self.macs
        senses_busy = self.medium.senses_busy
        resume_anchor = slot + self.timing.difs_slots
        for node_id in sorted(affected):
            mac = macs.get(node_id)
            if mac is None or mac.transmitting:
                continue
            backoff = mac.backoff
            if backoff.remaining is None:
                if mac.queue.is_empty:
                    continue
                mac.draw_backoff()
            if senses_busy(node_id):
                backoff.freeze(slot)
            elif backoff.anchor is None:
                self.schedule(
                    backoff.resume(resume_anchor),
                    EventKind.COUNTDOWN_COMPLETE,
                    (node_id, backoff.generation),
                )
