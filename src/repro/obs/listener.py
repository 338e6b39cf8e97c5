"""MetricsListener: feed a :class:`MetricsRegistry` from engine hooks.

Attach one listener per engine.  It rides the low-level
``on_event``/``on_slot_end`` hooks (which the engine only dispatches to
listeners that override them — runs without a MetricsListener pay
nothing) plus the transmission callbacks, and harvests the per-node
back-off statistics kept by :class:`repro.mac.backoff.BackoffScheduler`.

Collected series:

* ``engine.slots`` / ``engine.events`` / ``engine.events.<kind>`` —
  slots that held events and per-phase event counts, from the moment
  the listener is attached.  The engine drops stale countdown
  completions before dispatch (and with them the slots that held
  nothing else); :meth:`MetricsListener.harvest` folds in the drops
  made while attached, so these still count every scheduled event;
* ``tx.starts`` / ``tx.successes`` / ``tx.rts_collisions`` — RTS
  outcomes, plus the ``tx.duration_slots`` and ``tx.attempt``
  histograms;
* ``backoff.draws`` / ``backoff.freezes`` / ``backoff.slots_frozen`` —
  folded in by :meth:`MetricsListener.harvest` (the engine calls it at
  the end of every ``run_until`` on every metrics listener it holds,
  whether it installed it or a caller added it; harvesting is
  delta-based, so calling it repeatedly never double-counts);
* ``mobility.epochs`` and the ``engine.final_slot`` / ``engine.nodes``
  gauges.

Everything counted is a pure function of the simulation's seeded event
stream: same seed, byte-identical snapshot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.sim.listeners import SimulationListener

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.phy.medium import Medium, Transmission
    from repro.sim.engine import SimulationEngine

Position = Tuple[float, float]

#: EventKind value -> metric suffix (see repro.sim.engine.EventKind).
_EVENT_NAMES: Dict[int, str] = {
    0: "transmission_phase",
    1: "mobility_epoch",
    2: "arrival",
    3: "countdown_complete",
}

#: Attempt numbers are small (retry limit 7); one bucket each.
ATTEMPT_BOUNDS: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)

#: Transmission durations in slots (handshake ~ tens, exchange ~ hundreds).
DURATION_BOUNDS: Tuple[float, ...] = (
    10.0, 20.0, 50.0, 100.0, 200.0, 400.0, 800.0,
)


class MetricsListener(SimulationListener):
    """Counts engine activity into a (possibly shared) registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._slots = reg.counter("engine.slots")
        self._events = reg.counter("engine.events")
        self._event_kinds = {
            kind: reg.counter(f"engine.events.{name}")
            for kind, name in _EVENT_NAMES.items()
        }
        self._tx_starts = reg.counter("tx.starts")
        self._tx_successes = reg.counter("tx.successes")
        self._tx_collisions = reg.counter("tx.rts_collisions")
        self._epochs = reg.counter("mobility.epochs")
        self._attempts = reg.histogram("tx.attempt", ATTEMPT_BOUNDS)
        self._durations = reg.histogram("tx.duration_slots", DURATION_BOUNDS)
        #: node id -> (draws, freezes, slots_frozen) already folded in
        self._harvested: Dict[int, Tuple[int, int, int]] = {}
        #: the engine's (dropped_events, dropped_slots) already folded in
        #: (or made before :meth:`on_attach`)
        self._harvested_drops: Tuple[int, int] = (0, 0)

    # -- low-level hooks -----------------------------------------------------

    def on_event(
        self, slot: int, kind: int, data: Any, engine: "SimulationEngine"
    ) -> None:
        self._events.inc()
        counter = self._event_kinds.get(kind)
        if counter is None:
            counter = self._event_kinds[kind] = self.registry.counter(
                f"engine.events.kind_{kind}"
            )
        counter.inc()

    def on_slot_end(self, slot: int, engine: "SimulationEngine") -> None:
        self._slots.inc()

    # -- transmission callbacks ----------------------------------------------

    def on_transmission_start(
        self, slot: int, transmission: "Transmission", medium: "Medium"
    ) -> None:
        self._tx_starts.inc()
        frame = transmission.frame
        if frame is not None:
            self._attempts.observe(frame.attempt)

    def on_transmission_end(
        self,
        slot: int,
        transmission: "Transmission",
        success: bool,
        medium: "Medium",
    ) -> None:
        if success:
            self._tx_successes.inc()
        else:
            self._tx_collisions.inc()
        self._durations.observe(transmission.duration)

    def on_positions_updated(
        self, slot: int, positions: Dict[int, Position], medium: "Medium"
    ) -> None:
        self._epochs.inc()

    def on_attach(self, engine: "SimulationEngine") -> None:
        # Drops made before the listener existed are not its to count,
        # just as the events dispatched before it never reached on_event.
        self._harvested_drops = (engine.dropped_events, engine.dropped_slots)

    # -- back-off statistics ---------------------------------------------------

    def harvest(self, engine: "SimulationEngine") -> None:
        """Fold the per-node back-off stats and the engine's dropped
        stale completions into the registry.

        Delta-based and therefore idempotent: only the growth since the
        previous harvest is added.  One listener must serve one engine
        (the deltas are keyed by node id).
        """
        reg = self.registry
        events, slots = engine.dropped_events, engine.dropped_slots
        prev_events, prev_slots = self._harvested_drops
        # Every dropped event is a stale COUNTDOWN_COMPLETE (kind 3).
        self._events.inc(events - prev_events)
        self._event_kinds[3].inc(events - prev_events)
        self._slots.inc(slots - prev_slots)
        self._harvested_drops = (events, slots)
        for node_id, mac in engine.macs.items():
            backoff = mac.backoff
            now = (backoff.draws, backoff.freezes, backoff.slots_frozen)
            prev = self._harvested.get(node_id, (0, 0, 0))
            if now != prev:
                reg.inc("backoff.draws", now[0] - prev[0])
                reg.inc("backoff.freezes", now[1] - prev[1])
                reg.inc("backoff.slots_frozen", now[2] - prev[2])
                self._harvested[node_id] = now
        reg.set_gauge("engine.final_slot", engine.now)
        reg.set_gauge("engine.nodes", len(engine.macs))
