"""Observation hooks into the simulation.

Monitors (the detection framework) and experiment instrumentation attach
as listeners; the engine calls them at every transmission start and
outcome and at every mobility epoch.  Listeners must not mutate
simulation state.

Two low-level hooks exist for instrumentation that needs to see the raw
event stream (the invariant checker in :mod:`repro.checks.invariants`):
``on_event`` fires before each event is dispatched and ``on_slot_end``
after a slot's batch and reconcile pass complete.  Stale countdown
completions are dropped before dispatch, so neither hook sees them (nor
a slot that held nothing else); the engine counts them instead.
``on_attach`` fires once, when the listener joins an engine.

The engine dispatches *every* callback — high-level and low-level —
only to listeners that actually override it (see :func:`overrides_hook`
and ``SimulationEngine._refresh_hooks``), so a listener pays nothing
for the hooks it leaves as the base-class no-ops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import Slots
from typing import TYPE_CHECKING, Any, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.phy.medium import Medium, Transmission
    from repro.sim.engine import SimulationEngine

Position = Tuple[float, float]


def overrides_hook(listener: object, name: str) -> bool:
    """True if ``listener`` provides its own implementation of ``name``.

    Compares against the :class:`SimulationListener` base no-op, so the
    engine's per-hook dispatch lists contain only bound methods that
    actually do something.
    """
    method = getattr(listener, name, None)
    if not callable(method):
        return False
    base = getattr(SimulationListener, name, None)
    return getattr(method, "__func__", method) is not base


class SimulationListener:
    """Base class: override the callbacks you need.

    Its ``__slots__`` is empty, so a subclass that declares its own
    ``__slots__`` (the per-link detector) carries no instance dict.
    """

    __slots__ = ()

    def on_transmission_start(
        self, slot: Slots, transmission: "Transmission", medium: "Medium"
    ) -> None:
        """A node occupied the air at ``slot`` (RTS phase begins)."""

    def on_transmission_end(
        self,
        slot: Slots,
        transmission: "Transmission",
        success: bool,
        medium: "Medium",
    ) -> None:
        """The exchange finished (success) or the RTS failed."""

    def on_positions_updated(
        self, slot: Slots, positions: Dict[int, Position], medium: "Medium"
    ) -> None:
        """A mobility epoch rebuilt the reachability sets."""

    def on_event(
        self, slot: Slots, kind: int, data: Any, engine: "SimulationEngine"
    ) -> None:
        """A scheduled event is about to be dispatched (low-level hook)."""

    def on_slot_end(self, slot: Slots, engine: "SimulationEngine") -> None:
        """A slot's event batch and reconcile pass completed (low-level)."""

    def on_attach(self, engine: "SimulationEngine") -> None:
        """The listener joined ``engine`` (at the engine's construction or
        through ``add_listener``), before any event reached it."""


@dataclass
class _FlowStats:
    sent: int = 0
    delivered: int = 0


class StatsCollector(SimulationListener):
    """Network-wide counters used by tests and experiment reports."""

    def __init__(self) -> None:
        self.transmissions = 0
        self.successes = 0
        self.failures = 0
        self.busy_slots_total = 0
        self.per_sender: Dict[int, _FlowStats] = {}

    def on_transmission_start(
        self, slot: Slots, transmission: "Transmission", medium: "Medium"
    ) -> None:
        self.transmissions += 1
        stats = self.per_sender.setdefault(transmission.sender, _FlowStats())
        stats.sent += 1

    def on_transmission_end(
        self,
        slot: Slots,
        transmission: "Transmission",
        success: bool,
        medium: "Medium",
    ) -> None:
        if success:
            self.successes += 1
            stats = self.per_sender.setdefault(transmission.sender, _FlowStats())
            stats.delivered += 1
        else:
            self.failures += 1
        self.busy_slots_total += transmission.duration

    @property
    def success_ratio(self) -> float:
        done = self.successes + self.failures
        return self.successes / done if done else 0.0
