"""Event-driven, slot-accurate network simulator.

Replaces ns-2 for this reproduction: nodes run the DCF MAC of
``repro.mac`` over the PHY of ``repro.phy``, with traffic from
``repro.traffic`` and (optional) mobility from ``repro.topology``.

The engine is *event-driven but slot-exact*: all times are integer
slots, and between channel-state transitions back-off countdowns advance
analytically (see ``repro.mac.backoff``), so a 300-second run does not
iterate 15 million slots.
"""

from repro.sim.engine import EventKind, SimulationEngine
from repro.sim.listeners import SimulationListener, StatsCollector
from repro.sim.network import Flow, Simulation, SimulationConfig

__all__ = [
    "EventKind",
    "Flow",
    "Simulation",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationListener",
    "StatsCollector",
]
