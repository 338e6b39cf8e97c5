"""High-level simulation assembly: topology + flows + policies -> engine.

`Simulation` is the user-facing entry point: give it node positions (or
a mobility model), a list of :class:`Flow` descriptions and, optionally,
per-node back-off policies (misbehavior), and run it for a simulated
duration.  Everything is reproducible from the single ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.mac.constants import DEFAULT_TIMING, MacTiming
from repro.mac.dcf import DcfMac
from repro.mac.misbehavior import BackoffPolicy
from repro.phy.channel import Channel
from repro.phy.medium import Medium
from repro.phy.propagation import FreeSpacePropagation, LogNormalShadowing
from repro.sim.engine import SimulationEngine
from repro.topology.mobility import MobilityModel, StaticMobility
from repro.sim.listeners import SimulationListener
from repro.traffic.generators import CbrTrafficGenerator, PoissonTrafficGenerator, TrafficGenerator
from repro.util.rng import RngStream
from repro.util.units import Seconds, Slots, seconds_to_slots
from repro.util.validation import check_positive


@dataclass(frozen=True)
class Flow:
    """One traffic source.

    ``destination=None`` selects the paper's behavior: an "arbitrarily
    chosen neighbor" — fixed for the life of the flow for CBR streams,
    re-chosen per packet for the Poisson model.
    """

    source: int
    destination: Optional[int] = None
    kind: str = "poisson"          # "poisson" | "cbr"
    load: float = 0.5              # traffic intensity rho
    per_packet_destination: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "cbr"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        check_positive(self.load, "load")

    @property
    def picks_per_packet(self) -> bool:
        if self.per_packet_destination is not None:
            return self.per_packet_destination
        return self.kind == "poisson"


class _TrafficSource:
    """Engine-facing adapter: generator + destination selection."""

    def __init__(self, flow: Flow, generator: TrafficGenerator, rng: RngStream) -> None:
        self.flow = flow
        self.generator = generator
        self._rng = rng
        self._cached_destination = flow.destination

    def pick_destination(self, medium: Medium, node_id: int) -> Optional[int]:
        if self._cached_destination is not None and not self.flow.picks_per_packet:
            return self._cached_destination
        neighbors = medium.sorted_neighbors(node_id)
        if not neighbors:
            return None
        choice = self._rng.choice(neighbors)
        if not self.flow.picks_per_packet:
            self._cached_destination = choice
        return choice


@dataclass
class SimulationConfig:
    """Everything needed to build a reproducible simulation.

    ``medium_index`` selects the reachability index (``"auto"`` /
    ``"grid"`` / ``"brute"``, see :class:`repro.phy.medium.Medium`) —
    observable output is byte-identical either way.
    """

    seed: int = 1
    timing: MacTiming = field(default_factory=lambda: DEFAULT_TIMING)
    transmission_range: float = 250.0
    sensing_range: float = 550.0
    shadowing_sigma_db: float = 0.0
    path_loss_exponent: float = 2.0
    queue_capacity: int = 50
    epoch_interval_s: float = 0.5
    medium_index: str = "auto"


class Simulation:
    """A runnable network: nodes, medium, traffic, and the engine.

    Parameters
    ----------
    positions_or_mobility:
        Either a list of (x, y) positions (static network) or a
        :class:`repro.topology.MobilityModel`.
    flows:
        Iterable of :class:`Flow`.
    policies:
        Mapping node id -> :class:`repro.mac.BackoffPolicy` for nodes
        that deviate from the default honest policy.
    config:
        A :class:`SimulationConfig`; defaults reproduce Table 1.
    """

    def __init__(
        self,
        positions_or_mobility: Union[
            Mapping[int, Tuple[float, float]],
            Iterable[Tuple[float, float]],
            MobilityModel,
        ],
        flows: Iterable[Flow] = (),
        policies: Optional[Mapping[int, BackoffPolicy]] = None,
        config: Optional[SimulationConfig] = None,
        mac_options: Optional[Mapping[int, Dict[str, Any]]] = None,
    ) -> None:
        self.config = config if config is not None else SimulationConfig()
        cfg = self.config
        if hasattr(positions_or_mobility, "positions_at"):
            self.mobility = positions_or_mobility
        else:
            self.mobility = StaticMobility(positions_or_mobility)
        initial_positions = self.mobility.positions_at(0.0)

        if cfg.shadowing_sigma_db > 0:
            propagation = LogNormalShadowing(
                cfg.shadowing_sigma_db,
                cfg.path_loss_exponent,
                rng=RngStream(cfg.seed, "shadowing"),
            )
        else:
            propagation = FreeSpacePropagation(cfg.path_loss_exponent)
        self.channel = Channel(
            transmission_range=cfg.transmission_range,
            sensing_range=cfg.sensing_range,
            propagation=propagation,
        )
        self.medium = Medium(self.channel, index=cfg.medium_index)
        self.medium.update_positions(initial_positions)

        policies = policies or {}
        mac_options = mac_options or {}
        self.macs: Dict[int, DcfMac] = {}
        for node_id in initial_positions:
            options = mac_options.get(node_id, {})
            self.macs[node_id] = DcfMac(
                node_id,
                timing=cfg.timing,
                policy=policies.get(node_id),
                queue_capacity=cfg.queue_capacity,
                **options,
            )

        self.flows = list(flows)
        traffic_sources: Dict[int, _TrafficSource] = {}
        for flow in self.flows:
            if flow.source not in self.macs:
                raise ValueError(f"flow source {flow.source} is not a node")
            if flow.source in traffic_sources:
                raise ValueError(f"node {flow.source} already has a flow")
            traffic_sources[flow.source] = self._build_source(flow)

        self.engine = SimulationEngine(
            self.medium,
            self.macs,
            cfg.timing,
            traffic_sources=traffic_sources,
            mobility=self.mobility,
            epoch_interval_s=cfg.epoch_interval_s,
        )

    def _build_source(self, flow: Flow) -> _TrafficSource:
        cfg = self.config
        service = cfg.timing.mean_service_slots
        if flow.kind == "poisson":
            generator = PoissonTrafficGenerator(
                flow.load,
                service,
                rng=RngStream(cfg.seed, "arrivals", flow.source),
            )
        else:
            phase_rng = RngStream(cfg.seed, "cbr-phase", flow.source)
            generator = CbrTrafficGenerator(
                flow.load,
                service,
                phase=phase_rng.integers(0, max(int(service / flow.load), 1)),
            )
        dest_rng = RngStream(cfg.seed, "destinations", flow.source)
        return _TrafficSource(flow, generator, dest_rng)

    # -- running -----------------------------------------------------------

    def add_listener(self, listener: SimulationListener) -> None:
        self.engine.add_listener(listener)

    def run(
        self,
        duration_s: Seconds,
        stop_condition: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run for ``duration_s`` simulated seconds (from the current
        engine time); returns the final slot."""
        end = self.engine.now + seconds_to_slots(
            duration_s, self.config.timing.slot_time_us
        )
        return self.engine.run_until(end, stop_condition=stop_condition)

    def run_slots(
        self,
        slots: Slots,
        stop_condition: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run for an explicit number of slots."""
        return self.engine.run_until(
            self.engine.now + int(slots), stop_condition=stop_condition
        )
