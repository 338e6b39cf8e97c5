"""Scenario builders matching the paper's two evaluation setups.

Grid: 7x8 nodes, 240 m spacing, 30 source-destination pairs (each source
streams to a random one-hop neighbor); the monitored sender S and the
monitor R are the two adjacent nodes nearest the grid center, with S
sending to R (paper Section 5, "Simulation Measurements").

Random: 112 nodes uniform in 3000 m x 3000 m, same flow structure; S is
the node nearest the field center and R its nearest neighbor.  The
mobile variant runs the random waypoint model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.geometry.vectors import Point, distance
from repro.sim.network import Flow, Simulation, SimulationConfig
from repro.topology.mobility import RandomWaypoint
from repro.topology.placement import (
    center_pair_indices,
    constant_density_side,
    grid_positions,
    random_positions,
)
from repro.util.rng import RngStream
from repro.util.units import Meters

#: (simulation, sender, monitor) — what single-pair builders return.
BuildResult = Tuple[Simulation, int, int]
Policies = Optional[Dict[int, Any]]
MacOptions = Optional[Dict[str, Any]]


def _flow_sources(
    n_nodes: int, n_pairs: int, sender: int, monitor: int, rng: RngStream
) -> List[int]:
    """Pick ``n_pairs`` distinct flow sources, always including the
    monitored sender, never the monitor (it must be free to observe)."""
    candidates = [i for i in range(n_nodes) if i not in (sender, monitor)]
    rng.shuffle(candidates)
    return [sender] + candidates[: max(n_pairs - 1, 0)]


@dataclass
class GridScenario:
    """The paper's first experiment setup."""

    rows: int = 7
    cols: int = 8
    spacing: Meters = 240.0
    n_pairs: int = 30
    load: float = 0.6
    traffic: str = "poisson"      # "poisson" | "cbr"
    seed: int = 1
    medium_index: str = "auto"    # "auto" | "grid" | "brute"

    def build(self, policies: Policies = None, mac_options: MacOptions = None) -> BuildResult:
        """Returns ``(simulation, sender, monitor)``."""
        positions = grid_positions(self.rows, self.cols, self.spacing)
        sender, monitor = center_pair_indices(self.rows, self.cols)
        rng = RngStream(self.seed, "grid-flow-sources")
        sources = _flow_sources(
            len(positions), self.n_pairs, sender, monitor, rng
        )
        flows = [
            Flow(
                source=src,
                destination=monitor if src == sender else None,
                kind=self.traffic,
                load=self.load,
            )
            for src in sources
        ]
        sim = Simulation(
            positions,
            flows=flows,
            policies=policies,
            config=SimulationConfig(
                seed=self.seed,
                medium_index=self.medium_index,
            ),
            mac_options=mac_options,
        )
        return sim, sender, monitor

    @property
    def separation(self) -> Meters:
        return self.spacing


@dataclass
class RandomScenario:
    """The paper's second setup: random placement, optionally mobile."""

    n_nodes: int = 112
    width: Meters = 3000.0
    height: Meters = 3000.0
    n_pairs: int = 30
    load: float = 0.6
    traffic: str = "cbr"
    mobile: bool = False
    max_speed: float = 20.0
    pause_time: float = 0.0
    seed: int = 1
    medium_index: str = "auto"    # "auto" | "grid" | "brute"

    def build(self, policies: Policies = None, mac_options: MacOptions = None) -> BuildResult:
        """Returns ``(simulation, sender, monitor)``."""
        place_rng = RngStream(self.seed, "random-placement")
        positions = random_positions(
            self.n_nodes, self.width, self.height, rng=place_rng
        )
        sender, monitor = self._center_pair(positions)
        rng = RngStream(self.seed, "random-flow-sources")
        sources = _flow_sources(self.n_nodes, self.n_pairs, sender, monitor, rng)
        # Under mobility a fixed S -> R stream dies as soon as the pair
        # separates; the paper's sources pick an (in-range) neighbor, so
        # mobile flows re-choose per packet.
        flows = [
            Flow(
                source=src,
                destination=(
                    monitor if src == sender and not self.mobile else None
                ),
                kind=self.traffic,
                load=self.load,
                per_packet_destination=True if self.mobile else None,
            )
            for src in sources
        ]
        if self.mobile:
            topology = RandomWaypoint(
                positions,
                width=self.width,
                height=self.height,
                max_speed=self.max_speed,
                pause_time=self.pause_time,
                rng=RngStream(self.seed, "waypoints"),
            )
        else:
            topology = positions
        sim = Simulation(
            topology,
            flows=flows,
            policies=policies,
            config=SimulationConfig(
                seed=self.seed,
                medium_index=self.medium_index,
            ),
            mac_options=mac_options,
        )
        self._positions = positions
        return sim, sender, monitor

    def _center_pair(self, positions: Sequence[Point]) -> Tuple[int, int]:
        """Sender nearest the field center; monitor its nearest neighbor
        within decode range (falls back to nearest node outright)."""
        center = (self.width / 2.0, self.height / 2.0)
        sender = min(
            range(len(positions)), key=lambda i: distance(positions[i], center)
        )
        others = [
            (distance(positions[i], positions[sender]), i)
            for i in range(len(positions))
            if i != sender
        ]
        others.sort()
        self.pair_separation = others[0][0]
        return sender, others[0][1]

    @property
    def separation(self) -> Meters:
        return getattr(self, "pair_separation", 240.0)


@dataclass
class RandomWaypointScenario:
    """Constant-density random-waypoint topologies at 1k-10k nodes.

    The paper's mobile setup (random waypoint, per-packet neighbor
    destinations) scaled up: the field side grows with sqrt(n) so the
    local contention structure — ~12 nodes per 550 m sensing disk, the
    regime every detector number was calibrated in — is preserved at
    any size (see :func:`repro.topology.placement.constant_density_side`).
    Flow count scales the same way (the paper's 30 pairs per 112 nodes),
    keeping per-area offered load constant.

    ``n_nodes=1000`` and ``n_nodes=10000`` are the presets benchmarked
    by ``bench_engine.py``; they are only tractable on the medium's
    grid index (``medium_index="brute"`` exists as the equivalence and
    speedup baseline).
    """

    n_nodes: int = 1000
    n_pairs: Optional[int] = None   # None: scale the paper's 30/112
    load: float = 0.6
    traffic: str = "poisson"
    max_speed: float = 20.0
    pause_time: float = 0.0
    epoch_interval_s: float = 0.5
    seed: int = 1
    medium_index: str = "auto"      # "auto" | "grid" | "brute"

    @property
    def side(self) -> Meters:
        """Field side preserving the paper's reference density."""
        return constant_density_side(self.n_nodes)

    @property
    def flow_count(self) -> int:
        if self.n_pairs is not None:
            return self.n_pairs
        return max(round(30 * self.n_nodes / 112), 1)

    def build(
        self, policies: Policies = None, mac_options: MacOptions = None
    ) -> BuildResult:
        """Returns ``(simulation, sender, monitor)``."""
        side = self.side
        place_rng = RngStream(self.seed, "rwp-placement")
        positions = random_positions(self.n_nodes, side, side, rng=place_rng)
        center = (side / 2.0, side / 2.0)
        sender = min(
            range(len(positions)), key=lambda i: distance(positions[i], center)
        )
        others = sorted(
            (distance(positions[i], positions[sender]), i)
            for i in range(len(positions))
            if i != sender
        )
        self.pair_separation = others[0][0]
        monitor = others[0][1]
        rng = RngStream(self.seed, "rwp-flow-sources")
        sources = _flow_sources(
            self.n_nodes, self.flow_count, sender, monitor, rng
        )
        # Mobile flows re-pick an in-range neighbor per packet — a
        # fixed pair would separate within a handful of epochs.
        flows = [
            Flow(
                source=src,
                destination=None,
                kind=self.traffic,
                load=self.load,
                per_packet_destination=True,
            )
            for src in sources
        ]
        topology = RandomWaypoint(
            positions,
            width=side,
            height=side,
            max_speed=self.max_speed,
            pause_time=self.pause_time,
            rng=RngStream(self.seed, "rwp-waypoints"),
        )
        sim = Simulation(
            topology,
            flows=flows,
            policies=policies,
            config=SimulationConfig(
                seed=self.seed,
                epoch_interval_s=self.epoch_interval_s,
                medium_index=self.medium_index,
            ),
            mac_options=mac_options,
        )
        return sim, sender, monitor

    @property
    def mobile(self) -> bool:
        return True

    @property
    def separation(self) -> Meters:
        return getattr(self, "pair_separation", 240.0)


@dataclass
class MultiMonitorGridScenario:
    """Dense-monitor grid: M monitor nodes each watch the same C cheaters.

    The cooperative regime the shared observation plane exists for:
    every monitor runs one detector per tagged node, so a monitor
    node's busy timeline and estimator feeds are shared by C detectors
    (M x C detectors on M channels).  Monitors must *decode* every
    tagged node, so the default geometry tightens the grid spacing to
    110 m — the 2-hop knight-step diagonal is 110 * sqrt(5) ~ 246 m,
    just inside the 250 m decode range — and places the C = 4 tagged
    nodes in a 2 x 2 block at the grid center with the M = 4 monitors
    on the rows flanking the block.

    ``build`` returns ``(simulation, pairs)`` with the full
    (monitor, tagged) attach list in deterministic order.
    """

    rows: int = 7
    cols: int = 8
    spacing: Meters = 110.0
    n_pairs: int = 30
    load: float = 0.6
    traffic: str = "poisson"
    seed: int = 1
    #: tagged node indices; () picks the central 2x2 block
    tagged: Tuple[int, ...] = ()
    #: monitor node indices; () picks the rows flanking the block
    monitors: Tuple[int, ...] = ()

    def tagged_nodes(self) -> List[int]:
        """The tagged (monitored) node indices."""
        if self.tagged:
            return list(self.tagged)
        r, c = self.rows // 2, self.cols // 2
        return sorted(
            rr * self.cols + cc for rr in (r - 1, r) for cc in (c - 1, c)
        )

    def monitor_nodes(self) -> List[int]:
        """The monitor node indices."""
        if self.monitors:
            return list(self.monitors)
        r, c = self.rows // 2, self.cols // 2
        return sorted(
            rr * self.cols + cc for rr in (r - 2, r + 1) for cc in (c - 1, c)
        )

    def monitor_pairs(self) -> List[Tuple[int, int]]:
        """All (monitor, tagged) pairs, grouped by monitor node."""
        taggeds = self.tagged_nodes()
        return [
            (monitor, tagged)
            for monitor in self.monitor_nodes()
            for tagged in taggeds
        ]

    def build(
        self, policies: Policies = None, mac_options: MacOptions = None
    ) -> Tuple[Simulation, List[Tuple[int, int]]]:
        """Returns ``(simulation, pairs)``; tagged node i streams to
        monitor i % M, background flows fill up to ``n_pairs``."""
        positions = grid_positions(self.rows, self.cols, self.spacing)
        pairs = self.monitor_pairs()
        taggeds = self.tagged_nodes()
        monitors = self.monitor_nodes()
        reserved = set(taggeds) | set(monitors)
        candidates = [i for i in range(len(positions)) if i not in reserved]
        rng = RngStream(self.seed, "multi-monitor-flow-sources")
        rng.shuffle(candidates)
        background = candidates[: max(self.n_pairs - len(taggeds), 0)]
        flows = [
            Flow(
                source=tagged,
                destination=monitors[i % len(monitors)],
                kind=self.traffic,
                load=self.load,
            )
            for i, tagged in enumerate(taggeds)
        ] + [
            Flow(source=src, destination=None, kind=self.traffic, load=self.load)
            for src in background
        ]
        sim = Simulation(
            positions,
            flows=flows,
            policies=policies,
            config=SimulationConfig(seed=self.seed),
            mac_options=mac_options,
        )
        return sim, pairs

    @property
    def separation(self) -> Meters:
        return self.spacing


def build_grid_simulation(
    load: float = 0.6,
    traffic: str = "poisson",
    seed: int = 1,
    policies: Policies = None,
    n_pairs: int = 30,
) -> BuildResult:
    """Convenience wrapper returning ``(sim, sender, monitor)``."""
    scenario = GridScenario(load=load, traffic=traffic, seed=seed, n_pairs=n_pairs)
    return scenario.build(policies=policies)


def build_random_simulation(
    load: float = 0.6,
    traffic: str = "cbr",
    seed: int = 1,
    policies: Policies = None,
    mobile: bool = False,
    n_pairs: int = 30,
) -> BuildResult:
    """Convenience wrapper returning ``(sim, sender, monitor)``."""
    scenario = RandomScenario(
        load=load, traffic=traffic, seed=seed, mobile=mobile, n_pairs=n_pairs
    )
    return scenario.build(policies=policies)
