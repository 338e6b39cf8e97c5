"""Producing serve streams: live capture, canned scenarios, synthesis.

Three sources of ``repro serve`` input live here:

* :class:`StreamCapture` — a :class:`~repro.sim.listeners.SimulationListener`
  that serializes a live simulation's engine dispatches into wire lines,
  resolving exactly the per-event facts the observatory's engine hooks
  resolve (sensor sets at start *and* end, clean-decode flags at start)
  so a replay through :class:`~repro.serve.server.ServeSession`
  reproduces the in-process detection byte-for-byte;
* :func:`capture_scenario` — named canonical scenario captures
  (:data:`STREAM_SCENARIOS`) shared by the equivalence suite, the CI
  smoke step, and ``python -m repro.serve.capture``;
* :func:`synthetic_stream` — a closed-form honest-traffic generator
  (every link rides the paper's ``busy == 0`` deterministic-estimate
  regime) that scales to hundreds of thousands of links for the soak
  and memory benches without simulating anything.
"""

from __future__ import annotations

import argparse
import heapq
import sys
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.core.observation import ObservedTransmission
from repro.mac.constants import DEFAULT_TIMING, MacTiming
from repro.mac.frames import RtsFrame
from repro.mac.misbehavior import PercentageMisbehavior
from repro.mac.prng import VerifiableBackoffPrng
from repro.serve.links import LinkKey
from repro.serve.records import (
    end_line,
    positions_line,
    shutdown_line,
    start_line,
)
from repro.sim.listeners import SimulationListener
from repro.util.units import Slots

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.phy.medium import Medium, Transmission

Position = Tuple[float, float]


class StreamCapture(SimulationListener):
    """Serialize a live run's engine dispatches as serve wire lines.

    ``pairs`` scopes the capture: sensed sets are filtered to the
    monitors and tagged nodes involved (the only ids any serve-side
    query inspects), decode flags and frames are only resolved for
    tagged senders, and positions are filtered the same way.  A
    sender's scoped sensor set is computed once per topology: it is
    cached against the medium's own cached sensor set, which
    ``Medium.update_positions`` replaces.
    """

    def __init__(self, pairs: Sequence[LinkKey]) -> None:
        self.pairs = list(pairs)
        self.monitors = frozenset(monitor for monitor, _tagged in pairs)
        self.taggeds = frozenset(tagged for _monitor, tagged in pairs)
        self.scope = self.monitors | self.taggeds
        self.lines: List[str] = []
        self.last_slot: Slots = 0
        self._tx_keys: Dict[int, int] = {}
        self._next_tx = 0
        #: sender -> (the medium's sensor set, its scoped subset)
        self._scoped: Dict[int, Tuple[FrozenSet[int], FrozenSet[int]]] = {}

    def _scoped_sensors(self, sender: int, medium: "Medium") -> FrozenSet[int]:
        sensors = medium.sensors_of(sender)
        cached = self._scoped.get(sender)
        if cached is None or cached[0] is not sensors:
            cached = self._scoped[sender] = (sensors, self.scope & sensors)
        return cached[1]

    def on_transmission_start(
        self, slot: Slots, transmission: "Transmission", medium: "Medium"
    ) -> None:
        sender = transmission.sender
        tx = self._next_tx
        self._next_tx += 1
        self._tx_keys[id(transmission)] = tx
        decoded = frozenset()
        if sender in self.taggeds:
            decoded = frozenset(
                monitor
                for monitor in self.monitors
                if monitor != sender and medium.clean_decode(sender, monitor)
            )
        self.lines.append(
            start_line(
                slot, tx, sender, self._scoped_sensors(sender, medium), decoded
            )
        )
        self.last_slot = max(self.last_slot, slot)

    def on_transmission_end(
        self,
        slot: Slots,
        transmission: "Transmission",
        success: bool,
        medium: "Medium",
    ) -> None:
        sender = transmission.sender
        tx = self._tx_keys.pop(id(transmission))
        # Only tagged-scope frames ride the wire: background traffic
        # contributes busy intervals, never demuxed announcements.
        frame = transmission.frame if sender in self.taggeds else None
        observed = ObservedTransmission(
            start_slot=transmission.start_slot,
            end_slot=transmission.end_slot,
            rts=frame,
            success=success,
            receiver=transmission.receiver,
            impairment=None,
        )
        self.lines.append(
            end_line(
                slot, tx, sender, self._scoped_sensors(sender, medium), observed
            )
        )
        self.last_slot = max(self.last_slot, slot)

    def on_positions_updated(
        self, slot: Slots, positions: Dict[int, Position], medium: "Medium"
    ) -> None:
        scoped = {
            node: positions[node] for node in self.scope if node in positions
        }
        self.lines.append(positions_line(slot, scoped))
        self.last_slot = max(self.last_slot, slot)

    def finished_lines(self) -> List[str]:
        """The captured stream with its terminating shutdown record."""
        return self.lines + [shutdown_line(self.last_slot)]


def _capture_grid(duration_s: float):
    from repro.experiments.scenarios import GridScenario

    scenario = GridScenario(seed=11)
    sim, sender, monitor = scenario.build()
    return sim, [(monitor, sender)], scenario.separation, duration_s


def _capture_cheater_grid(duration_s: float):
    from repro.experiments.scenarios import GridScenario
    from repro.topology.placement import center_pair_indices

    scenario = GridScenario(seed=11)
    cheater, _monitor = center_pair_indices(scenario.rows, scenario.cols)
    sim, sender, monitor = scenario.build(
        policies={cheater: PercentageMisbehavior(60)}
    )
    return sim, [(monitor, sender)], scenario.separation, duration_s


def _capture_random(duration_s: float):
    from repro.experiments.scenarios import RandomScenario

    scenario = RandomScenario(seed=5)
    sim, sender, monitor = scenario.build()
    return sim, [(monitor, sender)], scenario.separation, duration_s


def _capture_mobile(duration_s: float):
    from repro.experiments.scenarios import RandomScenario

    scenario = RandomScenario(seed=5, mobile=True)
    sim, sender, monitor = scenario.build()
    return sim, [(monitor, sender)], scenario.separation, duration_s


def _capture_multi(duration_s: float):
    from repro.experiments.scenarios import MultiMonitorGridScenario

    scenario = MultiMonitorGridScenario(seed=7)
    taggeds = scenario.tagged_nodes()
    policies = {
        taggeds[0]: PercentageMisbehavior(60),
        taggeds[2]: PercentageMisbehavior(75),
    }
    sim, pairs = scenario.build(policies=policies)
    return sim, pairs, scenario.separation, duration_s


#: Named canonical captures: the equivalence goldens and the CI smoke.
STREAM_SCENARIOS = {
    "grid": _capture_grid,
    "grid-cheat": _capture_cheater_grid,
    "random": _capture_random,
    "mobile": _capture_mobile,
    "multi": _capture_multi,
}


def capture_scenario(
    name: str, duration_s: float = 3.0
) -> Tuple[List[str], List[LinkKey], float]:
    """Run one named scenario and capture its serve stream.

    Returns ``(lines, pairs, separation)``; the lines end with a
    shutdown record.  Construction is same-seed deterministic, so two
    captures of the same name are byte-identical (given fresh process
    state — the test fixtures handle that).
    """
    builder = STREAM_SCENARIOS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown stream scenario {name!r}; "
            f"known: {sorted(STREAM_SCENARIOS)}"
        )
    sim, pairs, separation, duration_s = builder(duration_s)
    capture = StreamCapture(pairs)
    sim.add_listener(capture)
    sim.run(duration_s)
    return capture.finished_lines(), pairs, separation


def synthetic_stream(
    n_links: int,
    samples_per_link: int,
    timing: MacTiming = DEFAULT_TIMING,
    monitor_base: int = 1_000_000,
    tagged_base: int = 2_000_000,
    start_slot: int = 0,
    emit_shutdown: bool = True,
) -> Iterator[str]:
    """Honest traffic on ``n_links`` isolated links, heap-interleaved.

    Link ``i`` is ``(monitor_base + i, tagged_base + i)``; only its own
    monitor senses its transmissions, every inter-frame gap is exactly
    ``difs + dictated`` idle slots, and ``seq_off`` advances by one —
    each observation lands in the paper's deterministic ``busy == 0``
    regime with ``estimated == dictated`` (a clean rank-sum diet with
    zero quarantine noise, ideal for soak and memory benches).

    ``start_slot`` offsets the whole stream along the slot axis and
    ``emit_shutdown=False`` suppresses the terminating shutdown record,
    so multiple phases (cold churn, then hot traffic) can be
    concatenated into one well-ordered stream.
    """
    if n_links < 1:
        raise ValueError(f"n_links must be >= 1, got {n_links}")

    def link_events(index: int) -> Iterator[Tuple[int, int, int, str]]:
        monitor = monitor_base + index
        tagged = tagged_base + index
        only_monitor = (monitor,)
        prng = VerifiableBackoffPrng(tagged, timing.cw_min, timing.cw_max)
        slot = start_slot + index % 97  # stagger link phases
        for seq_off in range(samples_per_link):
            gap = timing.difs_slots + prng.dictated_backoff(seq_off, 1)
            start = slot + gap
            end = start + timing.exchange_slots
            tx = index * (samples_per_link + 1) + seq_off
            # Fresh DATA digest per frame: the attempt verifier reads a
            # repeated digest as a retransmission, which must not
            # announce attempt 1 again.
            frame = RtsFrame(
                sender=tagged,
                receiver=monitor,
                seq_off=seq_off,
                attempt=1,
                digest=((index << 64) | seq_off).to_bytes(16, "big"),
            )
            yield (
                start,
                index,
                0,
                start_line(start, tx, tagged, only_monitor, only_monitor),
            )
            yield (
                end,
                index,
                1,
                end_line(
                    end,
                    tx,
                    tagged,
                    only_monitor,
                    ObservedTransmission(
                        start_slot=start,
                        end_slot=end,
                        rts=frame,
                        success=True,
                        receiver=monitor,
                        impairment=None,
                    ),
                ),
            )
            slot = end

    last_slot = 0
    merged = heapq.merge(*(link_events(i) for i in range(n_links)))
    for slot, _index, _order, line in merged:
        last_slot = max(last_slot, slot)
        yield line
    if emit_shutdown:
        yield shutdown_line(last_slot)


def synthetic_links(
    n_links: int,
    monitor_base: int = 1_000_000,
    tagged_base: int = 2_000_000,
) -> List[LinkKey]:
    """The link keys :func:`synthetic_stream` transmits on."""
    return [
        (monitor_base + i, tagged_base + i) for i in range(n_links)
    ]


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    """``python -m repro.serve.capture``: write a named stream to a file."""
    parser = argparse.ArgumentParser(
        prog="repro-capture",
        description="Capture a canonical scenario as a repro-serve stream.",
    )
    parser.add_argument(
        "scenario",
        choices=sorted(STREAM_SCENARIOS),
        help="named scenario to simulate and capture",
    )
    parser.add_argument(
        "--duration",
        dest="duration_s",
        type=float,
        default=3.0,
        metavar="SECONDS",
        help="simulated duration (default: 3.0)",
    )
    parser.add_argument(
        "--out",
        default="-",
        metavar="PATH",
        help="output path ('-' = stdout, the default)",
    )
    options = parser.parse_args(argv)
    lines, pairs, separation = capture_scenario(
        options.scenario, options.duration_s
    )
    header = out if out is not None else sys.stderr
    if options.out == "-":
        sink = out if out is not None else sys.stdout
        for line in lines:
            sink.write(line + "\n")
    else:
        with open(options.out, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        header.write(
            f"captured {len(lines)} lines, {len(pairs)} links, "
            f"separation {separation:.1f} m -> {options.out}\n"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
