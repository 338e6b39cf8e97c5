"""Bare-engine throughput: slots per second, small and large topologies.

The perf baseline every optimization PR measures against.  Cells:

- {56-node grid, 112-node random} x {bare, with the metrics listener}
  — the listener cell prices the observability overhead;
- the 1,000-node random-waypoint scenario on the spatial grid index
  vs the all-pairs reference, with a gated speedup ratio;
- the 10,000-node scenario (grid-only; all-pairs would take minutes
  per mobility epoch), proving full-fidelity scale completes.

No detector is attached; this measures the slot loop itself (event
heap, carrier sensing, back-off reconciliation, epoch reachability).

Wall-clock numbers vary with the host, so the assertions only require
sane, non-degenerate throughput — plus the one structural gate that
must hold on any host, the grid-vs-brute speedup at 1k nodes; the
measured values land in ``BENCH_engine.json`` where the trajectory
across PRs is tracked.
"""

from __future__ import annotations

from repro.experiments.scenarios import (
    GridScenario,
    RandomScenario,
    RandomWaypointScenario,
)
from repro.obs.bench import write_bench_manifest
from repro.obs.listener import MetricsListener
from repro.obs.profile import Stopwatch
from repro.obs.registry import MetricsRegistry
from repro.util.fidelity import scaled

SEED = 7
LOAD = 0.6

#: The 1k-node cell samples mobility epochs densely (one per 2,500
#: slots) so the measured span exercises the epoch path the spatial
#: index optimizes, not just the slot loop between epochs.
RW_EPOCH_INTERVAL_S = 0.05


def _throughput(scenario, slots, with_metrics):
    """Best-of-3 slots/sec for one scenario build (fresh sim per rep)."""
    best = 0.0
    for _rep in range(3):
        sim, _sender, _monitor = scenario.build()
        if with_metrics:
            sim.add_listener(MetricsListener(MetricsRegistry()))
        watch = Stopwatch()
        sim.run_slots(slots)
        elapsed = watch.stop()
        best = max(best, slots / elapsed if elapsed > 0 else 0.0)
    return best


def _waypoint_throughput(scenario, slots, reps=2):
    """Best-of-``reps`` slots/sec for a large waypoint scenario.

    Unlike :func:`_throughput`, the timed span *includes* the scenario
    build: the initial ``update_positions`` is exactly one mobility
    epoch's reachability cost, which is the O(n²)-vs-O(n) path the
    spatial index exists for.  Excluding it would let a reduced
    ``REPRO_SCALE`` run (too few slots to cross an epoch) measure no
    epochs at all.
    """
    best = 0.0
    for _rep in range(reps):
        watch = Stopwatch()
        sim, _sender, _monitor = scenario.build()
        sim.run_slots(slots)
        elapsed = watch.stop()
        best = max(best, slots / elapsed if elapsed > 0 else 0.0)
    return best


def _paper_topology_cells(slots):
    cells = {}
    for label, scenario in (
        ("grid56", GridScenario(load=LOAD, seed=SEED)),
        ("random112", RandomScenario(load=LOAD, seed=SEED)),
    ):
        cells[f"{label}_slots_per_sec"] = _throughput(
            scenario, slots, with_metrics=False
        )
        cells[f"{label}_metrics_slots_per_sec"] = _throughput(
            scenario, slots, with_metrics=True
        )
    return cells


def _large_topology_cells(slots_1k, slots_10k):
    """1k grid-vs-brute speedup and 10k completion.

    Node counts are *not* scaled down by ``REPRO_SCALE``: these cells
    exist to pin behavior at size, so only the measured slot span
    shrinks.
    """
    cells = {}
    for label, index in (("rw1k_grid", "grid"), ("rw1k_brute", "brute")):
        scenario = RandomWaypointScenario(
            n_nodes=1_000,
            seed=SEED,
            epoch_interval_s=RW_EPOCH_INTERVAL_S,
            medium_index=index,
        )
        cells[f"{label}_slots_per_sec"] = _waypoint_throughput(scenario, slots_1k)
    cells["rw1k_speedup"] = (
        cells["rw1k_grid_slots_per_sec"] / cells["rw1k_brute_slots_per_sec"]
    )
    cells["rw10k_slots_per_sec"] = _waypoint_throughput(
        RandomWaypointScenario(n_nodes=10_000, seed=SEED), slots_10k, reps=1
    )
    return cells


def bench_engine_slot_throughput(benchmark):
    slots = scaled(20_000, minimum=2_000)
    slots_1k = scaled(12_000, minimum=1_200)
    slots_10k = scaled(2_000, minimum=200)

    def run():
        cells = _paper_topology_cells(slots)
        cells.update(_large_topology_cells(slots_1k, slots_10k))
        cells["slots"] = slots
        cells["rw1k_slots"] = slots_1k
        cells["rw10k_slots"] = slots_10k
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for label in ("grid56", "random112"):
        bare = cells[f"{label}_slots_per_sec"]
        metered = cells[f"{label}_metrics_slots_per_sec"]
        overhead = (bare / metered - 1.0) * 100 if metered else float("inf")
        print(
            f"engine {label}: {bare:,.0f} slots/s bare, "
            f"{metered:,.0f} with metrics ({overhead:+.1f}% overhead)"
        )
    print(
        f"engine rw1k: {cells['rw1k_grid_slots_per_sec']:,.0f} slots/s grid, "
        f"{cells['rw1k_brute_slots_per_sec']:,.0f} all-pairs "
        f"({cells['rw1k_speedup']:.1f}x)"
    )
    print(f"engine rw10k: {cells['rw10k_slots_per_sec']:,.0f} slots/s grid")
    write_bench_manifest(
        "engine",
        cells,
        seed=SEED,
        config={
            "load": LOAD,
            "slots": slots,
            "epoch_interval_s": RW_EPOCH_INTERVAL_S,
            "slots_1k": slots_1k,
            "slots_10k": slots_10k,
        },
    )

    # Non-degenerate throughput on any plausible host; the real numbers
    # are tracked via the manifest, not asserted.
    assert cells["grid56_slots_per_sec"] > 1_000
    assert cells["random112_slots_per_sec"] > 1_000
    # The metrics listener must stay cheap enough to leave on.
    assert (
        cells["random112_metrics_slots_per_sec"]
        > cells["random112_slots_per_sec"] * 0.2
    )
    # The spatial index must beat the all-pairs scan decisively at
    # 1,000 nodes (CI re-asserts this from the manifest), and the
    # 10,000-node topology must complete with non-degenerate progress.
    assert cells["rw1k_speedup"] >= 5.0
    assert cells["rw10k_slots_per_sec"] > 0
