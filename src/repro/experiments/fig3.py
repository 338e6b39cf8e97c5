"""Figure 3: conditional channel-view probabilities, grid + Poisson.

(a) p(S busy | R idle) and (b) p(S idle | R busy) versus traffic
intensity: the "Simulation" series is measured from ground-truth joint
busy/idle processes at S and R; the "Analysis" series evaluates paper
eqs. 3-4 at the measured traffic intensity with n = k = 5 (the values
the paper fixes for the grid).

The paper sweeps traffic intensity 0.1-0.8 and observes each point over
50,000 slots, averaged over 20 runs.  We sweep the per-flow offered
load and *measure* the resulting intensity at the monitor, so the x
axis is the realized rho — the quantity the equations are defined on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.observation import ChannelObserver, joint_state_counts
from repro.core.sysstate import SystemStateEstimator
from repro.experiments.parallel import run_trials
from repro.experiments.reporting import format_table
from repro.experiments.runner import split_seeds
from repro.experiments.scenarios import GridScenario, RandomScenario
from repro.geometry.regions import RegionModel
from repro.util.fidelity import scaled
from repro.util.units import Meters, Slots

ScenarioFactory = Callable[[float, int], Any]

#: Offered per-flow loads chosen so measured intensity spans ~0.1-0.85.
DEFAULT_LOAD_SWEEP = (0.005, 0.01, 0.02, 0.04, 0.08, 0.15, 0.3, 0.6)


@dataclass(frozen=True)
class ProbabilityPoint:
    """One x-axis point of Figure 3/4."""

    offered_load: float
    rho: float                 # measured traffic intensity at the monitor
    sim_p_busy_given_idle: float
    ana_p_busy_given_idle: float
    sim_p_idle_given_busy: float
    ana_p_idle_given_busy: float


def _measure_seed(task: Tuple[Any, ...]) -> Optional[Tuple[float, float, float]]:
    """One seeded observation run: measured (rho, p(B|I), p(I|B)).

    ``task`` is ``(scenario_factory, load, seed, observe_slots)``.
    Returns ``None`` when the run is unusable (a degenerate channel
    with no busy or no idle slots at the monitor).
    """
    scenario_factory, load, seed, observe_slots = task
    scenario = scenario_factory(load, seed)
    sim, sender, monitor = scenario.build()
    obs_r = ChannelObserver(monitor, sender)
    obs_s = ChannelObserver(sender, monitor)
    sim.add_listener(obs_r)
    sim.add_listener(obs_s)
    sim.run_slots(observe_slots)
    counts = joint_state_counts(obs_r, obs_s, 0, sim.engine.now)
    total = sum(counts.values())
    r_idle = counts["II"] + counts["IB"]
    r_busy = counts["BI"] + counts["BB"]
    if total == 0 or r_idle == 0 or r_busy == 0:
        return None
    return (r_busy / total, counts["IB"] / r_idle, counts["BI"] / r_busy)


def _aggregate_point(
    load: float,
    samples: Sequence[Optional[Tuple[float, float, float]]],
    n: int = 5,
    k: int = 5,
    separation: Meters = 240.0,
) -> ProbabilityPoint:
    """Average per-seed samples (in seed order) into a ProbabilityPoint."""
    estimator = SystemStateEstimator(RegionModel(separation=separation))
    sums = {"rho": 0.0, "sbi": 0.0, "sib": 0.0}
    used = 0
    for sample in samples:
        if sample is None:
            continue
        rho, sbi, sib = sample
        sums["rho"] += rho
        sums["sbi"] += sbi
        sums["sib"] += sib
        used += 1
    if used == 0:
        raise RuntimeError(f"no usable runs at load {load}")
    rho = sums["rho"] / used
    probs = estimator.probabilities(rho, n, k)
    return ProbabilityPoint(
        offered_load=load,
        rho=rho,
        sim_p_busy_given_idle=sums["sbi"] / used,
        ana_p_busy_given_idle=probs.p_busy_given_idle,
        sim_p_idle_given_busy=sums["sib"] / used,
        ana_p_idle_given_busy=probs.p_idle_given_busy,
    )


def run_probability_sweep(
    scenario_factory: ScenarioFactory,
    loads: Sequence[float] = DEFAULT_LOAD_SWEEP,
    runs: Optional[int] = None,
    observe_slots: Optional[Slots] = None,
    base_seed: int = 3,
    separation: Meters = 240.0,
    jobs: Optional[int] = None,
) -> List[ProbabilityPoint]:
    """The full Figure 3/4 sweep; returns a list of ProbabilityPoint.

    All (load, seed) trials are flattened into one task list so the
    process pool (``jobs``/``REPRO_JOBS``, see
    :mod:`repro.experiments.parallel`) stays saturated across the
    whole sweep; per-load aggregation order matches the serial loop,
    so the points are identical for any worker count.
    """
    runs = runs if runs is not None else scaled(4)
    observe_slots = observe_slots if observe_slots is not None else scaled(
        25_000, minimum=5_000
    )
    tasks: List[Tuple[Any, ...]] = []
    spans = []
    for load in loads:
        seeds = split_seeds(base_seed + int(load * 10_000), runs)
        start = len(tasks)
        tasks.extend(
            (scenario_factory, load, seed, observe_slots) for seed in seeds
        )
        spans.append((load, start, len(tasks)))
    samples = run_trials(_measure_seed, tasks, jobs=jobs)
    return [
        _aggregate_point(load, samples[start:stop], separation=separation)
        for load, start, stop in spans
    ]


def grid_poisson_factory(load: float, seed: int) -> GridScenario:
    return GridScenario(load=load, traffic="poisson", seed=seed)


def run_fig3(**kwargs: Any) -> List[ProbabilityPoint]:
    """Figure 3 (both panels): Poisson traffic, grid topology."""
    return run_probability_sweep(grid_poisson_factory, **kwargs)


def render_points(title: str, points: Sequence[ProbabilityPoint]) -> str:
    rows = [
        (
            p.offered_load,
            p.rho,
            p.sim_p_busy_given_idle,
            p.ana_p_busy_given_idle,
            p.sim_p_idle_given_busy,
            p.ana_p_idle_given_busy,
        )
        for p in points
    ]
    return format_table(
        title,
        ["offered", "rho", "sim p(B|I)", "ana p(B|I)", "sim p(I|B)", "ana p(I|B)"],
        rows,
    )


def main() -> List[ProbabilityPoint]:
    points = run_fig3()
    print(render_points("Figure 3: grid topology, Poisson traffic", points))
    return points


if __name__ == "__main__":
    main()
