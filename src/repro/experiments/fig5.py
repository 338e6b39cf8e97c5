"""Figure 5: probability of correct diagnosis vs. percentage of misbehavior.

Panels (a)-(c): static grid at loads 0.3 / 0.6 / 0.9, sample sizes
{10, 25, 50, 100}.  Panel (d): mobile random-waypoint network at load
0.6.  For each (load, PM) the sender S runs the PM timer cheat; the
monitor R collects back-off samples and every non-overlapping window of
``sample size`` observations yields one diagnosis (hypothesis-test
rejection, or a deterministic violation within the window).  The
reported probability is the fraction of windows that correctly diagnose
S — the paper's per-run detection probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.parallel import run_trials
from repro.experiments.reporting import format_series
from repro.experiments.runner import detection_trial, windowed_detection_rate
from repro.experiments.scenarios import GridScenario, RandomScenario
from repro.util.fidelity import scaled
from repro.util.units import Seconds

ScenarioFactory = Callable[[float, int], Any]

SAMPLE_SIZES = (10, 25, 50, 100)
DEFAULT_PM_SWEEP = (10, 25, 40, 50, 65, 80, 100)
DEFAULT_LOADS = (0.3, 0.6, 0.9)


@dataclass(frozen=True)
class DetectionPoint:
    """Detection probability for one (load, pm, sample size).

    ``detection_probability`` is the paper's measured quantity — the
    probability of the hypothesis test rejecting H0.  ``combined_probability``
    additionally counts windows in which a deterministic verifier fired
    (the full framework's diagnosis rate).
    """

    load: float
    pm: int
    sample_size: int
    detection_probability: float
    combined_probability: float
    windows: int
    violations: int


def run_detection_curve(
    scenario_factory: ScenarioFactory,
    load: float,
    pm_values: Sequence[int] = DEFAULT_PM_SWEEP,
    sample_sizes: Sequence[int] = SAMPLE_SIZES,
    windows: Optional[int] = None,
    alpha: float = 0.05,
    base_seed: int = 17,
    max_duration_s: Seconds = 300.0,
    runs: Optional[int] = None,
    jobs: Optional[int] = None,
) -> List[DetectionPoint]:
    """Detection probabilities for one load across PM and sample sizes.

    Pools non-overlapping windows across ``runs`` independent seeds, as
    the paper averages its detection probabilities over repeated runs.
    The (pm, run) trials execute on the process pool
    (``jobs``/``REPRO_JOBS``); seeds and window pooling are unchanged,
    so the points match the serial sweep exactly.
    """
    windows = windows if windows is not None else scaled(6)
    runs = runs if runs is not None else scaled(2)
    target = windows * max(sample_sizes)
    tasks = [
        (
            scenario_factory,
            load,
            pm,
            base_seed + pm + 1000 * run_index,
            target,
            max_duration_s,
        )
        for pm in pm_values
        for run_index in range(runs)
    ]
    all_detectors = run_trials(detection_trial, tasks, jobs=jobs)
    points = []
    for pm_index, pm in enumerate(pm_values):
        detectors = all_detectors[pm_index * runs : (pm_index + 1) * runs]
        violations = sum(len(d.violations) for d in detectors)
        for size in sample_sizes:
            stat_hits = 0.0
            combined_hits = 0.0
            total_windows = 0
            for detector in detectors:
                stat_rate, n_windows = windowed_detection_rate(
                    detector, size, alpha=alpha, include_deterministic=False
                )
                combined_rate, _ = windowed_detection_rate(
                    detector, size, alpha=alpha, include_deterministic=True
                )
                if n_windows:
                    stat_hits += stat_rate * n_windows
                    combined_hits += combined_rate * n_windows
                    total_windows += n_windows
            points.append(
                DetectionPoint(
                    load=load,
                    pm=pm,
                    sample_size=size,
                    detection_probability=(
                        stat_hits / total_windows if total_windows else float("nan")
                    ),
                    combined_probability=(
                        combined_hits / total_windows
                        if total_windows
                        else float("nan")
                    ),
                    windows=total_windows,
                    violations=violations,
                )
            )
    return points


def grid_factory(load: float, seed: int) -> GridScenario:
    return GridScenario(load=load, traffic="poisson", seed=seed)


def mobile_factory(load: float, seed: int) -> RandomScenario:
    return RandomScenario(load=load, traffic="cbr", mobile=True, seed=seed)


def run_fig5_static(loads: Sequence[float] = DEFAULT_LOADS, **kwargs: Any) -> Dict[float, List[DetectionPoint]]:
    """Panels (a)-(c): one detection curve per load, static grid."""
    return {load: run_detection_curve(grid_factory, load, **kwargs) for load in loads}


def run_fig5_mobile(load: float = 0.6, **kwargs: Any) -> List[DetectionPoint]:
    """Panel (d): the mobile scenario at load 0.6."""
    return run_detection_curve(mobile_factory, load, **kwargs)


def render_curve(
    title: str,
    points: Sequence[DetectionPoint],
    sample_sizes: Sequence[int] = SAMPLE_SIZES,
    combined: bool = False,
) -> str:
    pm_values = sorted({p.pm for p in points})
    series: Dict[str, List[float]] = {}
    for size in sample_sizes:
        by_pm = {
            p.pm: (
                p.combined_probability if combined else p.detection_probability
            )
            for p in points
            if p.sample_size == size
        }
        series[f"s={size}"] = [by_pm.get(pm, float("nan")) for pm in pm_values]
    return format_series(title, "PM", pm_values, series)


def main() -> Dict[float, List[DetectionPoint]]:
    results = run_fig5_static()
    for load, points in results.items():
        print(render_curve(f"Figure 5: P(correct diagnosis), load={load}", points))
        print()
    mobile = run_fig5_mobile()
    print(render_curve("Figure 5(d): mobile scenario, load=0.6", mobile))
    return results


if __name__ == "__main__":
    main()
