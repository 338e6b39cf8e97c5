"""Figure 6: probability of misdiagnosis (false alarms) vs. sample size.

All nodes — including the tagged sender — are honest; every window that
diagnoses "malicious" is a misdiagnosis.  Panel (a): static grid at
loads 0.3 / 0.6 / 0.9.  Panel (b): mobile random-waypoint network at
load 0.6.  The paper reports the maximum misdiagnosis probability just
below 0.01 at sample size 10, falling with larger windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.experiments.fig5 import (
    SAMPLE_SIZES,
    ScenarioFactory,
    grid_factory,
    mobile_factory,
)
from repro.experiments.parallel import run_trials
from repro.experiments.reporting import format_series
from repro.experiments.runner import detection_trial, windowed_detection_rate
from repro.util.fidelity import scaled
from repro.util.units import Seconds

DEFAULT_LOADS = (0.3, 0.6, 0.9)


@dataclass(frozen=True)
class MisdiagnosisPoint:
    """False-alarm probability for one (load, sample size)."""

    load: float
    sample_size: int
    misdiagnosis_probability: float
    windows: int


def run_misdiagnosis_curve(
    scenario_factory: ScenarioFactory,
    load: float,
    sample_sizes: Sequence[int] = SAMPLE_SIZES,
    windows: Optional[int] = None,
    alpha: float = 0.05,
    base_seed: int = 23,
    max_duration_s: Seconds = 300.0,
    runs: Optional[int] = None,
    jobs: Optional[int] = None,
) -> List[MisdiagnosisPoint]:
    """Misdiagnosis probability across sample sizes for one load.

    Pools windows across ``runs`` independent seeds (the paper's
    probabilities are averages over repeated runs); the seeded runs
    execute on the process pool (``jobs``/``REPRO_JOBS``).
    """
    windows = windows if windows is not None else scaled(10)
    runs = runs if runs is not None else scaled(3)
    target = windows * max(sample_sizes)
    tasks = [
        (
            scenario_factory,
            load,
            0,  # pm: everyone honest — every diagnosis is a misdiagnosis
            base_seed + 1000 * run_index,
            target,
            max_duration_s,
        )
        for run_index in range(runs)
    ]
    detectors = run_trials(detection_trial, tasks, jobs=jobs)
    points = []
    for size in sample_sizes:
        hits = 0.0
        total_windows = 0
        for detector in detectors:
            rate, n_windows = windowed_detection_rate(
                detector, size, alpha=alpha, include_deterministic=False
            )
            if n_windows:
                hits += rate * n_windows
                total_windows += n_windows
        pooled = hits / total_windows if total_windows else float("nan")
        points.append(
            MisdiagnosisPoint(
                load=load,
                sample_size=size,
                misdiagnosis_probability=pooled,
                windows=total_windows,
            )
        )
    return points


def run_fig6_static(loads: Sequence[float] = DEFAULT_LOADS, **kwargs: Any) -> Dict[float, List[MisdiagnosisPoint]]:
    """Panel (a): static grid, one curve per load."""
    return {
        load: run_misdiagnosis_curve(grid_factory, load, **kwargs)
        for load in loads
    }


def run_fig6_mobile(load: float = 0.6, **kwargs: Any) -> List[MisdiagnosisPoint]:
    """Panel (b): mobile scenario at load 0.6."""
    return run_misdiagnosis_curve(mobile_factory, load, **kwargs)


def render_curves(title: str, curves: Mapping[float, Sequence[MisdiagnosisPoint]]) -> str:
    sizes = sorted({p.sample_size for points in curves.values() for p in points})
    series: Dict[str, List[float]] = {}
    for load, points in curves.items():
        by_size = {p.sample_size: p.misdiagnosis_probability for p in points}
        series[f"load={load}"] = [by_size.get(s, float("nan")) for s in sizes]
    return format_series(title, "sample size", sizes, series)


def main() -> Dict[float, List[MisdiagnosisPoint]]:
    static = run_fig6_static()
    print(render_curves("Figure 6(a): P(misdiagnosis), static grid", static))
    mobile = run_fig6_mobile()
    print(
        render_curves(
            "Figure 6(b): P(misdiagnosis), mobile", {0.6: mobile}
        )
    )
    return static


if __name__ == "__main__":
    main()
