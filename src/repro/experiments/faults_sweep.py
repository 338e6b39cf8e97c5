"""Impairment sweep: detection vs. false accusation under channel faults.

The detection figures assume monitors decode every tagged RTS they are
in range of.  Real channels do not cooperate, and :mod:`repro.faults`
lets us dial that in: this sweep raises the monitor-side decode-failure
probability from 0 to 0.5 and, at each intensity, measures

* the detection probability against a PM cheater (how much statistical
  power survives the thinner, gappier sample stream), and
* the false-accusation behavior against an honest sender — the
  deterministic verifiers must stay silent (a quarantined observation
  never feeds them) and the hypothesis-test false-alarm rate must stay
  near ``alpha``.

Honest and cheating runs share seeds at every sweep point, so the two
curves differ only in the sender's back-off policy.  Each trial
installs its own fault spec (via :func:`repro.faults.runtime.
set_fault_spec`) and the schedule's draws are pure hashes, so the sweep
is deterministic for any ``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import run_trials
from repro.experiments.reporting import format_series
from repro.experiments.runner import (
    collect_detection_samples,
    windowed_detection_rate,
)
from repro.experiments.scenarios import GridScenario
from repro.util.fidelity import scaled
from repro.util.units import Seconds

#: Monitor-side decode-failure probabilities swept by default.
DEFAULT_DECODE_SWEEP = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

#: Seed of the fault schedule itself (distinct from the scenario seed).
DEFAULT_FAULT_SEED = 101


@dataclass(frozen=True)
class FaultSweepPoint:
    """One impairment intensity: paired honest/cheater outcomes.

    ``false_accusations`` counts deterministic violations raised against
    the *honest* sender across all runs at this intensity — the sweep's
    soundness check, expected to be exactly zero no matter how hard the
    channel is impaired.  ``quarantine_reasons`` pools the audit reason
    codes over both roles as sorted (reason, count) pairs.
    """

    decode: float
    pm: int
    detection_probability: float
    combined_probability: float
    windows: int
    cheater_samples: int
    cheater_quarantined: int
    false_alarm_probability: float
    honest_windows: int
    honest_samples: int
    honest_quarantined: int
    false_accusations: int
    quarantine_reasons: Tuple[Tuple[str, int], ...]


def fault_spec_text(decode: float, fault_seed: int = DEFAULT_FAULT_SEED) -> Optional[str]:
    """The ``--faults`` spec string for one sweep intensity (None = clean)."""
    if decode <= 0:
        return None
    return f"decode={decode:.4f},seed={fault_seed}"


def fault_trial(task: Tuple[Any, ...]) -> Dict[str, Any]:
    """One seeded run under an installed fault spec (picklable task).

    ``task`` is ``(load, pm, seed, spec_text, target_samples,
    max_duration_s, sample_size, alpha)``.  Installs ``spec_text`` for
    the duration of the run (restoring the previous spec after), so the
    trial is self-contained whether it executes serially or in a forked
    worker.  Returns a compact summary dict rather than the detector —
    cheap to pickle, and everything the sweep aggregates.
    """
    load, pm, seed, spec_text, target, max_duration_s, sample_size, alpha = task
    from repro.faults.runtime import installed_spec, set_fault_spec

    previous = installed_spec()
    set_fault_spec(spec_text)
    try:
        scenario = GridScenario(load=load, traffic="poisson", seed=seed)
        detector = collect_detection_samples(
            scenario,
            pm,
            target_samples=target,
            max_duration_s=max_duration_s,
        )
    finally:
        set_fault_spec(previous)
    stat_rate, windows = windowed_detection_rate(
        detector, sample_size, alpha=alpha, include_deterministic=False
    )
    combined_rate, _ = windowed_detection_rate(
        detector, sample_size, alpha=alpha, include_deterministic=True
    )
    return {
        "samples": detector.observation_count,
        "quarantined": dict(detector.quarantine_counts),
        "violations": len(detector.violations),
        "stat_rate": stat_rate,
        "combined_rate": combined_rate,
        "windows": windows,
    }


def run_fault_sweep(
    decode_probs: Sequence[float] = DEFAULT_DECODE_SWEEP,
    pm: int = 60,
    load: float = 0.6,
    sample_size: int = 25,
    alpha: float = 0.05,
    base_seed: int = 29,
    fault_seed: int = DEFAULT_FAULT_SEED,
    runs: Optional[int] = None,
    target_samples: Optional[int] = None,
    max_duration_s: Seconds = 120.0,
    jobs: Optional[int] = None,
) -> List[FaultSweepPoint]:
    """One :class:`FaultSweepPoint` per decode-failure probability.

    At every intensity the same seeds run twice — once honest, once
    with the PM cheat — so the detection and false-accusation curves
    are a paired comparison.  Trials execute on the process pool
    (``jobs``/``--jobs``/``REPRO_JOBS``) with identical results for any
    worker count.
    """
    runs = runs if runs is not None else scaled(2)
    target = (
        target_samples if target_samples is not None else sample_size * scaled(4)
    )
    tasks = []
    for p in decode_probs:
        spec = fault_spec_text(p, fault_seed)
        for role_pm in (0, pm):
            for run_index in range(runs):
                seed = base_seed + 7919 * run_index + int(round(p * 1000))
                tasks.append(
                    (load, role_pm, seed, spec, target, max_duration_s,
                     sample_size, alpha)
                )
    summaries = run_trials(fault_trial, tasks, jobs=jobs)
    points = []
    per_point = 2 * runs
    for index, p in enumerate(decode_probs):
        block = summaries[index * per_point : (index + 1) * per_point]
        honest, cheater = block[:runs], block[runs:]
        reasons: Dict[str, int] = {}
        for summary in block:
            for reason, count in summary["quarantined"].items():
                reasons[reason] = reasons.get(reason, 0) + count
        points.append(
            FaultSweepPoint(
                decode=p,
                pm=pm,
                detection_probability=_pooled(cheater, "stat_rate"),
                combined_probability=_pooled(cheater, "combined_rate"),
                windows=sum(s["windows"] for s in cheater),
                cheater_samples=sum(s["samples"] for s in cheater),
                cheater_quarantined=sum(
                    sum(s["quarantined"].values()) for s in cheater
                ),
                false_alarm_probability=_pooled(honest, "combined_rate"),
                honest_windows=sum(s["windows"] for s in honest),
                honest_samples=sum(s["samples"] for s in honest),
                honest_quarantined=sum(
                    sum(s["quarantined"].values()) for s in honest
                ),
                false_accusations=sum(s["violations"] for s in honest),
                quarantine_reasons=tuple(sorted(reasons.items())),
            )
        )
    return points


def _pooled(summaries: Sequence[Dict[str, Any]], key: str) -> float:
    """Window-weighted pooling of a per-run rate (nan if no windows)."""
    hits = 0.0
    total = 0
    for summary in summaries:
        if summary["windows"]:
            hits += summary[key] * summary["windows"]
            total += summary["windows"]
    return hits / total if total else float("nan")


def render_sweep(points: Sequence[FaultSweepPoint], title: str = "Fault sweep: detection vs. impairment") -> str:
    decode_values = [p.decode for p in points]
    pm = points[0].pm if points else 0
    series = {
        f"P(detect) pm={pm}": [p.combined_probability for p in points],
        "P(false alarm)": [p.false_alarm_probability for p in points],
    }
    return format_series(title, "decode", decode_values, series)


def main() -> List[FaultSweepPoint]:
    points = run_fault_sweep()
    print(render_sweep(points))
    return points


if __name__ == "__main__":
    main()
