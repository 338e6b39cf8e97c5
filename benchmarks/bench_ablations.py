"""Ablations of the design choices called out in DESIGN.md §5.

Each ablation runs the same grid detection scenario while flipping one
design decision, and prints the detection / false-alarm consequences:

- ARMA smoothing factor (paper: alpha = 0.995, claimed insensitive);
- region geometry: calibrated A5 union annulus vs the symmetric
  representative-crescent construction;
- rank-sum vs Welch-style t-test (the paper argues for the
  non-parametric test);
- one-sided vs two-sided alternative;
- n, k sensitivity (the paper: "these parameters do not play a
  significant role");
- deterministic layer on/off (what the verifiable PRS alone buys).
"""

from __future__ import annotations

import math

from repro.core.detector import DetectorConfig
from repro.core.ranksum import rank_sum_test
from repro.experiments.parallel import run_trials
from repro.experiments.runner import (
    collect_detection_samples,
    windowed_detection_rate,
)
from repro.experiments.scenarios import GridScenario
from repro.geometry.regions import RegionModel
from repro.mac.backoff import contention_window
from repro.obs.bench import write_bench_manifest
from repro.util.fidelity import scaled

SAMPLE_SIZE = 25
PM = 50
LOAD = 0.6


def _collect(pm, seed, detector_config=None):
    scenario = GridScenario(load=LOAD, seed=seed)
    return collect_detection_samples(
        scenario,
        pm,
        detector_config=detector_config,
        target_samples=scaled(40) * SAMPLE_SIZE,
        max_duration_s=240.0,
    )


def _collect_trial(task):
    """Picklable (pm, seed, detector_config) task for ``run_trials``."""
    pm, seed, detector_config = task
    return _collect(pm, seed, detector_config)


def _rates(detector):
    hit, _ = windowed_detection_rate(
        detector, SAMPLE_SIZE, include_deterministic=False
    )
    return hit


def bench_ablation_arma_alpha(benchmark):
    """Detection should be insensitive to alpha near 1 (paper claim)."""

    def run():
        alphas = (0.9, 0.995, 0.9995)
        detectors = run_trials(
            _collect_trial,
            [
                (
                    PM,
                    71,
                    DetectorConfig(
                        sample_size=10_000, known_n=5, known_k=5,
                        arma_alpha=alpha,
                    ),
                )
                for alpha in alphas
            ],
        )
        return {
            alpha: _rates(det) for alpha, det in zip(alphas, detectors)
        }

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for alpha, rate in rates.items():
        print(f"ablation ARMA alpha={alpha}: detection rate {rate:.3f}")
    write_bench_manifest("ablation_arma_alpha", rates, seed=71)
    values = list(rates.values())
    assert max(values) - min(values) < 0.4, "detection should not hinge on alpha"


def bench_ablation_region_geometry(benchmark):
    """Union-annulus A5 (calibrated) vs symmetric crescent A5.

    The crescent variant overestimates p(I|B) several-fold, inflating
    the estimated back-offs; the honest false-alarm rate stays low for
    both (the test is one-sided) but the cheater's detection rate drops.
    """

    def run():
        variants = (
            ("union", RegionModel()),
            ("crescent", RegionModel(far_interferer_offset=250.0)),
        )
        detectors = run_trials(
            _collect_trial,
            [
                (
                    PM,
                    72,
                    DetectorConfig(
                        sample_size=10_000, known_n=5, known_k=5,
                        region_model=model,
                    ),
                )
                for _label, model in variants
            ],
        )
        return {
            label: _rates(det)
            for (label, _model), det in zip(variants, detectors)
        }

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for label, rate in rates.items():
        print(f"ablation A5 geometry={label}: detection rate {rate:.3f}")
    write_bench_manifest("ablation_region_geometry", rates, seed=72)
    assert rates["union"] >= rates["crescent"] - 0.1


def _welch_t_rate(detector, alpha=0.05):
    """Windowed one-sided Welch t-test (the parametric alternative the
    paper rejects)."""
    obs = [
        o
        for o in detector.observations
        if o.attempt <= detector.config.max_test_attempt
    ]
    detected = 0
    windows = 0
    for start in range(0, len(obs) - SAMPLE_SIZE + 1, SAMPLE_SIZE):
        w = obs[start : start + SAMPLE_SIZE]
        x = [o.dictated / (contention_window(o.attempt, 31, 1023) + 1) for o in w]
        y = [o.estimated / (contention_window(o.attempt, 31, 1023) + 1) for o in w]
        from scipy import stats

        t_res = stats.ttest_ind(y, x, equal_var=False, alternative="less")
        detected += 1 if t_res.pvalue < alpha else 0
        windows += 1
    return detected / windows if windows else float("nan")


def bench_ablation_ranksum_vs_ttest(benchmark):
    """Both tests detect; the rank-sum needs no normality assumption and
    the paper's argument is about its distribution-free validity."""

    def run():
        det = _collect(PM, seed=73)
        return _rates(det), _welch_t_rate(det)

    ranksum_rate, ttest_rate = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"ablation test statistic: rank-sum {ranksum_rate:.3f}, "
          f"Welch t {ttest_rate:.3f}")
    write_bench_manifest(
        "ablation_ranksum_vs_ttest",
        {"rank_sum": ranksum_rate, "welch_t": ttest_rate},
        seed=73,
    )
    assert ranksum_rate > 0.3


def bench_ablation_alternative(benchmark):
    """One-sided 'less' vs two-sided at the same alpha."""

    def run():
        det = _collect(PM, seed=74)
        one, _ = windowed_detection_rate(
            det, SAMPLE_SIZE, alternative="less", include_deterministic=False
        )
        two, _ = windowed_detection_rate(
            det, SAMPLE_SIZE, alternative="two-sided", include_deterministic=False
        )
        return one, two

    one, two = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"ablation alternative: one-sided {one:.3f}, two-sided {two:.3f}")
    write_bench_manifest(
        "ablation_alternative",
        {"one_sided": one, "two_sided": two},
        seed=74,
    )
    assert one >= two - 0.05  # one-sided is at least as powerful here


def bench_ablation_nk_sensitivity(benchmark):
    """The paper found higher n, k change little (the exponent saturates)."""

    def run():
        nk_values = (2, 5, 10)
        detectors = run_trials(
            _collect_trial,
            [
                (PM, 75, DetectorConfig(sample_size=10_000, known_n=nk, known_k=nk))
                for nk in nk_values
            ],
        )
        return {nk: _rates(det) for nk, det in zip(nk_values, detectors)}

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for nk, rate in rates.items():
        print(f"ablation n=k={nk}: detection rate {rate:.3f}")
    write_bench_manifest("ablation_nk_sensitivity", rates, seed=75)
    values = list(rates.values())
    assert max(values) - min(values) < 0.4


def bench_ablation_deterministic_layer(benchmark):
    """How much the verifiable-PRS deterministic layer adds on top of
    the statistical test."""

    def run():
        det = _collect(PM, seed=76)
        stat_only, _ = windowed_detection_rate(
            det, SAMPLE_SIZE, include_deterministic=False
        )
        combined, _ = windowed_detection_rate(
            det, SAMPLE_SIZE, include_deterministic=True
        )
        return stat_only, combined, len(det.violations)

    stat_only, combined, violations = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print()
    print(
        f"ablation deterministic layer: statistical-only {stat_only:.3f}, "
        f"combined {combined:.3f} ({violations} violations)"
    )
    write_bench_manifest(
        "ablation_deterministic_layer",
        {
            "statistical_only": stat_only,
            "combined": combined,
            "violations": violations,
        },
        seed=76,
    )
    assert combined >= stat_only
    assert not math.isnan(combined)
