"""Tests for the experiment harness (scaled to run quickly)."""

import math

import pytest

from repro.core.detector import DetectorConfig
from repro.core.ranksum import rank_sum_test
from repro.experiments import runner
from repro.experiments.config import TABLE1, Table1Config
from repro.experiments.fig3 import (
    grid_poisson_factory,
    render_points,
    run_probability_sweep,
)
from repro.experiments.fig5 import grid_factory, render_curve, run_detection_curve
from repro.experiments.fig6 import run_misdiagnosis_curve
from repro.experiments.reporting import format_series, format_table
from repro.experiments.runner import (
    collect_detection_samples,
    split_seeds,
    windowed_detection_rate,
)
from repro.experiments.scenarios import (
    GridScenario,
    RandomScenario,
    build_grid_simulation,
)
from repro.obs.provenance import ProvenanceLog
from repro.util.fidelity import fidelity_scale, scaled


class TestTable1:
    def test_rows_match_paper_values(self):
        rows = dict(TABLE1.rows())
        assert rows["Transmission range"] == "250m"
        assert rows["Sensing/Interference range"] == "550m"
        assert rows["Queue length"] == "50"
        assert rows["Packet size"] == "512 bytes"
        assert "56" in rows["Total number of nodes"]
        assert "112" in rows["Total number of nodes"]

    def test_render_contains_all_rows(self):
        text = TABLE1.render()
        for name, _value in TABLE1.rows():
            assert name in text

    def test_custom_config(self):
        cfg = Table1Config(nodes_grid=30)
        assert "30" in dict(cfg.rows())["Total number of nodes"]


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.5000" in text

    def test_format_table_validates_width(self):
        with pytest.raises(ValueError):
            format_table("T", ["a"], [[1, 2]])

    def test_format_series(self):
        text = format_series("S", "x", [1, 2], {"y1": [0.1, 0.2], "y2": [0.3, 0.4]})
        assert "y1" in text and "y2" in text
        assert "0.4000" in text


class TestRunnerHelpers:
    def test_fidelity_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert fidelity_scale() == 1.0

    def test_fidelity_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert fidelity_scale() == 2.5
        assert scaled(4) == 10

    def test_fidelity_scale_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "lots")
        with pytest.raises(ValueError):
            fidelity_scale()

    def test_scaled_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        assert scaled(3) >= 1

    def test_fidelity_cache_tracks_env_changes(self, monkeypatch):
        from repro.util.fidelity import reset_fidelity_cache

        monkeypatch.setenv("REPRO_SCALE", "2.0")
        assert fidelity_scale() == 2.0
        # The cache keys on the raw env string, so a changed env is
        # picked up without an explicit reset ...
        monkeypatch.setenv("REPRO_SCALE", "3.0")
        assert fidelity_scale() == 3.0
        # ... and the explicit reset is available for test isolation.
        reset_fidelity_cache()
        assert fidelity_scale() == 3.0

    def test_split_seeds_distinct(self):
        seeds = split_seeds(5, 10)
        assert len(set(seeds)) == 10


class TestScenarios:
    def test_grid_scenario_builds(self):
        sim, sender, monitor = GridScenario(load=0.5, seed=2).build()
        assert sender in sim.macs and monitor in sim.macs
        assert len(sim.macs) == 56
        assert len(sim.flows) == 30
        sources = {f.source for f in sim.flows}
        assert sender in sources
        assert monitor not in sources

    def test_sender_flow_targets_monitor(self):
        sim, sender, monitor = GridScenario(seed=2).build()
        sender_flow = next(f for f in sim.flows if f.source == sender)
        assert sender_flow.destination == monitor

    def test_random_scenario_builds(self):
        scenario = RandomScenario(seed=4)
        sim, sender, monitor = scenario.build()
        assert len(sim.macs) == 112
        assert scenario.separation > 0

    def test_mobile_scenario_builds(self):
        sim, _sender, _monitor = RandomScenario(seed=4, mobile=True).build()
        assert not sim.mobility.is_static

    def test_build_grid_simulation_wrapper(self):
        sim, sender, monitor = build_grid_simulation(load=0.4, seed=1)
        assert sender != monitor


class TestDetectionPipeline:
    @pytest.fixture(scope="class")
    def honest_samples(self):
        scenario = GridScenario(load=0.6, seed=31, rows=5, cols=6, n_pairs=14)
        return collect_detection_samples(
            scenario, pm=0, target_samples=100, max_duration_s=60.0
        )

    def test_collect_reaches_target(self, honest_samples):
        assert len(honest_samples.observations) >= 100

    def test_windowed_rate_honest_low(self, honest_samples):
        rate, windows = windowed_detection_rate(honest_samples, 20)
        assert windows >= 3
        assert rate <= 0.35  # small-sample noise allowance

    def test_windowed_rate_requires_enough_samples(self, honest_samples):
        rate, windows = windowed_detection_rate(honest_samples, 10_000)
        assert math.isnan(rate)
        assert windows == 0

    @pytest.mark.parametrize("normalize", [True, False])
    def test_windowed_rate_ranks_the_detectors_samples(self, normalize, monkeypatch):
        """The experiments rank exactly the (x, y) the detector ranked."""
        provenance = ProvenanceLog()
        config = DetectorConfig(
            sample_size=25, known_n=5, known_k=5, normalize_by_cw=normalize
        )
        detector = collect_detection_samples(
            GridScenario(seed=3),
            pm=50,
            detector_config=config,
            target_samples=30,
            max_duration_s=20.0,
            provenance=provenance,
        )
        ranked = []

        def spy(x, y, alternative):
            ranked.append((list(x), list(y)))
            return rank_sum_test(x, y, alternative)

        monkeypatch.setattr(runner, "rank_sum_test", spy)
        windowed_detection_rate(detector, 25)
        first = next(r for r in provenance if r.rule == "rank_sum")
        assert ranked[0] == (first.dictated, first.estimated)

    def test_cheater_detected(self):
        scenario = GridScenario(load=0.6, seed=33, rows=5, cols=6, n_pairs=14)
        detector = collect_detection_samples(
            scenario, pm=70, target_samples=60, max_duration_s=30.0
        )
        rate, windows = windowed_detection_rate(detector, 20)
        assert windows >= 1
        assert rate > 0.6


class TestFigureRunners:
    def test_fig3_sweep_small(self):
        points = run_probability_sweep(
            grid_poisson_factory,
            loads=(0.02, 0.2),
            runs=1,
            observe_slots=6_000,
        )
        assert len(points) == 2
        assert points[0].rho < points[1].rho
        text = render_points("t", points)
        assert "rho" in text

    def test_fig5_curve_small(self):
        points = run_detection_curve(
            grid_factory,
            0.6,
            pm_values=(80,),
            sample_sizes=(10,),
            windows=2,
            max_duration_s=30.0,
        )
        assert len(points) == 1
        assert points[0].detection_probability > 0.5
        assert "PM" in render_curve("t", points, sample_sizes=(10,))

    def test_fig6_curve_small(self):
        points = run_misdiagnosis_curve(
            grid_factory,
            0.6,
            sample_sizes=(10,),
            windows=3,
            max_duration_s=30.0,
        )
        assert len(points) == 1
        assert points[0].misdiagnosis_probability <= 0.35
