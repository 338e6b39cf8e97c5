"""Determinism of repro.experiments.parallel under any worker count."""

import json
import multiprocessing.pool

import pytest

from repro.experiments.fig3 import grid_poisson_factory, run_probability_sweep
from repro.experiments.fig5 import grid_factory, run_detection_curve
from repro.experiments.parallel import run_trials
from repro.obs.runtime import (
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    reset_metrics,
    shared_registry,
)
from repro.util.pool import JOBS_ENV, fork_map, resolve_jobs, set_default_jobs


def _square(task):
    return task * task


def _instrumented(task):
    """A trial that feeds the metrics registry like a real engine run."""
    if metrics_enabled():
        registry = shared_registry()
        registry.inc("trial.count")
        registry.observe("trial.value", task)
        registry.set_gauge("trial.last", task)
    return task + 1


def _unpicklable_result(task):
    return lambda: task


def _nested(task):
    """A trial that itself calls run_trials (must degrade to serial)."""
    return run_trials(_square, [task, task + 1], jobs=4)


@pytest.fixture(autouse=True)
def _clear_default_jobs():
    yield
    set_default_jobs(None)


class TestRunTrials:
    def test_results_in_task_order(self):
        items = list(range(12))
        expected = [i * i for i in items]
        assert run_trials(_square, items, jobs=1) == expected
        assert run_trials(_square, items, jobs=2) == expected
        assert run_trials(_square, items, jobs=4) == expected

    def test_empty_items(self):
        assert run_trials(_square, [], jobs=4) == []

    def test_unpicklable_item_falls_back_to_serial(self):
        items = [3, lambda: 4]  # the lambda cannot cross the pipe

        def fn(item):
            return item() if callable(item) else item

        # fn is a closure (unpicklable too) — fork would tolerate it,
        # but the item forces the serial path either way.
        assert run_trials(fn, items, jobs=2) == [3, 4]

    def test_unpicklable_result_falls_back_to_serial(self):
        results = run_trials(_unpicklable_result, [1, 2], jobs=2)
        assert [r() for r in results] == [1, 2]

    def test_nested_call_runs_serially(self):
        assert run_trials(_nested, [2, 5], jobs=2) == [[4, 9], [25, 36]]


class TestForkMapErrors:
    @pytest.mark.parametrize("error", [TypeError, AttributeError])
    def test_trial_error_propagates_once_without_rerun(self, error, tmp_path):
        """A bug inside a trial is not a pool setup failure: it surfaces
        once, with the worker traceback, and no item runs twice."""
        calls = tmp_path / "calls.txt"

        def trial(item):
            with open(calls, "a") as fh:
                fh.write(f"{item}\n")
            if item == 3:
                raise error("trial bug")
            return item

        with pytest.raises(error, match="trial bug") as excinfo:
            fork_map(trial, range(6), jobs=2)
        ran = calls.read_text().split()
        assert "3" in ran
        assert len(ran) == len(set(ran)), f"items re-ran: {ran}"
        assert isinstance(
            excinfo.value.__cause__, multiprocessing.pool.RemoteTraceback
        )


class TestJobsResolution:
    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs() == 3

    def test_argument_beats_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        set_default_jobs(2)
        assert resolve_jobs() == 2
        assert resolve_jobs(5) == 5

    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) >= 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs()


class TestMetricsMerging:
    def _snapshot_for(self, jobs):
        reset_metrics()
        enable_metrics()
        try:
            results = run_trials(_instrumented, [5.0, 1.0, 9.0, 2.0], jobs=jobs)
            snapshot = shared_registry().snapshot()
        finally:
            disable_metrics()
            reset_metrics()
        return results, json.dumps(snapshot, sort_keys=True)

    def test_snapshots_identical_across_worker_counts(self):
        serial = self._snapshot_for(1)
        assert self._snapshot_for(2) == serial
        assert self._snapshot_for(4) == serial
        snapshot = json.loads(serial[1])
        assert snapshot["counters"]["trial.count"] == 4
        assert snapshot["histograms"]["trial.value"]["count"] == 4
        assert snapshot["histograms"]["trial.value"]["min"] == 1.0
        assert snapshot["histograms"]["trial.value"]["max"] == 9.0
        # Gauges are last-write-wins in task order, like the serial run.
        assert snapshot["gauges"]["trial.last"] == 2.0


class TestSweepEquivalence:
    def test_fig3_points_identical(self):
        kwargs = dict(loads=(0.05, 0.3), runs=2, observe_slots=3_000)
        serial = run_probability_sweep(grid_poisson_factory, jobs=1, **kwargs)
        assert run_probability_sweep(grid_poisson_factory, jobs=2, **kwargs) == serial
        assert run_probability_sweep(grid_poisson_factory, jobs=4, **kwargs) == serial

    def test_fig5_verdicts_identical(self):
        kwargs = dict(
            pm_values=(60,),
            sample_sizes=(10,),
            windows=2,
            runs=2,
            max_duration_s=20.0,
        )
        serial = run_detection_curve(grid_factory, 0.6, jobs=1, **kwargs)
        assert run_detection_curve(grid_factory, 0.6, jobs=2, **kwargs) == serial
        assert run_detection_curve(grid_factory, 0.6, jobs=4, **kwargs) == serial
