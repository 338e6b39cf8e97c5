"""Tests for the observability subsystem (repro.obs).

Registry arithmetic and histogram bucketing, manifest round-trips,
audit-log JSONL schema, the metrics listener on a real simulation, and
the process-wide runtime switch the engine consults.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.obs import (
    AUDIT_RULES,
    AuditRecord,
    Counter,
    DecisionAuditLog,
    Gauge,
    Histogram,
    MetricsListener,
    MetricsRegistry,
    RunManifest,
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    reset_metrics,
    shared_registry,
    to_jsonable,
)
from repro.obs.audit import AUDIT_FIELDS


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Every test starts and ends with metrics off and a fresh registry."""
    disable_metrics()
    reset_metrics()
    yield
    disable_metrics()
    reset_metrics()


# -- registry -----------------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("x")
        g.set(3)
        g.set(7.5)
        assert g.value == 7.5


class TestHistogram:
    def test_bucketing_inclusive_upper_edges(self):
        h = Histogram("x", bounds=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 10.0, 11.0):
            h.observe(v)
        snap = h.snapshot()
        # 0.5 and 1.0 land in <=1; 3.0 in <=5; 10.0 in <=10; 11.0 overflows.
        assert snap["bounds"] == [1.0, 5.0, 10.0]
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["min"] == 0.5
        assert snap["max"] == 11.0
        assert snap["total"] == pytest.approx(25.5)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x", bounds=(5.0, 1.0))


class TestMetricsRegistry:
    def test_counter_reuse_and_snapshot_sorted(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a", 2)
        reg.inc("b")
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 2, "b": 2}
        assert list(snap["counters"]) == ["a", "b"]

    def test_gauge_and_histogram_conveniences(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 4)
        reg.histogram("h", bounds=(1.0, 3.0)).observe(2.0)
        snap = reg.snapshot()
        assert snap["gauges"] == {"g": 4}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["bounds"] == [1.0, 3.0]

    def test_histogram_bounds_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1.0, 3.0))

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.reset()
        assert len(reg) == 0
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_render_mentions_each_instrument(self):
        reg = MetricsRegistry()
        reg.inc("hits", 3)
        reg.set_gauge("level", 1.5)
        reg.observe("sizes", 2.0)
        text = reg.render()
        assert "hits = 3" in text
        assert "level = 1.5" in text
        assert "sizes" in text


# -- manifests ----------------------------------------------------------------


class TestToJsonable:
    def test_nan_and_inf_become_none(self):
        assert to_jsonable(float("nan")) is None
        assert to_jsonable(float("inf")) is None
        assert to_jsonable(1.5) == 1.5

    def test_tuples_sets_and_dict_keys(self):
        out = to_jsonable({0.6: (1, 2), "s": {3, 1}})
        assert out == {"0.6": [1, 2], "s": [1, 3]}


class TestRunManifest:
    def test_round_trip_write_load_equal(self, tmp_path):
        manifest = RunManifest(
            name="demo",
            seed=42,
            config={"pm": 60, "load": 0.6},
            repro_scale=1.0,
            duration_s=1.25,
            metrics={"counters": {"engine.slots": 10}},
            results={"points": [1, 2, 3]},
        )
        path = manifest.write(tmp_path / "run.json")
        assert RunManifest.load(path) == manifest

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing required keys"):
            RunManifest.from_dict({"schema": "repro.obs/manifest/v1"})

    def test_wrong_schema_rejected(self, tmp_path):
        path = RunManifest(name="x").write(tmp_path / "m.json")
        data = json.loads(path.read_text())
        data["schema"] = "other/v9"
        with pytest.raises(ValueError, match="unsupported manifest schema"):
            RunManifest.from_dict(data)

    def test_version_filled_from_package(self):
        from repro import __version__

        assert RunManifest(name="x").version == __version__

    def test_nan_results_survive_json(self, tmp_path):
        manifest = RunManifest(name="x", results={"rate": float("nan")})
        path = manifest.write(tmp_path / "m.json")
        assert json.loads(path.read_text())["results"]["rate"] is None


# -- audit log ----------------------------------------------------------------


def _record(rule="rank_sum", **kw):
    base = dict(
        slot=100,
        monitor=1,
        tagged=2,
        rule=rule,
        diagnosis="malicious",
        deterministic=rule != "rank_sum",
        detail="d",
    )
    base.update(kw)
    return AuditRecord(**base)


class TestAuditLog:
    def test_rule_vocabulary_fixed(self):
        assert AUDIT_RULES == (
            "seq_offset",
            "attempt_number",
            "blatant_countdown",
            "rank_sum",
            "quarantine",
        )

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            _record(rule="hunch")

    def test_jsonl_schema_and_round_trip(self, tmp_path):
        log = DecisionAuditLog()
        log.record(_record())
        log.record(_record(rule="blatant_countdown"))
        path = log.write_jsonl(tmp_path / "audit.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert set(json.loads(line)) == set(AUDIT_FIELDS)
        back = DecisionAuditLog.read_jsonl(path)
        assert back.records == log.records

    def test_counts_and_layer_split(self):
        log = DecisionAuditLog()
        log.record(_record())
        log.record(_record())
        log.record(_record(rule="seq_offset"))
        assert log.counts_by_rule() == {"rank_sum": 2, "seq_offset": 1}
        assert log.statistical_count == 2
        assert log.deterministic_count == 1

    def test_from_dict_rejects_unknown_keys(self):
        data = _record().to_dict()
        data["extra"] = 1
        with pytest.raises(ValueError):
            AuditRecord.from_dict(data)

    def test_to_dict_equals_asdict(self):
        record = _record(p_value=0.01, statistic=3.5, threshold=0.05,
                         sample_size=25)
        data = record.to_dict()
        assert data == dataclasses.asdict(record)
        assert tuple(data) == AUDIT_FIELDS
        data["slot"] = -1
        assert record.slot == 100


# -- metrics listener on a real simulation ------------------------------------


def _tiny_sim(seed=7):
    from repro.sim.network import Flow, Simulation, SimulationConfig

    positions = [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (600.0, 0.0)]
    flows = [Flow(source=0, destination=1, load=0.5),
             Flow(source=2, destination=3, load=0.5)]
    return Simulation(positions, flows=flows, config=SimulationConfig(seed=seed))


class TestMetricsListener:
    def test_collects_engine_and_backoff_counts(self):
        reg = MetricsRegistry()
        sim = _tiny_sim()
        sim.add_listener(MetricsListener(reg))
        sim.run(0.5)
        counters = reg.snapshot()["counters"]
        assert counters["engine.slots"] > 0
        assert counters["engine.events"] > 0
        assert counters["tx.starts"] > 0

    def test_harvest_is_idempotent_and_delta_based(self):
        reg = MetricsRegistry()
        sim = _tiny_sim()
        listener = MetricsListener(reg)
        sim.add_listener(listener)
        sim.run(0.3)
        listener.harvest(sim.engine)
        draws = reg.snapshot()["counters"]["backoff.draws"]
        listener.harvest(sim.engine)
        assert reg.snapshot()["counters"]["backoff.draws"] == draws
        assert draws > 0

    def test_same_seed_snapshots_byte_identical(self):
        snaps = []
        for _ in range(2):
            reg = MetricsRegistry()
            sim = _tiny_sim(seed=11)
            listener = MetricsListener(reg)
            sim.add_listener(listener)
            sim.run(0.4)
            listener.harvest(sim.engine)
            snaps.append(json.dumps(reg.snapshot(), sort_keys=True))
        assert snaps[0] == snaps[1]


# -- runtime switch -----------------------------------------------------------


class TestRuntimeSwitch:
    def test_engine_attaches_listener_when_enabled(self):
        enable_metrics()
        sim = _tiny_sim()
        assert sim.engine.metrics_listener is not None
        sim.run(0.2)
        counters = shared_registry().snapshot()["counters"]
        assert counters["engine.slots"] > 0

    def test_engine_pays_nothing_when_disabled(self):
        sim = _tiny_sim()
        assert sim.engine.metrics_listener is None
        assert metrics_enabled() is False

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert metrics_enabled() is True

    def test_reset_returns_fresh_shared_registry(self):
        shared_registry().inc("x")
        fresh = reset_metrics()
        assert fresh is shared_registry()
        assert len(fresh) == 0


# -- detector wiring ----------------------------------------------------------


class TestDetectorAudit:
    def test_deterministic_and_statistical_rules_distinguished(self):
        """A cheating sender yields audit records from both layers, and
        every record carries a valid rule name."""
        from repro.core.detector import DetectorConfig
        from repro.experiments.runner import collect_detection_samples
        from repro.experiments.scenarios import GridScenario

        audit = DecisionAuditLog()
        detector = collect_detection_samples(
            GridScenario(load=0.6, seed=5),
            25,
            detector_config=DetectorConfig(
                sample_size=25, known_n=5, known_k=5
            ),
            target_samples=120,
            max_duration_s=8.0,
            audit=audit,
        )
        # Every verdict (deterministic violations publish one too) is audited.
        assert len(audit) == len(detector.verdicts)
        assert audit.statistical_count > 0
        assert audit.deterministic_count > 0
        for record in audit:
            assert record.rule in AUDIT_RULES
            assert record.deterministic == (record.rule != "rank_sum")
        stat = [r for r in audit if not r.deterministic]
        assert all(r.p_value is not None for r in stat)
        assert all(r.threshold is not None for r in stat)

    def test_honest_sender_produces_benign_audit(self):
        from repro.core.detector import DetectorConfig
        from repro.experiments.runner import collect_detection_samples
        from repro.experiments.scenarios import GridScenario

        audit = DecisionAuditLog()
        collect_detection_samples(
            GridScenario(load=0.6, seed=9),
            0,
            detector_config=DetectorConfig(
                sample_size=25, known_n=5, known_k=5
            ),
            target_samples=60,
            max_duration_s=8.0,
            audit=audit,
        )
        assert audit.deterministic_count == 0
        benign = [r for r in audit if r.diagnosis != "malicious"]
        assert len(benign) >= len(audit.records) * 0.5


# -- backoff statistics -------------------------------------------------------


class TestBackoffStats:
    def test_draw_freeze_resume_counting(self):
        from repro.mac.backoff import BackoffScheduler

        b = BackoffScheduler()
        b.start(10)
        assert b.draws == 1
        b.resume(100)
        b.freeze(104)
        assert b.freezes == 1
        b.resume(120)  # 16 slots spent frozen
        assert b.slots_frozen == 16
        b.finish()
        assert not math.isnan(b.slots_frozen)


# -- snapshot merging ---------------------------------------------------------


class TestMergeSnapshot:
    def _registry_with_histogram(self, bounds=(1.0, 5.0)):
        registry = MetricsRegistry()
        h = registry.histogram("lat", bounds=bounds)
        for v in (0.5, 3.0, 9.0):
            h.observe(v)
        return registry

    def test_merge_adds_counters_and_histograms(self):
        a = self._registry_with_histogram()
        a.inc("events", 3)
        b = self._registry_with_histogram()
        b.inc("events", 4)
        a.merge_snapshot(b.snapshot())
        assert a.counter("events").value == 7
        merged = a.histogram("lat", bounds=(1.0, 5.0))
        assert merged.count == 6
        assert merged.counts == [2, 2, 2]
        assert merged.min == 0.5 and merged.max == 9.0

    def test_mismatched_bucket_bounds_rejected(self):
        a = self._registry_with_histogram(bounds=(1.0, 5.0))
        b = self._registry_with_histogram(bounds=(2.0, 6.0))
        with pytest.raises(ValueError, match="already registered with bounds"):
            a.merge_snapshot(b.snapshot())

    def test_empty_snapshot_is_a_noop(self):
        a = self._registry_with_histogram()
        a.inc("events", 3)
        before = a.snapshot()
        a.merge_snapshot({})
        a.merge_snapshot(MetricsRegistry().snapshot())
        assert a.snapshot() == before

    def test_merging_empty_histogram_preserves_min_max(self):
        a = self._registry_with_histogram()
        empty = MetricsRegistry()
        empty.histogram("lat", bounds=(1.0, 5.0))
        a.merge_snapshot(empty.snapshot())
        h = a.histogram("lat", bounds=(1.0, 5.0))
        assert h.min == 0.5 and h.max == 9.0 and h.count == 3

    def test_merge_into_empty_adopts_extremes(self):
        empty = MetricsRegistry()
        empty.histogram("lat", bounds=(1.0, 5.0))
        empty.merge_snapshot(self._registry_with_histogram().snapshot())
        h = empty.histogram("lat", bounds=(1.0, 5.0))
        assert h.min == 0.5 and h.max == 9.0 and h.count == 3


# -- manifest forward compatibility ------------------------------------------


class TestManifestForwardCompat:
    def test_unknown_fields_survive_round_trip(self, tmp_path):
        path = RunManifest(name="x", results={"ok": 1}).write(tmp_path / "m.json")
        data = json.loads(path.read_text())
        data["future_field"] = {"novel": True}
        (tmp_path / "m.json").write_text(json.dumps(data))
        loaded = RunManifest.load(tmp_path / "m.json")
        assert loaded.extras == {"future_field": {"novel": True}}
        rewritten = json.loads(loaded.write(tmp_path / "m2.json").read_text())
        assert rewritten["future_field"] == {"novel": True}

    def test_schema_error_names_offending_key(self, tmp_path):
        path = RunManifest(name="x").write(tmp_path / "m.json")
        data = json.loads(path.read_text())
        data["schema"] = "other/v9"
        with pytest.raises(ValueError, match="manifest key 'schema'"):
            RunManifest.from_dict(data)

    def test_no_extras_keeps_output_byte_identical(self, tmp_path):
        manifest = RunManifest(name="x", seed=1, results={"ok": 1})
        first = manifest.write(tmp_path / "a.json").read_text()
        second = RunManifest.load(tmp_path / "a.json").write(
            tmp_path / "b.json"
        ).read_text()
        assert first == second


# -- audit ordering determinism -----------------------------------------------


class TestCountsByRuleOrdering:
    def test_sorted_regardless_of_insertion_order(self):
        forward = DecisionAuditLog()
        for rule in ("seq_offset", "rank_sum", "blatant_countdown"):
            forward.record(_record(rule=rule))
        backward = DecisionAuditLog()
        for rule in ("blatant_countdown", "rank_sum", "seq_offset"):
            backward.record(_record(rule=rule))
        assert forward.counts_by_rule() == backward.counts_by_rule()
        assert (
            list(forward.counts_by_rule())
            == list(backward.counts_by_rule())
            == sorted(forward.counts_by_rule())
        )


# -- prometheus exposition ----------------------------------------------------


class TestPrometheusRender:
    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_counter_becomes_total_with_type_line(self):
        registry = MetricsRegistry()
        registry.inc("engine.slots", 42)
        text = registry.render_prometheus()
        assert "# TYPE engine_slots_total counter" in text
        assert "engine_slots_total 42" in text

    def test_illegal_characters_sanitized(self):
        registry = MetricsRegistry()
        registry.inc("tx.data-frames/ok", 1)
        registry.set_gauge("9lives", 3.0)
        text = registry.render_prometheus()
        assert "tx_data_frames_ok_total 1" in text
        assert "_9lives 3" in text

    def test_histogram_buckets_cumulative_with_inf(self):
        registry = MetricsRegistry()
        h = registry.histogram("latency.us", bounds=(1.0, 5.0))
        for v in (0.5, 0.7, 3.0, 100.0):
            h.observe(v)
        text = registry.render_prometheus()
        assert '# TYPE latency_us histogram' in text
        assert 'latency_us_bucket{le="1"} 2' in text
        assert 'latency_us_bucket{le="5"} 3' in text
        assert 'latency_us_bucket{le="+Inf"} 4' in text
        assert "latency_us_sum 104.2" in text
        assert "latency_us_count 4" in text

    def test_output_sorted_and_byte_stable(self):
        def build():
            registry = MetricsRegistry()
            registry.inc("z.last", 1)
            registry.inc("a.first", 2)
            registry.set_gauge("mid", 0.5)
            return registry.render_prometheus()

        text = build()
        assert text == build()
        assert text.index("a_first_total") < text.index("z_last_total")
        assert text.endswith("\n")
