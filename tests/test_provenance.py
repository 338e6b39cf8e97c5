"""Tests for repro.obs.provenance: verdict evidence chains.

The acceptance bar from the issue: ``explain`` must reconstruct the full
observation -> window -> rank-sum chain for **every** accusation in the
16-detector scenario, asserted against the audit log.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from repro.core.detector import DetectorConfig, reset_region_cache
from repro.core.observatory import SharedChannelObservatory
from repro.experiments.scenarios import MultiMonitorGridScenario
from repro.mac.misbehavior import PercentageMisbehavior
from repro.obs.audit import DecisionAuditLog
from repro.obs.provenance import (
    PROVENANCE_FIELDS,
    ProvenanceLog,
    ProvenanceRecord,
    explain,
    render_explanation,
)
from repro.traffic import queue as traffic_queue

CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5)


def _record(**overrides):
    base = dict(
        verdict_id="3-7-1000-rank_sum-0",
        slot=1000,
        monitor=3,
        tagged=7,
        rule="rank_sum",
        diagnosis="malicious",
        deterministic=False,
        detail="p=0.01 vs alpha=0.05",
        observation_ids=[0, 1],
        observation_slots=[900, 950],
        window_start=900,
        window_end=950,
        dictated=[0.5, 0.6],
        estimated=[0.2, 0.3],
        statistic=12.0,
        p_value=0.01,
        threshold=0.05,
        sample_size=2,
        rho=0.8,
        arma_alpha=0.995,
        quarantine_drops={"undecodable": 3},
        skipped_samples=4,
    )
    base.update(overrides)
    return ProvenanceRecord(**base)


class TestProvenanceRecord:
    def test_roundtrip(self):
        record = _record()
        assert ProvenanceRecord.from_dict(record.to_dict()) == record

    def test_to_dict_keys_match_schema(self):
        assert tuple(_record().to_dict()) == PROVENANCE_FIELDS

    def test_to_dict_equals_asdict_and_copies_containers(self):
        record = _record()
        data = record.to_dict()
        assert data == dataclasses.asdict(record)
        assert json.dumps(data, sort_keys=True) == json.dumps(
            dataclasses.asdict(record), sort_keys=True
        )
        for name in ("observation_ids", "observation_slots", "dictated",
                     "estimated"):
            data[name].append(99)
        data["quarantine_drops"]["corrupt"] = 1
        assert record == _record()

    def test_from_dict_rejects_unknown_keys(self):
        data = _record().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            ProvenanceRecord.from_dict(data)


class TestProvenanceLog:
    def test_jsonl_roundtrip(self, tmp_path):
        log = ProvenanceLog([_record(), _record(verdict_id="x-1")])
        path = log.write_jsonl(tmp_path / "prov.jsonl")
        loaded = ProvenanceLog.read_jsonl(path)
        assert loaded.records == log.records

    def test_find_raises_on_unknown_id(self):
        with pytest.raises(KeyError, match="nope"):
            ProvenanceLog([_record()]).find("nope")

    def test_accusations_filter(self):
        log = ProvenanceLog(
            [_record(), _record(verdict_id="w", diagnosis="well_behaved")]
        )
        assert [r.verdict_id for r in log.accusations()] == [
            "3-7-1000-rank_sum-0"
        ]

    def test_explain_from_path(self, tmp_path):
        log = ProvenanceLog([_record()])
        path = log.write_jsonl(tmp_path / "prov.jsonl")
        chain = explain(path, "3-7-1000-rank_sum-0")
        assert chain["rank_sum"]["p_value"] == 0.01

    def test_explain_chain_structure(self):
        chain = ProvenanceLog([_record()]).explain("3-7-1000-rank_sum-0")
        assert chain["window"] == {"start": 900, "end": 950, "size": 2}
        assert chain["observations"] == [
            {"id": 0, "slot": 900, "dictated": 0.5, "estimated": 0.2},
            {"id": 1, "slot": 950, "dictated": 0.6, "estimated": 0.3},
        ]
        assert chain["arma"] == {"rho": 0.8, "alpha": 0.995}
        assert chain["quarantine_drops"] == {"undecodable": 3}

    def test_render_explanation_narrative(self):
        text = render_explanation(
            ProvenanceLog([_record()]).explain("3-7-1000-rank_sum-0")
        )
        assert "monitor 3 observing node 7" in text
        assert "rank-sum" in text
        assert "2 observations" in text


def _run_16_detector_scenario():
    """The dense multi-monitor grid with two cheaters (the golden one)."""
    traffic_queue._packet_ids = itertools.count()
    reset_region_cache()
    scenario = MultiMonitorGridScenario(seed=7)
    taggeds = scenario.tagged_nodes()
    policies = {
        taggeds[0]: PercentageMisbehavior(60),
        taggeds[2]: PercentageMisbehavior(75),
    }
    sim, pairs = scenario.build(policies=policies)
    audit = DecisionAuditLog()
    provenance = ProvenanceLog()
    observatory = SharedChannelObservatory()
    sim.add_listener(observatory)
    detectors = [
        observatory.attach(
            monitor,
            tagged,
            config=CONFIG,
            separation=scenario.separation,
            audit=audit,
            provenance=provenance,
        )
        for monitor, tagged in pairs
    ]
    sim.run(4.0)
    return detectors, audit, provenance


class TestSixteenDetectorScenario:
    @pytest.fixture(scope="class")
    def run(self):
        return _run_16_detector_scenario()

    def test_every_verdict_has_a_provenance_record(self, run):
        detectors, audit, provenance = run
        assert len(detectors) == 16
        verdict_audit = [r for r in audit.records if r.rule != "quarantine"]
        assert len(provenance) == len(verdict_audit) > 0

    def test_verdict_ids_unique(self, run):
        _detectors, _audit, provenance = run
        ids = provenance.verdict_ids()
        assert len(ids) == len(set(ids))

    def test_provenance_links_to_audit_coordinates(self, run):
        _detectors, audit, provenance = run
        audit_keys = [
            (r.slot, r.monitor, r.tagged, r.rule, r.diagnosis)
            for r in audit.records
            if r.rule != "quarantine"
        ]
        prov_keys = [
            (r.slot, r.monitor, r.tagged, r.rule, r.diagnosis)
            for r in provenance
        ]
        # Publication order is identical: the detector appends the audit
        # record and the provenance record in the same _publish call.
        assert prov_keys == audit_keys

    def test_explain_reconstructs_every_accusation(self, run):
        detectors, _audit, provenance = run
        by_key = {(d.monitor_id, d.tagged_id): d for d in detectors}
        accusations = provenance.accusations()
        assert accusations, "scenario must produce accusations"
        for record in accusations:
            chain = provenance.explain(record.verdict_id)
            assert chain["diagnosis"] == "malicious"
            if record.rule != "rank_sum":
                assert chain["rank_sum"] is None
                continue
            # Full observation -> window -> rank-sum chain.
            detector = by_key[(record.monitor, record.tagged)]
            observations = chain["observations"]
            assert len(observations) == CONFIG.sample_size
            assert chain["window"]["start"] == observations[0]["slot"]
            assert chain["window"]["end"] == observations[-1]["slot"]
            assert chain["window"]["end"] <= record.slot
            slots = [o["slot"] for o in observations]
            assert slots == sorted(slots)
            for entry in observations:
                # Observation ids index the detector's accepted samples,
                # and the window slots are those samples' RTS slots.
                accepted = detector.observations[entry["id"]]
                assert accepted.slot == entry["slot"]
            assert chain["rank_sum"]["p_value"] == record.p_value
            assert chain["rank_sum"]["threshold"] == record.threshold
            assert len(chain["rank_sum"]["x"]) == CONFIG.sample_size

    def test_statistical_accusations_carry_rank_sum_inputs(self, run):
        _detectors, _audit, provenance = run
        rank_sum = [
            r for r in provenance.accusations() if r.rule == "rank_sum"
        ]
        assert rank_sum, "expected at least one statistical accusation"
        for record in rank_sum:
            assert record.statistic is not None
            assert record.p_value is not None
            assert record.p_value <= record.threshold
            assert len(record.dictated) == len(record.estimated)
            assert len(record.dictated) == CONFIG.sample_size
