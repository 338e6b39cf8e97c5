"""Index invariance: one observable output from either reachability index.

The spatial-hash medium index (`index="grid"`) is a pure execution
strategy next to the all-pairs `"brute"` reference: the paper's numbers
— every metric counter, audit record, observation, and verdict — must
be byte-identical under both.  This suite runs the mobile random
scenario (mobility epochs exercise the incremental grid update) under
each index and compares full sha256 fingerprints, pinning the
determinism argument of DESIGN.md §16.
"""

import json

from repro.experiments.scenarios import RandomScenario
from tests.test_golden_fingerprints import (
    CONFIG,
    _audit_jsonl,
    _detector_text,
    _fresh_process_state,
    _run_single,
    _sha,
)


def _capture(medium_index):
    """Fingerprint one mobile detection run under the given index."""
    _fresh_process_state()
    detectors, audit, registry, _extra = _run_single(
        CONFIG,
        lambda: RandomScenario(mobile=True, seed=23, medium_index=medium_index),
        70,
        120,
        40.0,
    )
    return {
        "observations": sum(len(d.observations) for d in detectors),
        "verdicts": sum(len(d.verdicts) for d in detectors),
        "audit_records": len(audit.records),
        "metrics_sha256": _sha(json.dumps(registry.snapshot(), sort_keys=True)),
        "audit_sha256": _sha(_audit_jsonl(audit)),
        "detector_sha256": _sha(_detector_text(detectors)),
    }


def test_grid_index_matches_brute_force():
    assert _capture("grid") == _capture("brute")
