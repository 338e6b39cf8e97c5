"""Streaming-service capacity: tracked links, resident memory, verdicts.

Three cells price ``repro serve``'s bounded-memory session at the
scales the detection-as-a-service design targets:

* **capacity** — one session ingesting a synthetic honest-traffic
  stream over ``100_000 x REPRO_SCALE`` isolated links (two exchanges
  each, heap-interleaved).  Every link must end up tracked; the cell
  reports end-to-end line throughput, plus the session's resident
  detection state in KB per 10k tracked links from a tracemalloc-traced
  probe session over a fixed 10k-link slice (tracing costs ~5x wall
  time, and per-link state dominates, so the per-10k figure from the
  probe is representative without tracing the full run).  At this
  scale the per-event cost must not grow with the link count: each
  event touches only the channels it involves, and an idle link's ARMA
  feed folds its own timeline only when read or at maintenance.
* **sinks** — the capacity stream replayed twice more, without and then
  with audit and provenance sinks attached.  Reports the sinks-on line
  throughput and ``ratio``, sinks-on over sinks-off throughput.  Both
  replays follow the capacity cell's, because a process's first replay
  runs faster than later ones and would bias the ratio.  A flush writes
  only the records made since the last one, so the ratio must stay near
  1 however many links are tracked; CI gates it.
* **verdict** — a small hot set (200 links) carrying deep streams
  (130 exchanges each), pricing the steady-state verdict pipeline:
  rank-sum windows batched at the flush cadence, incremental audit and
  provenance appends to in-memory sinks, maintenance sweeps.  Reports
  verdicts and lines per second.

Both cells ride ``warmup_slots=0`` (the synthetic generator's exact
``difs + dictated`` gaps make every inter-frame gap an observation) so
the measured work includes the full sample pipeline, not warmup skips.
"""

from __future__ import annotations

import gc
import io
import time
import tracemalloc
from typing import List, Tuple

from repro.core.detector import DetectorConfig
from repro.obs.bench import write_bench_manifest
from repro.serve.capture import synthetic_stream
from repro.serve.server import ServeConfig, ServeResult, ServeSession
from repro.util.fidelity import scaled

SEED = 13
#: Capacity-cell link count at REPRO_SCALE=1 (the acceptance target).
BASE_LINKS = 100_000
CAPACITY_SAMPLES = 2
#: Verdict-cell hot set: fixed size, deep streams.
VERDICT_LINKS = 200
VERDICT_SAMPLES = 130

#: Traced memory-probe size: fixed so the trace overhead stays bounded.
PROBE_LINKS = 10_000

CONFIG = DetectorConfig(sample_size=25, known_n=5, known_k=5, warmup_slots=0)


def _session(sinks: bool = False) -> ServeSession:
    if not sinks:
        return ServeSession(ServeConfig(detector=CONFIG))
    return ServeSession(
        ServeConfig(detector=CONFIG),
        audit_sink=io.StringIO(),
        provenance_sink=io.StringIO(),
    )


def _timed_run(lines: List[str], sinks: bool) -> Tuple[ServeResult, float]:
    """One untraced end-to-end replay (parse -> ingest -> verdicts)."""
    session = _session(sinks)
    gc.collect()  # leave no earlier cell's garbage to this timing
    begin = time.perf_counter()
    result = session.run(lines)
    return result, time.perf_counter() - begin


def _capacity_cell(n_links: int, lines: List[str]) -> dict:
    result, secs = _timed_run(lines, sinks=False)

    # Traced probe: what one session's detection state costs to keep
    # resident, per 10k tracked links.  The stream lines live outside
    # the traced window, so the figure is the session (links, timelines,
    # feeds, logs), not the input buffer.
    probe_links = min(n_links, PROBE_LINKS)
    probe_lines = list(synthetic_stream(probe_links, CAPACITY_SAMPLES))
    tracemalloc.start()
    probe = _session()
    probe_result = probe.run(probe_lines)
    resident_bytes, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracked = len(result.links)
    assert tracked == n_links, f"tracked {tracked} of {n_links} links"
    assert len(probe_result.links) == probe_links
    observations = sum(len(link.observations) for link in result.links)
    assert observations >= n_links  # one per link after the anchor
    return {
        "links": n_links,
        "lines": len(lines),
        "seconds": secs,
        "lines_per_sec": len(lines) / secs if secs > 0 else 0.0,
        "observations": observations,
        "probe_links": probe_links,
        "resident_kb": resident_bytes / 1024.0,
        "resident_kb_per_10k_links": (
            resident_bytes / 1024.0 / (probe_links / 10_000.0)
        ),
    }


def _sinks_cell(n_links: int, lines: List[str]) -> dict:
    _result, off_secs = _timed_run(lines, sinks=False)
    result, secs = _timed_run(lines, sinks=True)
    assert len(result.links) == n_links
    return {
        "links": n_links,
        "lines": len(lines),
        "seconds": secs,
        "lines_per_sec": len(lines) / secs if secs > 0 else 0.0,
        "ratio": off_secs / secs if secs > 0 else 0.0,
    }


def _verdict_cell() -> dict:
    lines = list(synthetic_stream(VERDICT_LINKS, VERDICT_SAMPLES))
    result, secs = _timed_run(lines, sinks=True)
    verdicts = sum(len(link.verdicts) for link in result.links)
    assert len(result.links) == VERDICT_LINKS
    assert verdicts > 0, "deep streams produced no verdicts"
    return {
        "links": VERDICT_LINKS,
        "lines": len(lines),
        "seconds": secs,
        "lines_per_sec": len(lines) / secs if secs > 0 else 0.0,
        "verdicts": verdicts,
        "verdicts_per_sec": verdicts / secs if secs > 0 else 0.0,
    }


def bench_serve_capacity(benchmark):
    def run():
        n_links = scaled(BASE_LINKS, minimum=1_000)
        lines = list(synthetic_stream(n_links, CAPACITY_SAMPLES))
        return {
            "capacity": _capacity_cell(n_links, lines),
            "sinks": _sinks_cell(n_links, lines),
            "verdict": _verdict_cell(),
        }

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    capacity, sinks, verdict = cells["capacity"], cells["sinks"], cells["verdict"]
    print()
    print(
        f"serve capacity: {capacity['links']:,} links tracked, "
        f"{capacity['lines_per_sec']:>9,.0f} lines/s, "
        f"{capacity['resident_kb_per_10k_links']:,.0f} KB per 10k links"
    )
    print(
        f"serve sinks on: {sinks['lines_per_sec']:>9,.0f} lines/s, "
        f"{sinks['ratio']:.2f}x sinks-off"
    )
    print(
        f"serve verdicts: {verdict['links']} links x {VERDICT_SAMPLES} tx, "
        f"{verdict['verdicts_per_sec']:>9,.0f} verdicts/s "
        f"({verdict['verdicts']} verdicts)"
    )
    write_bench_manifest(
        "serve",
        cells,
        seed=SEED,
        config={
            "base_links": BASE_LINKS,
            "capacity_samples": CAPACITY_SAMPLES,
            "verdict_links": VERDICT_LINKS,
            "verdict_samples": VERDICT_SAMPLES,
            "sample_size": CONFIG.sample_size,
        },
    )
    assert capacity["resident_kb_per_10k_links"] > 0.0
