"""The four benchmark workloads, as run inside one worker subprocess.

Each workload function drives only public ``repro`` APIs, builds its
inputs from ``seed``, times its work, checks its outputs, and returns
one *repeat record*: the end-to-end values of this repeat, a result
fingerprint, named correctness checks, and (when ``tracer`` is given)
the per-layer values.  ``t0`` is the clock reading taken at the top of
the worker's ``main``, before ``repro`` was imported, so ``setup_s``
covers imports plus input generation.

``repro`` is imported inside the functions: importing this module must
stay cheap and must not need ``src`` on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
import tracemalloc
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence

from benchmarks.suite.layers import installed, instrument_engine
from benchmarks.suite.loadgen import run_open_loop
from benchmarks.suite.trace import SpanTracer

Clock = Callable[[], float]

#: Input sizes per workload.  ``default`` is sized so that at least three
#: fresh-process repeats fit one 20 s measuring run on a 2-core host;
#: ``tiny`` keeps ``pytest benchmarks/suite`` under a minute.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "fig5-grid": {
        "default": {"seeds": 3, "sim_seconds": 4.0, "step_seconds": 0.1},
        "tiny": {"seeds": 1, "sim_seconds": 4.0, "step_seconds": 0.5},
    },
    "replay16": {
        "default": {"captures": 3, "capture_seconds": 5.0, "rate": 6000.0},
        "tiny": {"captures": 1, "capture_seconds": 4.0, "rate": 10000.0},
    },
    "serve-wide": {
        "default": {"links": 8_000, "exchanges": 2, "memory_links": 2_000},
        "tiny": {"links": 400, "exchanges": 2, "memory_links": 100},
    },
    "serve-deep": {
        "default": {"links": 200, "exchanges": 50},
        "tiny": {"links": 20, "exchanges": 40},
    },
}

#: fig5-grid: misbehavior percentages, and the paper's window size
FIG5_PMS = (0, 50)
FIG5_WINDOW = 25
#: serve-wide/serve-deep: lines per latency sample
BLOCK_LINES = 128
#: replay16: the two cheaters (tagged index -> PM) and the honest pair
REPLAY_CHEATERS = {0: 60, 2: 75}
REPLAY_HONEST = (1, 3)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class RecordingSink:
    """An in-memory text sink that stamps every write on ``clock``."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.stamps = array("d")
        self.chunks: List[str] = []

    def write(self, text: str) -> int:
        self.stamps.append(self.clock())
        self.chunks.append(text)
        return len(text)


def _sinks(clock: Clock, tracer: Optional[SpanTracer]) -> tuple:
    """An audit and a provenance sink; traced, their writes are spans."""
    sinks = (RecordingSink(clock), RecordingSink(clock))
    if tracer is not None:
        for sink in sinks:
            traced = tracer.wrap("serve.sink_write", sink.write)
            sink.write = traced  # type: ignore[method-assign]
    return sinks


def _span(tracer: Optional[SpanTracer], name: str) -> Any:
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _latency_values(latencies_s: Sequence[float]) -> Dict[str, float]:
    return {
        "latency_p50_ms": percentile(latencies_s, 0.50) * 1e3,
        "latency_p95_ms": percentile(latencies_s, 0.95) * 1e3,
    }


def _serve_counters(result: Any) -> Dict[str, float]:
    rejected = sum(result.summary()["rejected"].values())
    return {
        "serve.flushes": result.flushes,
        "serve.pruned_intervals": result.pruned_intervals,
        "serve.compacted_observations": result.compacted_observations,
        "serve.rejected": rejected,
        "stats.rank_sum_verdicts": sum(
            1
            for link in result.links
            for verdict in link.verdicts
            if not verdict.deterministic
        ),
    }


def _verdict_latencies(
    lines: Sequence[str], line_times: Sequence[float], audit: RecordingSink
) -> tuple:
    """Each audit record's write time minus the time of the end line
    that completed its verdict; returns ``(latencies, unmatched)``.

    The end line ``(observed.start_slot, sender)`` is the audit record's
    ``(slot, tagged)``.
    """
    end_time: Dict[tuple, float] = {}
    for index, line in enumerate(lines):
        event = json.loads(line)
        if event["kind"] == "end":
            key = (event["observed"]["start_slot"], event["sender"])
            end_time[key] = line_times[index]
    latencies: List[float] = []
    unmatched = 0
    for stamp, chunk in zip(audit.stamps, audit.chunks):
        record = json.loads(chunk)
        at = end_time.get((record["slot"], record["tagged"]))
        if at is None:
            unmatched += 1
        else:
            latencies.append(stamp - at)
    return latencies, unmatched


def _parse_seconds(lines: Sequence[str], clock: Clock) -> float:
    """A separate, untraced ``parse_line`` pass over the same lines."""
    from repro.serve.records import RecordRejected, parse_line

    begin = clock()
    for line in lines:
        try:
            parse_line(line)
        except RecordRejected:
            pass
    return clock() - begin


# -- fig5-grid ---------------------------------------------------------------


def fig5_grid(
    seed: int,
    t0: float,
    tracer: Optional[SpanTracer],
    seeds: int,
    sim_seconds: float,
    step_seconds: float,
    clock: Clock = time.perf_counter,
) -> Dict[str, Any]:
    """The paper pipeline: simulate the 56-node grid, detect, diagnose.

    Each PM runs on ``seeds`` scenario seeds of its own.  A trial makes
    the public calls ``collect_detection_samples`` makes (build, rebuild
    with the cheat, one observatory-subscribed detector) but simulates a
    fixed ``sim_seconds`` in ``step_seconds`` steps, so every seed does
    the same simulated work and each step's host time is one latency
    sample; it keeps the simulation at hand for its final slot and, when
    traced, its engine phases.
    """
    from repro.core.detector import DetectorConfig
    from repro.core.observatory import SharedChannelObservatory
    from repro.experiments.runner import split_seeds, windowed_detection_rate
    from repro.experiments.scenarios import GridScenario
    from repro.mac.misbehavior import PercentageMisbehavior
    from repro.obs.audit import DecisionAuditLog
    from repro.obs.provenance import ProvenanceLog
    from repro.serve.server import export_detector

    config = DetectorConfig(sample_size=10_000, known_n=5, known_k=5)
    scenario_seeds = split_seeds(seed, seeds * len(FIG5_PMS))
    trials = [
        (GridScenario(load=0.6, traffic="poisson", seed=trial_seed), pm)
        for index, pm in enumerate(FIG5_PMS)
        for trial_seed in scenario_seeds[index * seeds : (index + 1) * seeds]
    ]
    steps = round(sim_seconds / step_seconds)
    trial_walls: List[float] = []
    step_walls: List[float] = []
    slots = 0
    hits = {pm: 0.0 for pm in FIG5_PMS}
    windows = {pm: 0 for pm in FIG5_PMS}
    empty_trials = 0
    finished = []
    setup_s = clock() - t0
    with _span(tracer, "bench.run"):
        for scenario, pm in trials:
            begin = clock()
            with _span(tracer, "bench.trial"):
                with _span(tracer, "sim.build"):
                    sim, sender, monitor = scenario.build(policies=None)
                    if pm:
                        sim, sender, monitor = scenario.build(
                            policies={sender: PercentageMisbehavior(pm)}
                        )
                observatory = SharedChannelObservatory()
                sim.add_listener(observatory)
                detector = observatory.attach(
                    monitor, sender, config=config, separation=scenario.separation
                )
                if tracer is not None:
                    instrument_engine(tracer, sim)
                for _ in range(steps):
                    step = clock()
                    final_slot = sim.run(step_seconds)
                    step_walls.append(clock() - step)
                with _span(tracer, "runner.windowed_rate"):
                    rate, n_windows = windowed_detection_rate(detector, FIG5_WINDOW)
            trial_walls.append(clock() - begin)
            slots += final_slot
            if n_windows:
                hits[pm] += rate * n_windows
                windows[pm] += n_windows
            if detector.observation_count == 0:
                empty_trials += 1
            finished.append((monitor, sender, detector, final_slot, n_windows))
    digest = hashlib.sha256()
    for index, (monitor, sender, detector, slot, n_windows) in enumerate(finished):
        link = export_detector(
            monitor, sender, index, detector, DecisionAuditLog(), ProvenanceLog()
        )
        digest.update(f"{slot}:{n_windows}:{link.fingerprint()}\n".encode())
    busy_s = sum(trial_walls)
    p_diag = {
        pm: hits[pm] / windows[pm] if windows[pm] else float("nan")
        for pm in FIG5_PMS
    }
    record: Dict[str, Any] = {
        "setup_s": setup_s,
        "throughput_per_s": slots / busy_s,
        **_latency_values(step_walls),
        "busy_s": busy_s,
        "attempted": len(trials),
        "failed": empty_trials,
        "fingerprint": digest.hexdigest(),
        "checks": {
            "pm50_diagnosed": windows[50] > 0 and p_diag[50] >= 0.9,
            "pm0_cleared": windows[0] > 0 and p_diag[0] <= 0.1,
        },
        "diagnostics": {
            "slots": slots,
            "trial_wall_max_s": max(trial_walls),
            "windows_pm0": windows[0],
            "windows_pm50": windows[50],
            "p_diagnosis_pm0": p_diag[0],
            "p_diagnosis_pm50": p_diag[50],
        },
    }
    if tracer is not None:
        record["layer"] = {"sim.slots": slots}
    return record


# -- replay16 ----------------------------------------------------------------


def replay16(
    seed: int,
    t0: float,
    tracer: Optional[SpanTracer],
    captures: int,
    capture_seconds: float,
    rate: float,
    clock: Clock = time.perf_counter,
) -> Dict[str, Any]:
    """Capture a 4-monitor x 4-tagged grid, replay it open-loop into serve.

    Setup simulates ``capture_seconds`` of ``MultiMonitorGridScenario``
    on ``captures`` scenario seeds, tagged[0] cheating at PM 60 and
    tagged[2] at PM 75, each captured by ``StreamCapture``.  The timed
    part hands each capture's lines to its own ``ServeSession`` at a
    fixed ``rate``, audit and provenance sinks writing.  A verdict's
    latency runs from the due time of the end line that completed it to
    the sink write of its audit record.  Verdict timing depends on where
    a scenario's traffic falls against the flush cadence, so a repeat
    pools several scenarios rather than one long one.
    """
    from repro.core.detector import DetectorConfig
    from repro.experiments.runner import split_seeds
    from repro.experiments.scenarios import MultiMonitorGridScenario
    from repro.mac.misbehavior import PercentageMisbehavior
    from repro.serve.capture import StreamCapture
    from repro.serve.server import ServeConfig, ServeSession

    replays = []
    capture_slots = 0
    with _span(tracer, "bench.setup"):
        for scenario_seed in split_seeds(seed, captures):
            scenario = MultiMonitorGridScenario(seed=scenario_seed)
            taggeds = scenario.tagged_nodes()
            policies = {
                taggeds[index]: PercentageMisbehavior(pm)
                for index, pm in REPLAY_CHEATERS.items()
            }
            with _span(tracer, "sim.build"):
                sim, pairs = scenario.build(policies=policies)
            if tracer is not None:
                instrument_engine(tracer, sim)
            capture = StreamCapture(pairs)
            sim.add_listener(capture)
            capture_slots += sim.run(capture_seconds)
            audit, provenance = _sinks(clock, tracer)
            session = ServeSession(
                ServeConfig(
                    detector=DetectorConfig(sample_size=25, known_n=5, known_k=5),
                    separation=scenario.separation,
                ),
                links=pairs,
                audit_sink=audit,
                provenance_sink=provenance,
            )
            replays.append((capture.finished_lines(), session, audit, taggeds))
    sleep = time.sleep if tracer is None else tracer.wrap("loadgen.sleep", time.sleep)
    setup_s = clock() - t0
    runs = []
    with _span(tracer, "bench.run"):
        for lines, session, _audit, _taggeds in replays:
            load = run_open_loop(
                lines, session.handle_line, rate, clock=clock, sleep=sleep
            )
            begin = clock()
            result = session.finish()
            runs.append((load, clock() - begin, result))

    # Post-processing, outside every timed region.
    latencies: List[float] = []
    unmatched = 0
    audited = 0
    verdicts = 0
    malicious = {index: 0 for index in (*REPLAY_CHEATERS, *REPLAY_HONEST)}
    counters: Dict[str, float] = {}
    digest = hashlib.sha256()
    for (lines, _session, audit, taggeds), (load, _f, result) in zip(replays, runs):
        these, missed = _verdict_latencies(lines, load.due, audit)
        latencies += these
        unmatched += missed
        audited += len(audit.chunks)
        role = {tagged: index for index, tagged in enumerate(taggeds)}
        for link in result.links:
            for verdict in link.verdicts:
                verdicts += 1
                if verdict.is_malicious:
                    malicious[role[link.tagged]] += 1
        for name, value in _serve_counters(result).items():
            counters[name] = counters.get(name, 0) + value
        digest.update(f"{result.fingerprint()['combined']}\n".encode())
    lines_total = sum(len(lines) for lines, *_ in replays)
    busy_s = sum(load.busy_s + finish_s for load, finish_s, _result in runs)
    max_lag_ms = max(load.max_lag_s for load, _f, _r in runs) * 1e3
    p99_ms = percentile(latencies, 0.99) * 1e3
    record: Dict[str, Any] = {
        "setup_s": setup_s,
        "throughput_per_s": lines_total / busy_s,
        **_latency_values(latencies),
        "busy_s": busy_s,
        "attempted": lines_total,
        "failed": counters["serve.rejected"],
        "fingerprint": digest.hexdigest(),
        "checks": {
            "honest_cleared": all(malicious[i] == 0 for i in REPLAY_HONEST),
            "cheaters_caught": all(malicious[i] >= 1 for i in REPLAY_CHEATERS),
            "no_rejects": counters["serve.rejected"] == 0,
            "every_verdict_audited": audited == verdicts > 0,
            "every_audit_matched": unmatched == 0,
        },
        "diagnostics": {
            "lines": lines_total,
            "verdicts": verdicts,
            "latency_p99_ms": p99_ms,
            "max_lag_ms": max_lag_ms,
            **{f"malicious_tagged{i}": n for i, n in sorted(malicious.items())},
        },
    }
    if tracer is not None:
        record["layer"] = {
            **counters,
            "sim.slots": capture_slots,
            "serve.parse_s": _parse_seconds(
                [line for lines, *_ in replays for line in lines], clock
            ),
            "loadgen.max_lag_ms": max_lag_ms,
            "loadgen.latency_p99_ms": p99_ms,
        }
    return record


# -- serve-wide / serve-deep -------------------------------------------------


def _synthetic(
    seed: int,
    t0: float,
    tracer: Optional[SpanTracer],
    links: int,
    exchanges: int,
    sinks: bool,
    clock: Clock,
) -> Dict[str, Any]:
    """Closed-loop drain of ``synthetic_stream`` through ``ServeSession.run``.

    ``synthetic_stream`` takes no seed; the seed places the link ids
    (and tagged ids seed each link's dictated back-off PRNG).  Latency
    is that of the workload's output.  With sinks on (serve-deep) it is
    a verdict's: from the moment ``run`` pulled the end line that
    completed it to the sink write of its audit record.  With sinks off
    (serve-wide, no verdicts) it is a block's of ``BLOCK_LINES``
    consecutive lines: from the moment ``run`` pulled its first line to
    the moment it pulled the next block's.  A single line takes tens of
    microseconds, so per-line tails would mostly time scheduler jitter.
    """
    from repro.serve.capture import synthetic_stream
    from repro.serve.server import ServeConfig, ServeSession

    bases = _synthetic_bases(seed)
    with _span(tracer, "bench.setup"):
        lines = list(synthetic_stream(links, exchanges, **bases))
    audit, provenance = _sinks(clock, tracer) if sinks else (None, None)
    session = ServeSession(
        ServeConfig(detector=_synthetic_config()),
        audit_sink=audit,
        provenance_sink=provenance,
    )
    pulled_at = array("d")

    def pulled() -> Any:
        for line in lines:
            pulled_at.append(clock())
            yield line

    setup_s = clock() - t0
    with _span(tracer, "bench.run"):
        begin = clock()
        result = session.run(pulled())
        end = clock()
    wall_s = end - begin
    unmatched = 0
    if audit is not None:
        latencies, unmatched = _verdict_latencies(lines, pulled_at, audit)
    else:
        starts = list(pulled_at[::BLOCK_LINES]) + [end]
        latencies = [b - a for a, b in zip(starts, starts[1:])]
    counters = _serve_counters(result)
    verdicts = sum(len(link.verdicts) for link in result.links)
    malicious = sum(
        verdict.is_malicious for link in result.links for verdict in link.verdicts
    )
    untracked = links - len(result.links)
    record: Dict[str, Any] = {
        "setup_s": setup_s,
        "throughput_per_s": len(lines) / wall_s,
        **_latency_values(latencies),
        "busy_s": wall_s,
        "attempted": len(lines),
        "failed": counters["serve.rejected"] + max(untracked, 0),
        "fingerprint": result.fingerprint()["combined"],
        "checks": {
            "all_links_tracked": untracked == 0,
            "no_rejects": counters["serve.rejected"] == 0,
            "no_malicious": malicious == 0,
        },
        "diagnostics": {
            "lines": len(lines),
            "links": len(result.links),
            "verdicts": verdicts,
        },
    }
    if audit is not None:
        record["checks"]["every_verdict_audited"] = len(audit.chunks) == verdicts > 0
        record["checks"]["every_audit_matched"] = unmatched == 0
    else:
        record["checks"]["no_verdicts"] = verdicts == 0
    if tracer is not None:
        record["layer"] = {**counters, "serve.parse_s": _parse_seconds(lines, clock)}
    return record


def _synthetic_bases(seed: int) -> Dict[str, int]:
    return {"monitor_base": 1_000_000 + seed, "tagged_base": 1_000_000_000 + seed}


def _synthetic_config() -> Any:
    from repro.core.detector import DetectorConfig

    # warmup 0: the generator's exact gaps make every interval a sample
    return DetectorConfig(sample_size=25, known_n=5, known_k=5, warmup_slots=0)


def memory_kb_per_link(seed: int, links: int, exchanges: int) -> float:
    """tracemalloc current KB per link after a finished ``links`` session.

    The stream lines are built before tracing starts, so the figure is
    the session's state (links, timelines, feeds, logs), not its input.
    """
    from repro.serve.capture import synthetic_stream
    from repro.serve.server import ServeConfig, ServeSession

    lines = list(synthetic_stream(links, exchanges, **_synthetic_bases(seed)))
    tracemalloc.start()
    try:
        session = ServeSession(ServeConfig(detector=_synthetic_config()))
        result = session.run(lines)
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if len(result.links) != links:
        raise RuntimeError(f"memory pass tracked {len(result.links)} of {links} links")
    return current / 1024.0 / links


def serve_wide(
    seed: int,
    t0: float,
    tracer: Optional[SpanTracer],
    links: int,
    exchanges: int,
    clock: Clock = time.perf_counter,
) -> Dict[str, Any]:
    """Many shallow links, sinks off: lazy-ingest replay and attach."""
    return _synthetic(seed, t0, tracer, links, exchanges, False, clock)


def serve_deep(
    seed: int,
    t0: float,
    tracer: Optional[SpanTracer],
    links: int,
    exchanges: int,
    clock: Clock = time.perf_counter,
) -> Dict[str, Any]:
    """Few deep links, audit and provenance sinks on: ingest and flush."""
    return _synthetic(seed, t0, tracer, links, exchanges, True, clock)


WORKLOADS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "fig5-grid": fig5_grid,
    "replay16": replay16,
    "serve-wide": serve_wide,
    "serve-deep": serve_deep,
}


def run(
    name: str, seed: int, size: str, t0: float, tracer: Optional[SpanTracer]
) -> Dict[str, Any]:
    """One repeat of workload ``name``.

    A traced repeat runs inside :func:`installed`, then makes the
    workload's memory pass (if its size names ``memory_links``) with the
    layer wrappers removed again, so they allocate nothing it counts.
    """
    workload = WORKLOADS[name]
    params = dict(SIZES[name][size])
    memory_links = params.pop("memory_links", None)
    if tracer is None:
        return workload(seed, t0, None, **params)
    with installed(tracer):
        record = workload(seed, t0, tracer, **params)
    if memory_links is not None:
        record["layer"]["serve.mem_kb_per_link"] = memory_kb_per_link(
            seed, memory_links, params["exchanges"]
        )
    return record
