"""The span tracer: self + children = inclusive, layers sum to wall."""

from __future__ import annotations

import json

import pytest

from benchmarks.suite.trace import SpanTracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _nested_run(tracer: SpanTracer, clock: FakeClock) -> None:
    """bench.run 10s: 1s own, a 6s trial (2s own, 3s of per-event
    ingest across three calls, 1s sim), then 3s own."""
    with tracer.span("bench.run"):
        clock.advance(1.0)
        with tracer.span("bench.trial"):
            clock.advance(2.0)
            ingest = tracer.wrap("observatory.ingest", lambda: clock.advance(1.0))
            for _ in range(3):
                ingest()
            with tracer.span("sim.events", coarse=False):
                clock.advance(1.0)
        clock.advance(3.0)


def test_self_plus_children_equals_inclusive() -> None:
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    _nested_run(tracer, clock)
    totals = tracer.totals
    assert totals["observatory.ingest"] == [3, 3.0, 3.0]
    assert totals["sim.events"] == [1, 1.0, 1.0]
    count, inclusive, own = totals["bench.trial"]
    assert (count, inclusive, own) == (1, 6.0, 2.0)
    assert own + totals["observatory.ingest"][1] + totals["sim.events"][1] == inclusive
    count, inclusive, own = totals["bench.run"]
    assert (count, inclusive, own) == (1, 10.0, 4.0)
    assert own + totals["bench.trial"][1] == inclusive


def test_layer_table_sums_to_wall() -> None:
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    _nested_run(tracer, clock)
    _nested_run(tracer, clock)
    table = tracer.layer_table()
    assert tracer.wall() == pytest.approx(20.0)
    assert sum(table.values()) == pytest.approx(tracer.wall())
    assert table == {"observatory": 6.0, "other": 12.0, "sim": 2.0}


def test_coarse_spans_keep_parent_and_run() -> None:
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    _nested_run(tracer, clock)
    _nested_run(tracer, clock)
    names = [(s.name, s.parent, s.run) for s in tracer.spans]
    # per-event spans (ingest, sim.events) are aggregated, not kept
    assert names == [
        ("bench.run", None, 0),
        ("bench.trial", 0, 0),
        ("bench.run", None, 1),
        ("bench.trial", 2, 1),
    ]
    trial = tracer.spans[1]
    assert (trial.start, trial.end) == (1.0, 7.0)


def test_counted_and_exceptions() -> None:
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    fold = tracer.counted("arma.fold", lambda x: x + 1)
    assert [fold(i) for i in range(4)] == [1, 2, 3, 4]
    assert tracer.counts["arma.fold"] == 4

    def boom() -> None:
        clock.advance(2.0)
        raise ValueError("boom")

    with tracer.span("bench.run"):
        with pytest.raises(ValueError):
            tracer.wrap("serve.handle_line", boom)()
        clock.advance(1.0)
    assert tracer.totals["serve.handle_line"] == [1, 2.0, 2.0]
    assert tracer.totals["bench.run"] == [1, 3.0, 1.0]


def test_chrome_trace_is_trace_event_json(tmp_path) -> None:
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    _nested_run(tracer, clock)
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path), extra={"workload": "unit"})
    data = json.loads(path.read_text())
    complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["bench.run", "bench.trial"]
    for event in complete:
        assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)
    assert complete[1]["ts"] == pytest.approx(1e6)
    assert complete[1]["dur"] == pytest.approx(6e6)
    assert data["layers"]["observatory"] == pytest.approx(3.0)
    assert data["workload"] == "unit"
