"""Spans around the public entry points of each ``repro`` layer.

:func:`installed` patches the classes below for the duration of a
``with`` block, so only the traced subprocess pays for tracing; nothing
under ``src/`` knows about it.  Patches go on the classes, before any
simulation is built, because the engine binds its listener hooks when
a listener is added.

Span names are ``<layer>.<entry point>``; the layers are the ``repro``
modules the README's layer table lists.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator, List, Tuple

from benchmarks.suite.trace import SpanTracer


def _entry_points() -> Tuple[list, list]:
    """``(timed, counted)``: ``(class, method, span name, coarse)`` and
    ``(class, method, counter name)`` for every wrapped entry point."""
    from repro.core.arma import ArmaTrafficEstimator
    from repro.core.hypothesis import BackoffHypothesisTest
    from repro.core.observatory import SharedChannelObservatory as Observatory
    from repro.core.sysstate import SystemStateEstimator
    from repro.phy.medium import Medium
    from repro.serve.server import ServeSession
    from repro.sim.network import Simulation

    timed = [
        (Simulation, "run", "sim.run", True),
        (Observatory, "on_transmission_start", "observatory.hook", False),
        (Observatory, "on_transmission_end", "observatory.hook", False),
        (Observatory, "ingest_start", "observatory.ingest", False),
        (Observatory, "ingest_end", "observatory.ingest", False),
        (Observatory, "ingest_positions", "observatory.ingest", False),
        (Observatory, "sync_ingest", "observatory.sync", True),
        (Observatory, "attach", "observatory.attach", True),
        (Medium, "update_positions", "phy.epoch", True),
        (SystemStateEstimator, "estimate_sender_slots", "detector.estimate", False),
        (BackoffHypothesisTest, "evaluate", "stats.evaluate", False),
        (ServeSession, "run", "serve.run", True),
        (ServeSession, "handle_line", "serve.handle_line", False),
        (ServeSession, "finish", "serve.finish", True),
    ]
    # too hot to time: only counted, their time stays with the caller
    counted = [(ArmaTrafficEstimator, "ingest", "arma.fold")]
    return timed, counted


def _traced_flush(
    tracer: SpanTracer, flush: Callable[..., Any]
) -> Callable[..., Any]:
    """``BatchScheduler.flush``, traced only when windows are pending.

    The observatory calls its own (empty, under the scalar backend)
    scheduler's flush after every end event; those calls do no work and
    would drown the real flush count.
    """
    counts = tracer.counts
    counts.setdefault("stats.flush_windows", 0)

    def traced(scheduler: Any) -> Any:
        pending = len(scheduler)
        if not pending:
            return flush(scheduler)
        counts["stats.flush_windows"] += pending
        tracer.begin("stats.flush", True)
        try:
            return flush(scheduler)
        finally:
            tracer.end()

    return traced


@contextlib.contextmanager
def installed(tracer: SpanTracer) -> Iterator[SpanTracer]:
    """Patch every layer entry point for the block, then restore them."""
    originals: List[Tuple[Any, str, Any]] = []

    def patch(cls: Any, method: str, replacement: Any) -> None:
        originals.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, replacement)

    from repro.core.observatory import BatchScheduler

    timed, counted = _entry_points()
    try:
        for cls, method, span, coarse in timed:
            patch(cls, method, tracer.wrap(span, getattr(cls, method), coarse))
        for cls, method, counter in counted:
            patch(cls, method, tracer.counted(counter, getattr(cls, method)))
        patch(BatchScheduler, "flush", _traced_flush(tracer, BatchScheduler.flush))
        yield tracer
    finally:
        for cls, method, original in reversed(originals):
            setattr(cls, method, original)


def instrument_engine(tracer: SpanTracer, sim: Any) -> None:
    """Time the engine's two phases through its public seam, and count
    the events each slot batch dispatches."""
    counts = tracer.counts
    counts.setdefault("sim.events", 0)

    def wrap(phase: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        traced = tracer.wrap(f"sim.{phase}", fn)
        if phase != "events":
            return traced

        def events(slot: int, batch: list) -> Any:
            counts["sim.events"] += len(batch)
            return traced(slot, batch)

        return events

    sim.engine.instrument_phases(wrap)
