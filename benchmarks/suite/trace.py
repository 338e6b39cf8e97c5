"""An aggregating span tracer with a per-thread stack.

The benchmark wraps public layer entry points of ``repro`` from its own
files (see :func:`benchmarks.suite.layers.installed`) and reports where the
traced wall time went, layer by layer.  Two kinds of span exist:

* **per-event** spans (``coarse=False``) — ``ingest_*``, engine phases,
  hooks: far too many to keep, so each name only aggregates its count,
  inclusive time and self time;
* **coarse** spans (``coarse=True``) — trials, flushes, ``sync_ingest``,
  attaches: aggregated the same way *and* kept in memory with name,
  start, end, parent and run id, for the Chrome trace written at exit.

A span's self time is its duration minus the time its child spans cover,
so the self times of every span under a root, plus the root's own self
time (reported as ``other``), add up to the root's duration exactly.
The layer of a span is the text before the first dot of its name; the
benchmark's own structural spans use the ``bench`` prefix and count as
``other``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: span-name prefix of the benchmark's own structure (trial, run, setup)
BENCH_LAYER = "bench"


@dataclass
class Span:
    """One kept coarse span; ``parent`` indexes :attr:`SpanTracer.spans`."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int
    thread: int


class _Frame:
    __slots__ = ("name", "start", "children", "index")

    def __init__(self, name: str, start: float, index: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.children = 0.0
        self.index = index


class SpanTracer:
    """Aggregates spans per name; keeps coarse spans for a Chrome trace."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        #: name -> [count, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: name -> event count, for calls too hot to time
        self.counts: Dict[str, int] = {}
        self.spans: List[Span] = []
        #: the duration of every closed root span; a root starts a new run id
        self.roots: List[float] = []

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, coarse: bool = False) -> None:
        stack = self._stack()
        index = None
        if coarse:
            parent = next(
                (f.index for f in reversed(stack) if f.index is not None), None
            )
            index = len(self.spans)
            self.spans.append(
                Span(name, 0.0, 0.0, parent, len(self.roots), threading.get_ident())
            )
        frame = _Frame(name, self.clock(), index)
        if index is not None:
            self.spans[index].start = frame.start
        stack.append(frame)

    def end(self) -> float:
        """Close the innermost span; returns its duration."""
        now = self.clock()
        stack = self._stack()
        frame = stack.pop()
        duration = now - frame.start
        own = duration - frame.children
        total = self.totals.get(frame.name)
        if total is None:
            self.totals[frame.name] = [1, duration, own]
        else:
            total[0] += 1
            total[1] += duration
            total[2] += own
        if frame.index is not None:
            self.spans[frame.index].end = now
        if stack:
            stack[-1].children += duration
        else:
            self.roots.append(duration)
        return duration

    def span(self, name: str, coarse: bool = True) -> "_SpanContext":
        """``with tracer.span("bench.trial"): ...``"""
        return _SpanContext(self, name, coarse)

    def wrap(
        self, name: str, fn: Callable[..., Any], coarse: bool = False
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name`` on every call."""
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            begin(name, coarse)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` counted (not timed) as ``name`` on every call."""
        counts = self.counts
        counts.setdefault(name, 0)

        def count(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return count

    # -- reports -----------------------------------------------------------

    def wall(self) -> float:
        """Total duration of every root span."""
        return sum(self.roots)

    def layer_table(self) -> Dict[str, float]:
        """Self seconds per layer, plus ``other``; sums to :meth:`wall`."""
        table: Dict[str, float] = {"other": 0.0}
        for name, (_count, _inclusive, own) in self.totals.items():
            layer = name.split(".", 1)[0]
            if layer == BENCH_LAYER:
                layer = "other"
            table[layer] = table.get(layer, 0.0) + own
        return dict(sorted(table.items()))

    def self_seconds(self, *names: str) -> float:
        return sum(self.totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    def calls(self, *names: str) -> int:
        return int(sum(self.totals.get(name, (0, 0.0, 0.0))[0] for name in names))

    def chrome_trace(self, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Chrome trace-event JSON (object form): coarse spans as ``X``
        events, the per-name totals and the layer table alongside."""
        origin = min((s.start for s in self.spans), default=0.0)
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "benchmarks.suite"},
            }
        ]
        for index, span in enumerate(self.spans):
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": (span.end - span.start) * 1e6,
                    "pid": 1,
                    "tid": span.thread,
                    "args": {"id": index, "parent": span.parent, "run": span.run},
                }
            )
        payload: Dict[str, Any] = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "totals": {
                name: {"count": int(c), "inclusive_s": inc, "self_s": own}
                for name, (c, inc, own) in sorted(self.totals.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "layers": self.layer_table(),
            "wall_s": self.wall(),
        }
        if extra:
            payload.update(extra)
        return payload

    def write_chrome_trace(
        self, path: str, extra: Optional[Dict[str, Any]] = None
    ) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(extra), handle)


class _SpanContext:
    __slots__ = ("tracer", "name", "coarse")

    def __init__(self, tracer: SpanTracer, name: str, coarse: bool) -> None:
        self.tracer = tracer
        self.name = name
        self.coarse = coarse

    def __enter__(self) -> None:
        self.tracer.begin(self.name, self.coarse)

    def __exit__(self, *exc: Any) -> None:
        self.tracer.end()
