"""Sharded stream replay over the fork pool.

Every worker parses the *whole* stream (parsing is cheap and keeps the
stream-level counters worker-identical) but attaches only the links its
:func:`~repro.serve.server.shard_of` hash owns.  Because link ownership
and the global attach numbering are pure functions of the stream, the
merged per-link artifacts — and the event-tag-merged audit/provenance
interleavings — are byte-identical at any worker count.

The one contract caveat: ``max_links`` caps the total, so each worker's
table holds ``max_links // workers`` links and LRU eviction runs per
worker table; a capped run therefore only matches across worker counts
when no eviction fires (the soak suite caps at ``jobs=1``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional, Sequence, TextIO

from repro.obs.registry import MetricsRegistry
from repro.serve.links import LinkKey
from repro.serve.server import ServeConfig, ServeResult, ServeSession
from repro.util.pool import fork_map, resolve_jobs


def run_serve(
    lines: Iterable[str],
    config: Optional[ServeConfig] = None,
    links: Sequence[LinkKey] = (),
    jobs: Optional[int] = None,
    audit_sink: Optional[TextIO] = None,
    provenance_sink: Optional[TextIO] = None,
) -> ServeResult:
    """Replay a stream through one session or a sharded worker set.

    At ``jobs=1`` the audit/provenance sinks receive records
    *incrementally*: each flush appends the newly concrete rows, and a
    flush comes within one exchange of stream time of the end event that
    made them.  With workers the per-shard records are event-tag-merged
    and written once at the end — same bytes, different latency.

    ``config.max_links`` caps the links tracked across all workers: each
    worker's table holds ``max_links // workers``, and a cap below the
    worker count raises ``ValueError`` before any worker starts.
    """
    base = config if config is not None else ServeConfig()
    worker_count = resolve_jobs(jobs)
    if worker_count <= 1:
        session = ServeSession(
            replace(base, shard_index=0, shard_count=1),
            links=links,
            audit_sink=audit_sink,
            provenance_sink=provenance_sink,
        )
        return session.run(lines)
    worker_cap: Optional[int] = None
    if base.max_links is not None:
        if base.max_links < worker_count:
            raise ValueError(
                f"max_links {base.max_links} is below the worker count "
                f"{worker_count}: every worker needs room for one link"
            )
        worker_cap = base.max_links // worker_count
    # Workers each need the full stream; materialize once, fork shares
    # the pages copy-on-write.
    line_list = list(lines)

    def _run_shard(shard_index: int) -> ServeResult:
        session = ServeSession(
            replace(
                base,
                shard_index=shard_index,
                shard_count=worker_count,
                max_links=worker_cap,
            ),
            links=links,
        )
        return session.run(line_list)

    shards = fork_map(_run_shard, list(range(worker_count)), jobs=worker_count)
    merged = merge_results([s for s in shards if s is not None])
    if audit_sink is not None:
        text = merged.audit_jsonl()
        if text:
            audit_sink.write(text + "\n")
    if provenance_sink is not None:
        text = merged.provenance_jsonl()
        if text:
            provenance_sink.write(text + "\n")
    return merged


def merge_results(shards: Sequence[ServeResult]) -> ServeResult:
    """Fold per-shard results into one (see module docstring)."""
    if not shards:
        raise ValueError("no shard results to merge")
    links = sorted(
        (link for shard in shards for link in shard.links),
        key=lambda link: link.attach_seq,
    )
    # Stream-level counters are worker-identical (every shard parses
    # every line); link-level counters are disjoint and add.
    link_registry = MetricsRegistry()
    tracked = 0.0
    for shard in shards:
        snapshot = dict(shard.link_snapshot)
        gauges = dict(snapshot.get("gauges", {}))  # type: ignore[arg-type]
        tracked += float(gauges.pop("serve.links.tracked", 0.0))
        snapshot["gauges"] = gauges
        link_registry.merge_snapshot(snapshot)
    link_registry.set_gauge("serve.links.tracked", tracked)
    return ServeResult(
        links=links,
        stream_snapshot=shards[0].stream_snapshot,
        link_snapshot=link_registry.snapshot(),
        events=shards[0].events,
        flushes=sum(shard.flushes for shard in shards),
        pruned_intervals=sum(shard.pruned_intervals for shard in shards),
        compacted_observations=sum(
            shard.compacted_observations for shard in shards
        ),
        evicted_links=sum(shard.evicted_links for shard in shards),
        jobs=len(shards),
    )
