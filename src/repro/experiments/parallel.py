"""Deterministic process-pool execution of independent trials.

Every headline number in the paper is an average over many independent,
seeded runs (20 for the probability curves, 10,000 for the detection
probabilities).  The trials share nothing — each builds its own engine
from its own seed — so they parallelize embarrassingly.  This module
maps a trial function over a list of seeded task tuples with the
fork-pool substrate (:mod:`repro.util.pool`) while keeping every
observable output *identical* to the serial run:

* results come back in task order, regardless of completion order
  (:func:`repro.util.pool.fork_map`'s contract);
* each worker runs its trial against a fresh metrics registry and ships
  the snapshot home; the parent folds the snapshots back into the
  shared registry in task order (see
  :meth:`repro.obs.registry.MetricsRegistry.merge_snapshot`), so
  ``--metrics`` output and :class:`~repro.obs.manifest.RunManifest`
  contents do not depend on the worker count;
* the worker count never feeds into seeds, schedules, or aggregation
  order, so sweep points and rank-sum verdicts are byte-identical for
  any ``jobs``.

Trials must therefore be *pure functions of their task tuple* (plus
process-wide configuration like ``REPRO_SCALE``): no mutating shared
state, no RNG outside the seeded streams.  Task tuples and results
cross a process boundary, so both must pickle; when they cannot — or
when the platform has no ``fork`` — the substrate silently falls back
to the serial loop, which is always correct, just slower.

Worker-count resolution lives in :mod:`repro.util.pool` (first match
wins): the ``jobs=`` argument, :func:`set_default_jobs` (the CLI's
``--jobs`` flag), the ``REPRO_JOBS`` environment variable, else 1
(serial).  A value of 0 means "all CPU cores".
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.util.pool import fork_map

#: The trial function of the in-flight sweep, inherited by forked
#: workers (set immediately before the pool dispatch, cleared after).
#: Doubles as a re-entrancy latch: a trial that itself calls
#: run_trials — including inside a worker, where pools cannot nest —
#: runs serially.
_TRIAL_FN: Optional[Callable[[Any], Any]] = None


def _invoke_trial(item: Any) -> Any:
    """Run one trial in a worker against a private metrics registry."""
    from repro.obs.runtime import metrics_enabled, reset_metrics, shared_registry

    fn = _TRIAL_FN
    assert fn is not None, "_invoke_trial outside a run_trials pool"
    collect = metrics_enabled()
    if collect:
        # The fork copied the parent's registry; start from zero so the
        # snapshot we return holds exactly this trial's contribution.
        reset_metrics()
    result = fn(item)
    snapshot = shared_registry().snapshot() if collect else None
    return result, snapshot


def _invoke_trial_serial(item: Any) -> Any:
    """Parent-side serial path: run the trial against the live registry.

    No reset and no snapshot — serial trials feed the shared registry
    directly, exactly as a plain loop would.
    """
    fn = _TRIAL_FN
    assert fn is not None, "_invoke_trial_serial outside a run_trials call"
    return fn(item), None


def run_trials(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
) -> List[Any]:
    """``[fn(item) for item in items]``, possibly across processes.

    ``fn`` must be a module-level (picklable) function of one task
    tuple and free of side effects beyond the metrics registry.  The
    returned list is in task order.  Serial execution is used whenever
    it cannot make a difference (one job, one item) or parallel
    execution cannot be set up faithfully (no ``fork`` start method,
    unpicklable tasks, nested call from inside a worker).
    """
    global _TRIAL_FN
    items = list(items)
    if _TRIAL_FN is not None:
        # Nested sweep (possibly inside a worker): plain serial loop.
        return [fn(item) for item in items]
    _TRIAL_FN = fn
    try:
        outcomes = fork_map(
            _invoke_trial, items, jobs, serial_fn=_invoke_trial_serial
        )
    finally:
        _TRIAL_FN = None

    from repro.obs.runtime import metrics_enabled, shared_registry

    if metrics_enabled():
        registry = shared_registry()
        for _result, snapshot in outcomes:
            if snapshot is not None:
                registry.merge_snapshot(snapshot)
    return [result for result, _snapshot in outcomes]
