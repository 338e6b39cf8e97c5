"""Deterministic fork-based process-pool mapping (the pool substrate).

This is the layer-0 core of the repo's parallelism story: a single
``fork_map`` primitive that maps a function over a work list with a
``fork`` process pool while keeping every observable output *identical*
to the serial loop:

* results come back in item order, regardless of completion order;
* the worker count never feeds into the work items themselves, so a
  caller whose items are pure functions of their inputs gets
  byte-identical results for any ``jobs`` value;
* whenever the parallel path cannot be set up faithfully — one job, one
  item, no ``fork`` start method, unpicklable items or results, or a
  nested call from inside a worker — execution silently falls back to a
  serial loop, which is always correct, just slower;
* an exception raised by ``fn`` itself is *not* a setup failure: it
  propagates from the parent once, chained to the worker's traceback,
  and no item is re-run.

Higher layers build policy on top of this mechanism:
:mod:`repro.experiments.parallel` adds per-trial metrics-snapshot
merging for experiment sweeps.  The substrate lives in ``util`` (rank 0
in the layering DAG) so any layer can use it.

Worker-count resolution (first match wins): the ``jobs=`` argument,
:func:`set_default_jobs` (the CLI's ``--jobs`` flag), the ``REPRO_JOBS``
environment variable, else 1 (serial).  A value of 0 means "all CPU
cores".

The function handed to ``fork_map`` is *inherited by the forked
workers* rather than pickled, so closures and locally-composed wrappers
work; only the items and the results cross the process boundary and
must pickle.  Callers that need different parent-side behaviour on the
serial path (e.g. not resetting a metrics registry that workers reset
freely in their forked copies) pass ``serial_fn``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import pickle
from typing import Any, Callable, List, Optional, Sequence

#: Environment variable holding the default worker count.
JOBS_ENV = "REPRO_JOBS"

_default_jobs: Optional[int] = None

#: The work function of the in-flight pool, inherited by forked workers
#: (set immediately before the fork, cleared after).  Doubles as a
#: re-entrancy latch: a work item that itself calls ``fork_map`` —
#: including inside a worker, where pools cannot nest — runs serially.
_WORK_FN: Optional[Callable[[Any], Any]] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Install a process-wide default worker count (the ``--jobs`` flag).

    ``None`` clears the default, falling back to ``REPRO_JOBS``.
    """
    global _default_jobs
    _default_jobs = None if jobs is None else int(jobs)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count: argument, default, env var, or 1.

    0 (from any source) means "all CPU cores"; the result is always
    >= 1.
    """
    if jobs is None:
        jobs = _default_jobs
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError as exc:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {raw!r}"
                ) from exc
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(jobs, 1)


def _invoke(item: Any) -> Any:
    """Worker-side trampoline: run the fork-inherited function."""
    fn = _WORK_FN
    assert fn is not None, "_invoke outside a fork_map pool"
    return fn(item)


def fork_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    serial_fn: Optional[Callable[[Any], Any]] = None,
) -> List[Any]:
    """``[fn(item) for item in items]``, possibly across forked processes.

    ``fn`` runs in the workers (inherited through ``fork``, so it need
    not pickle — items and results must).  ``serial_fn`` (default:
    ``fn``) runs in the parent whenever the serial path is taken; pass a
    distinct function when worker-side ``fn`` performs process-local
    setup that must not happen in the parent.  Both must compute the
    same results for the output to be path-independent.  The returned
    list is in item order.
    """
    global _WORK_FN
    if serial_fn is None:
        serial_fn = fn
    items = list(items)
    jobs = min(resolve_jobs(jobs), len(items))
    if jobs <= 1 or _WORK_FN is not None:
        return [serial_fn(item) for item in items]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork (Windows): stay correct
        return [serial_fn(item) for item in items]
    try:
        # Probe the items here rather than catching pickling errors
        # around the map, where they are indistinguishable from the
        # same exception types raised by ``fn`` itself.
        pickle.dumps(items)
    except (pickle.PicklingError, AttributeError, TypeError):
        return [serial_fn(item) for item in items]
    _WORK_FN = fn
    try:
        try:
            pool = ctx.Pool(processes=jobs)
        except OSError:  # fork/pipe failure
            return [serial_fn(item) for item in items]
        try:
            with pool:
                # chunksize=1: item costs are uneven (detection trials
                # stop on a sample-count condition), so fine-grained
                # dispatch keeps the pool busy.
                return pool.map(_invoke, items, chunksize=1)
        except multiprocessing.pool.MaybeEncodingError:  # unpicklable result
            # Work items are pure, so re-running serially is safe.
            return [serial_fn(item) for item in items]
    finally:
        _WORK_FN = None
