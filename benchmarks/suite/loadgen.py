"""The open-loop load generator.

Line ``i`` is due at ``start + i / rate`` whether or not the session has
finished line ``i - 1``: independent producers do not wait for the
service.  The generator and the session share one thread, so a line
that comes due while the session is busy waits in an implicit queue and
is handed over as soon as the session returns; every time is measured
from the line's due time, so a stall is charged to every line queued
behind it.  Ahead of schedule the generator sleeps (never spins) until
the next due time, and records how late it handed each line over
(``lag``).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class OpenLoopResult:
    """Per-line timings of one open-loop run, in seconds."""

    #: when each line was due, on the generator's clock
    due: "array[float]"
    #: due time to the moment the session finished the line
    latency: "array[float]"
    #: due time to the moment the line was handed over
    lag: "array[float]"
    #: total time the session spent handling lines
    busy_s: float
    #: total time the generator slept waiting for due times
    sleep_s: float
    #: first due time to the last line finished
    wall_s: float

    @property
    def max_lag_s(self) -> float:
        return max(self.lag, default=0.0)


def run_open_loop(
    lines: Sequence[str],
    handle: Callable[[str], object],
    rate: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopResult:
    """Hand ``lines`` to ``handle`` at ``rate`` lines per second."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    period = 1.0 / rate
    due = array("d")
    latency = array("d")
    lag = array("d")
    busy = 0.0
    slept = 0.0
    start = clock()
    for index, line in enumerate(lines):
        due_at = start + index * period
        now = clock()
        if now < due_at:
            sleep(due_at - now)
            after = clock()
            slept += after - now
            now = after
        handle(line)
        done = clock()
        busy += done - now
        due.append(due_at)
        lag.append(now - due_at)
        latency.append(done - due_at)
    end = clock()
    return OpenLoopResult(
        due=due,
        latency=latency,
        lag=lag,
        busy_s=busy,
        sleep_s=slept,
        wall_s=end - start,
    )
