"""The open-loop generator charges a stall to every line queued behind it."""

from __future__ import annotations

import pytest

from benchmarks.suite.loadgen import run_open_loop


class FakeTime:
    """A clock that moves only when the session works or the generator
    sleeps, so every timing below is exact."""

    def __init__(self) -> None:
        self.now = 100.0
        self.sleeps = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


RATE = 1000.0          # one line due every 1 ms
SERVICE = 0.0002       # 0.2 ms per line
STALL_LINE = 5
STALL = 0.0105         # 10.5 ms


def _run():
    fake = FakeTime()
    handled = []

    def handle(line: str) -> None:
        handled.append(line)
        fake.now += STALL if line == f"line{STALL_LINE}" else SERVICE

    lines = [f"line{i}" for i in range(30)]
    result = run_open_loop(lines, handle, RATE, clock=fake.clock, sleep=fake.sleep)
    return fake, handled, lines, result


def test_lines_are_due_on_schedule_and_all_handled() -> None:
    _fake, handled, lines, result = _run()
    assert handled == lines
    assert list(result.due) == pytest.approx([100.0 + i / RATE for i in range(30)])


def test_stall_is_charged_to_every_line_queued_behind_it() -> None:
    _fake, _handled, _lines, result = _run()
    stall_end = result.due[STALL_LINE] + STALL
    queued = [i for i in range(STALL_LINE + 1, 30) if result.due[i] < stall_end]
    assert queued == list(range(STALL_LINE + 1, STALL_LINE + 11))
    for i in queued:
        # handed over only when the stall ended, and timed from its due time
        assert result.lag[i] >= stall_end - result.due[i] - 1e-12
        assert result.latency[i] >= stall_end - result.due[i] + SERVICE - 1e-12
    # the backlog drains one service time per line, so the lines after it
    # are late by exactly the stall minus the schedule they caught up on
    first = STALL_LINE + 1
    assert result.latency[first] == pytest.approx(STALL - 1 / RATE + SERVICE)
    assert result.max_lag_s == pytest.approx(STALL - 1 / RATE)


def test_ahead_of_schedule_it_sleeps_instead_of_spinning() -> None:
    fake, _handled, _lines, result = _run()
    before = range(STALL_LINE)
    assert all(result.lag[i] == pytest.approx(0.0) for i in before)
    assert all(result.latency[i] == pytest.approx(SERVICE) for i in before)
    assert fake.sleeps and all(s > 0 for s in fake.sleeps)
    assert result.sleep_s == pytest.approx(sum(fake.sleeps))
    assert result.busy_s == pytest.approx(29 * SERVICE + STALL)
    assert result.wall_s == pytest.approx(result.busy_s + result.sleep_s)


def test_rate_must_be_positive() -> None:
    with pytest.raises(ValueError):
        run_open_loop(["x"], lambda line: None, 0.0)
