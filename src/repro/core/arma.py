"""Online traffic-intensity estimation: the ARMA filter of paper eq. 6.

    rho(t+1) = alpha * rho(t) + (1 - alpha) * (1/s) * sum_{i=1..s} b_i

where ``b_i`` is 1 if the node sensed slot i busy and 0 otherwise, ``s``
is the sample-interval length in slots, and ``alpha = 0.995`` (the paper
takes the value from Bianchi & Tinnirello's run-time estimator and notes
the results are insensitive to alpha as long as it is close to 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.util.units import Slots
from repro.util.validation import check_in_range, check_positive

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.core.observation import ChannelViewBase


class ArmaTrafficEstimator:
    """Smoothed estimate of the local traffic intensity rho.

    Feed it one *sample interval* at a time via :meth:`update` (the mean
    busy fraction of the last ``s`` slots), let it consume raw slot
    counts with :meth:`ingest`, which buffers until a full interval is
    available, or hand it a busy timeline with :meth:`fold`.  Until the
    first full interval the estimate reports the running raw mean, so
    early reads are sensible rather than zero.
    """

    __slots__ = (
        "alpha",
        "sample_interval_slots",
        "_estimate",
        "_pending_busy",
        "_pending_total",
        "intervals_consumed",
    )

    def __init__(
        self, alpha: float = 0.995, sample_interval_slots: int = 500
    ) -> None:
        self.alpha = check_in_range(alpha, 0.0, 1.0, "alpha")
        self.sample_interval_slots = int(
            check_positive(sample_interval_slots, "sample_interval_slots")
        )
        self._estimate: Optional[float] = None
        self._pending_busy = 0.0
        self._pending_total = 0.0
        self.intervals_consumed = 0

    @property
    def estimate(self) -> float:
        """Current rho estimate in [0, 1] (0.0 before any data)."""
        if self._estimate is not None:
            return self._estimate
        if self._pending_total > 0:
            return self._pending_busy / self._pending_total
        return 0.0

    @property
    def pending_busy(self) -> float:
        """Busy slot mass buffered toward the next full interval."""
        return self._pending_busy

    @property
    def pending_total(self) -> float:
        """Total slot mass buffered toward the next full interval."""
        return self._pending_total

    @property
    def warmed_up(self) -> bool:
        """True once at least one full sample interval was absorbed."""
        return self._estimate is not None

    def update(self, busy_fraction: float) -> float:
        """Absorb one sample interval's mean busy fraction."""
        check_in_range(busy_fraction, 0.0, 1.0, "busy_fraction")
        if self._estimate is None:
            self._estimate = busy_fraction
        else:
            self._estimate = (
                self.alpha * self._estimate + (1.0 - self.alpha) * busy_fraction
            )
        self.intervals_consumed += 1
        return self._estimate

    def ingest(self, busy_slots: int, total_slots: int) -> None:
        """Absorb raw slot counts, applying eq. 6 per full interval."""
        if busy_slots < 0 or total_slots < 0 or busy_slots > total_slots:
            raise ValueError(
                f"invalid slot counts: busy={busy_slots}, total={total_slots}"
            )
        self._pending_busy += busy_slots
        self._pending_total += total_slots
        s = self.sample_interval_slots
        while self._pending_total >= s:
            if self._pending_total == s:
                # The counts close the interval exactly: fold its exact
                # busy count and leave nothing pending.
                busy = self._pending_busy
                self._pending_busy = 0.0
                self._pending_total = 0.0
                self.update(min(busy / s, 1.0))
                return
            # Counts straddling a boundary say nothing about where their
            # busy slots fall, so the pending fraction is apportioned to
            # the completed interval.  :meth:`fold` cuts at boundaries and
            # only ever reaches this branch with nothing busy pending.
            fraction = self._pending_busy / self._pending_total
            take_busy = fraction * s
            self.update(min(max(take_busy / s, 0.0), 1.0))
            self._pending_total -= s
            self._pending_busy = max(self._pending_busy - take_busy, 0.0)

    def fold(self, view: "ChannelViewBase", start: Slots, end: Slots) -> None:
        """Ingest ``view``'s busy timeline over ``[start, end)``.

        The span is cut at sample-interval boundaries (counted from the
        first folded slot), so every completed interval folds its exact
        busy count and rho is a function of the timeline alone: folding
        ``[a, c)`` equals folding ``[a, b)`` then ``[b, c)``, bit for
        bit, for every ``b``.  Once on a boundary with nothing busy
        past the cursor, the idle rest goes to :meth:`ingest` in one
        call (each idle interval still folds one :meth:`update`).
        """
        s = self.sample_interval_slots
        cursor = start
        while cursor < end:
            pending = int(self._pending_total)
            if pending == 0 and not view.busy_after(cursor):
                self.ingest(0, end - cursor)
                return
            stop = min(end, cursor + s - pending)
            self.ingest(view.busy_slots_in(cursor, stop), stop - cursor)
            cursor = stop
