"""The hypothesis test wrapping the rank-sum statistic.

    H0: S is well-behaved.
    H1: S is malicious.

The monitor accumulates paired samples — dictated back-offs x (known
exactly from the announced PRS state) and estimated observed back-offs y
— and rejects H0 when the rank-sum test finds y significantly smaller
than x.  The significance level alpha bounds the false-alarm
(misdiagnosis) probability per window; the paper reports misdiagnosis
below 0.01, which corresponds to alpha = 0.01 here.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.core.ranksum import RankSumResult, check_alternative, rank_sum_test
from repro.util.validation import check_positive, check_probability


class TestDecision(enum.Enum):
    __test__ = False  # not a pytest class, despite the name

    REJECT_H0 = "reject"          # deem the tagged node malicious
    RETAIN_H0 = "retain"
    NOT_ENOUGH_SAMPLES = "pending"


class BackoffHypothesisTest:
    """Sliding-window rank-sum test over back-off sample pairs.

    Parameters
    ----------
    sample_size:
        Window length (the paper evaluates 10, 25, 50, 100).
    alpha:
        Significance level for rejecting H0.
    alternative:
        Passed to the rank-sum test; ``"less"`` (default) tests for
        *shorter* observed back-offs, the misbehavior of interest.
        ``"two-sided"`` also catches anomalously long back-offs.

    The window is a pair of lists holding the newest ``sample_size``
    pairs, oldest first: each append past ``sample_size`` drops the
    oldest pair.  A window costs only the samples it holds, so a link
    that never forms a sample carries two empty lists.
    """

    __slots__ = ("sample_size", "alpha", "alternative", "_x", "_y")

    def __init__(
        self,
        sample_size: int = 50,
        alpha: float = 0.01,
        alternative: str = "less",
    ) -> None:
        self.sample_size = int(check_positive(sample_size, "sample_size"))
        self.alpha = check_probability(alpha, "alpha")
        self.alternative = check_alternative(alternative)
        self._x: List[float] = []
        self._y: List[float] = []

    def add_sample(self, dictated: float, estimated: float) -> None:
        """Append one (x, y) pair, dropping the oldest past the window."""
        self._x.append(float(dictated))
        self._y.append(float(estimated))
        if len(self._x) > self.sample_size:
            del self._x[0], self._y[0]

    @property
    def n_samples(self) -> int:
        return len(self._x)

    @property
    def window_full(self) -> bool:
        return len(self._x) >= self.sample_size

    def reset(self) -> None:
        self._x.clear()
        self._y.clear()

    def window_snapshot(self) -> Tuple[List[float], List[float]]:
        """The current (x, y) window contents as independent lists.

        Serve's scheduler snapshots windows when they become ready and
        evaluates them together at its next flush; the copies keep later
        ``add_sample`` calls from mutating a pending window.
        """
        return list(self._x), list(self._y)

    def decide(self, result: RankSumResult) -> TestDecision:
        """Judge one rank-sum result at this window's alpha."""
        if result.p_value < self.alpha:
            return TestDecision.REJECT_H0
        return TestDecision.RETAIN_H0

    def evaluate(self) -> Tuple[TestDecision, Optional[RankSumResult]]:
        """Run the test on the current window.

        Returns ``(decision, result)`` where ``result`` is the
        :class:`~repro.core.ranksum.RankSumResult` (None while the
        window is short).
        """
        if not self.window_full:
            return TestDecision.NOT_ENOUGH_SAMPLES, None
        result = rank_sum_test(self._x, self._y, self.alternative)
        return self.decide(result), result
