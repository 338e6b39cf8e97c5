"""Bianchi's DCF model and the competing-terminals estimator.

Bianchi (2000) models saturated DCF with two coupled equations over the
per-slot transmission probability ``tau`` and the conditional collision
probability ``p`` for ``n`` competing stations:

    tau = 2(1-2p) / [ (1-2p)(W+1) + p W (1 - (2p)^m) ]
    p   = 1 - (1 - tau)^(n-1)

Bianchi & Tinnirello (2003) invert this at run time: a station measures
``p`` (the fraction of its transmission attempts that fail) and solves
for the number of competing terminals

    n = 1 + ln(1 - p) / ln(1 - tau(p)).

The paper uses that estimate to approximate the local node density that
feeds the region node counts of eqs. 3-4.  We implement the fixed-point
model (for tests and the forward direction) and the closed-form
inversion (for the monitor).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.util.validation import check_in_range, check_positive


class BianchiModel:
    """The saturated-DCF fixed point for a given contention configuration.

    ``cw_min`` is the initial contention window CWmin (back-off drawn
    from [0, cw_min]); ``stages`` the number of doublings m, so
    CWmax = 2^m (CWmin+1) - 1.
    """

    def __init__(self, cw_min: int = 31, stages: int = 5) -> None:
        self.w = int(check_positive(cw_min, "cw_min")) + 1
        self.stages = int(check_positive(stages, "stages"))

    def tau_of_p(self, p: float) -> float:
        """Per-slot transmission probability given collision prob ``p``.

        Uses the series form ``tau = 2 / (1 + W + p W sum_{i<m} (2p)^i)``,
        which equals Bianchi's closed form but has no removable
        singularity at p = 1/2.
        """
        check_in_range(p, 0.0, 1.0, "p")
        w, m = self.w, self.stages
        series = sum((2.0 * p) ** i for i in range(m))
        return 2.0 / (1.0 + w + p * w * series)

    def p_of_tau(self, tau: float, n: float) -> float:
        """Collision probability seen by one of ``n`` stations."""
        check_in_range(tau, 0.0, 1.0, "tau")
        check_positive(n, "n")
        return 1.0 - (1.0 - tau) ** (n - 1)

    def solve(
        self,
        n: float,
        tolerance: float = 1e-10,
        max_iterations: int = 10_000,
    ) -> Tuple[float, float]:
        """Fixed point (tau, p) for ``n`` saturated stations.

        Solved by damped iteration; the map is a contraction for the
        practical parameter range, and the damping guards the rest.
        """
        check_positive(n, "n")
        p = 0.1
        for _ in range(max_iterations):
            tau = self.tau_of_p(p)
            p_next = self.p_of_tau(tau, n)
            if abs(p_next - p) < tolerance:
                return tau, p_next
            p = 0.5 * p + 0.5 * p_next
        return self.tau_of_p(p), p


#: The default contention configuration's model; it holds only
#: ``(w, stages)``, so every default estimator shares it.
_DEFAULT_MODEL = BianchiModel()


class CompetingTerminalEstimator:
    """Run-time estimate of the number of competing terminals.

    Feed measured transmission outcomes (or an externally smoothed
    collision probability); read ``estimate`` for n-hat.  Outcome
    smoothing uses the same exponential filter family as the ARMA
    traffic estimator.
    """

    __slots__ = ("model", "alpha", "_p_hat", "samples")

    def __init__(
        self, model: Optional[BianchiModel] = None, alpha: float = 0.995
    ) -> None:
        self.model = model if model is not None else _DEFAULT_MODEL
        self.alpha = check_in_range(alpha, 0.0, 1.0, "alpha")
        self._p_hat: Optional[float] = None
        self.samples = 0

    def record_attempt(self, collided: bool) -> None:
        """Record one observed transmission attempt and its outcome."""
        value = 1.0 if collided else 0.0
        if self._p_hat is None:
            self._p_hat = value
        else:
            self._p_hat = self.alpha * self._p_hat + (1.0 - self.alpha) * value
        self.samples += 1

    @property
    def collision_probability(self) -> float:
        return self._p_hat if self._p_hat is not None else 0.0

    def terminals_for(self, p: float) -> float:
        """Closed-form n-hat for a given collision probability.

        ``p`` is clamped just below 1: a transient all-collisions
        measurement (e.g. the filter seeded by an early failure) would
        otherwise put ``log(1 - p)`` out of domain.
        """
        check_in_range(p, 0.0, 1.0, "p")
        if p <= 0.0:
            return 1.0
        p = min(p, 1.0 - 1e-9)
        tau = self.model.tau_of_p(p)
        if tau <= 0.0 or tau >= 1.0:
            return 1.0
        return 1.0 + math.log(1.0 - p) / math.log(1.0 - tau)

    @property
    def estimate(self) -> float:
        """Current n-hat (1.0 before any data)."""
        return self.terminals_for(self.collision_probability)
