"""Back-off policies: the honest one and misbehaving variants.

The paper parameterizes misbehavior with PM, the "percentage of
misbehavior": a node with PM = m% transmits after counting down only
(100 - m)% of its dictated back-off value.  We also implement the other
attack shapes the paper's introduction describes — a small constant
back-off, refusing to double the contention window on failure, and
drawing from a completely different distribution — all of which the
detector must catch.

A policy decides *what the node actually counts down*; the dictated
value (what the verifiable PRS obliges) is always computed from the
node's :class:`~repro.mac.prng.VerifiableBackoffPrng`, because that is
what monitors will check against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

from repro.util.validation import check_in_range, check_non_negative

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.mac.prng import VerifiableBackoffPrng
    from repro.util.rng import RngStream


class BackoffPolicy(ABC):
    """Maps the dictated back-off to the back-off actually used."""

    #: True for policies that follow the standard exactly: their
    #: ``actual_backoff`` is the dictated value, so the MAC uses that
    #: value without calling it.
    is_honest = False

    @abstractmethod
    def actual_backoff(
        self, prng: "VerifiableBackoffPrng", offset: int, attempt: int
    ) -> int:
        """Slots the node will really count down at (offset, attempt)."""

    def describe(self) -> str:
        """Short human-readable label for experiment reports."""
        return type(self).__name__


class HonestBackoff(BackoffPolicy):
    """Fully standard-compliant: count down exactly the dictated value."""

    is_honest = True

    def actual_backoff(
        self, prng: "VerifiableBackoffPrng", offset: int, attempt: int
    ) -> int:
        return prng.dictated_backoff(offset, attempt)


class PercentageMisbehavior(BackoffPolicy):
    """The paper's PM attack: use (100 - pm)% of the dictated back-off.

    ``pm = 0`` degenerates to honest behavior; ``pm = 100`` transmits
    with zero back-off every time.
    """

    def __init__(self, pm: float) -> None:
        self.pm = check_in_range(pm, 0, 100, "pm")

    @property
    def is_honest(self) -> bool:
        return self.pm == 0

    def actual_backoff(
        self, prng: "VerifiableBackoffPrng", offset: int, attempt: int
    ) -> int:
        dictated = prng.dictated_backoff(offset, attempt)
        return int(round(dictated * (100 - self.pm) / 100.0))

    def describe(self) -> str:
        return f"PercentageMisbehavior(pm={self.pm})"


class FixedBackoff(BackoffPolicy):
    """Always use the same (typically small) constant back-off."""

    def __init__(self, value: int) -> None:
        self.value = int(check_non_negative(value, "value"))

    def actual_backoff(
        self, prng: "VerifiableBackoffPrng", offset: int, attempt: int
    ) -> int:
        return self.value

    def describe(self) -> str:
        return f"FixedBackoff(value={self.value})"


class NoExponentialBackoff(BackoffPolicy):
    """Honors the PRS but never doubles the window on retransmission.

    This is the "different retransmission strategy" attack: first
    attempts look legitimate, retransmissions are drawn from [0, CWmin]
    instead of the doubled window.
    """

    def actual_backoff(
        self, prng: "VerifiableBackoffPrng", offset: int, attempt: int
    ) -> int:
        return prng.dictated_backoff(offset, 1)


class IntermittentMisbehavior(BackoffPolicy):
    """Cheats only a fraction of the time.

    A smarter attacker dilutes its misbehavior to slow detection: with
    probability ``cheat_probability`` it applies the inner policy,
    otherwise it behaves honestly.  The expected back-off shift scales
    with the dilution, which is exactly what the rank-sum test ends up
    integrating over a window.
    """

    def __init__(
        self,
        inner: BackoffPolicy,
        cheat_probability: float,
        rng: "RngStream",
    ) -> None:
        from repro.util.validation import check_probability

        if rng is None:
            raise ValueError("IntermittentMisbehavior requires an RngStream")
        self.inner = inner
        self.cheat_probability = check_probability(
            cheat_probability, "cheat_probability"
        )
        self._rng = rng
        self.cheated_draws = 0
        self.honest_draws = 0

    def actual_backoff(
        self, prng: "VerifiableBackoffPrng", offset: int, attempt: int
    ) -> int:
        if self._rng.uniform() < self.cheat_probability:
            self.cheated_draws += 1
            return self.inner.actual_backoff(prng, offset, attempt)
        self.honest_draws += 1
        return prng.dictated_backoff(offset, attempt)

    def describe(self) -> str:
        return (
            f"IntermittentMisbehavior(p={self.cheat_probability}, "
            f"inner={self.inner.describe()})"
        )


class AdaptiveLoadCheat(BackoffPolicy):
    """Cheats only when the channel is worth stealing.

    The paper notes misbehavior matters most at high load; a rational
    attacker would cheat only then (and look honest in light traffic,
    when monitors collect samples slowly anyway).  The policy reads the
    load from a callable — in the simulator, typically the node's own
    ARMA estimate or a supplied probe.
    """

    def __init__(
        self,
        inner: BackoffPolicy,
        load_probe: Callable[[], float],
        threshold: float = 0.5,
    ) -> None:
        from repro.util.validation import check_probability

        if not callable(load_probe):
            raise TypeError("load_probe must be callable")
        self.inner = inner
        self.load_probe = load_probe
        self.threshold = check_probability(threshold, "threshold")
        self.cheated_draws = 0
        self.honest_draws = 0

    def actual_backoff(
        self, prng: "VerifiableBackoffPrng", offset: int, attempt: int
    ) -> int:
        if self.load_probe() >= self.threshold:
            self.cheated_draws += 1
            return self.inner.actual_backoff(prng, offset, attempt)
        self.honest_draws += 1
        return prng.dictated_backoff(offset, attempt)

    def describe(self) -> str:
        return (
            f"AdaptiveLoadCheat(threshold={self.threshold}, "
            f"inner={self.inner.describe()})"
        )


class AlibiBackoff(BackoffPolicy):
    """One half of a colluding pair: cheat, and cover for your partner.

    Two deviations in one policy.  For its own traffic the node shrinks
    the dictated back-off by ``pm`` percent (the paper's PM attack).
    And whenever ``partner_probe()`` reports the partner mid-contention,
    it instead jumps in with a tiny ``cover_backoff`` draw — cover
    traffic that fills the partner's contention interval with busy
    slots, dragging the monitor's eq. 1–5 estimate of the partner's
    countdown toward the dictated value.  Wire a symmetric pair with
    :func:`repro.mac.adversary.install_colluding_pair`.
    """

    def __init__(
        self,
        partner_probe: Callable[[], bool],
        cover_backoff: int = 1,
        pm: float = 0.0,
    ) -> None:
        if not callable(partner_probe):
            raise TypeError("partner_probe must be callable")
        self.partner_probe = partner_probe
        self.cover_backoff = int(check_non_negative(cover_backoff, "cover_backoff"))
        self.pm = check_in_range(pm, 0, 100, "pm")
        self.cover_draws = 0
        self.own_draws = 0

    def actual_backoff(
        self, prng: "VerifiableBackoffPrng", offset: int, attempt: int
    ) -> int:
        if self.partner_probe():
            self.cover_draws += 1
            return self.cover_backoff
        self.own_draws += 1
        dictated = prng.dictated_backoff(offset, attempt)
        return int(round(dictated * (100 - self.pm) / 100.0))

    def describe(self) -> str:
        return (
            f"AlibiBackoff(pm={self.pm}, cover_backoff={self.cover_backoff})"
        )


class AlienDistributionBackoff(BackoffPolicy):
    """Ignores the dictated PRS entirely; draws from its own uniform.

    ``cw`` bounds the private distribution; a selfish node would pick
    something far below CWmin.
    """

    def __init__(self, rng: "RngStream", cw: int = 7) -> None:
        if rng is None:
            raise ValueError("AlienDistributionBackoff requires an RngStream")
        self._rng = rng
        self.cw = int(check_non_negative(cw, "cw"))

    def actual_backoff(
        self, prng: "VerifiableBackoffPrng", offset: int, attempt: int
    ) -> int:
        return self._rng.integers(0, self.cw + 1)

    def describe(self) -> str:
        return f"AlienDistributionBackoff(cw={self.cw})"
