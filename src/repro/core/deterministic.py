"""Deterministic misbehavior checks (paper Section 4).

Three violations are detectable with certainty, no statistics needed:

1. **Sequence-offset cheating** — the announced SeqOff# must advance by
   exactly one per transmission.  A monitor that hears two consecutive
   RTS frames with a non-advancing (or regressing) offset has caught the
   sender red-handed; gaps are allowed (the monitor may have missed
   frames to collisions).
2. **Attempt-number cheating** — retransmissions of the *same* DATA
   packet (identified by its MD5 digest in the RTS) must carry strictly
   increasing attempt numbers, and a fresh packet must start at
   attempt 1.  Re-announcing attempt 1 resets the contention window to
   CWmin, which is exactly the advantage a cheater wants.
3. **Blatant countdown violations** — when the monitor's channel was
   idle for the tagged node's whole contention interval there is no
   estimation uncertainty: the sender must have counted the full
   dictated value, and an observed countdown materially shorter than
   dictated is a violation (a small tolerance absorbs slot-quantization
   and DIFS-alignment error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mac.frames import SEQ_OFF_MODULUS, RtsFrame


@dataclass(frozen=True)
class DeterministicViolation:
    """A violation established without statistical inference."""

    kind: str          # "seq_offset" | "attempt_number" | "blatant_countdown"
    slot: int
    detail: str


class SequenceOffsetVerifier:
    """Checks SeqOff# monotonicity across observed RTS frames.

    Works on the wrapped 13-bit field: an advance of ``delta`` frames is
    read modulo 8192, and anything that is not a positive advance within
    ``max_gap`` (missed-frame allowance) is flagged.
    """

    __slots__ = ("max_gap", "_last_field")

    def __init__(self, max_gap: int = 64) -> None:
        if max_gap < 1 or max_gap >= SEQ_OFF_MODULUS // 2:
            raise ValueError(f"max_gap must be in [1, {SEQ_OFF_MODULUS // 2}), got {max_gap}")
        self.max_gap = max_gap
        self._last_field: Optional[int] = None

    def observe(
        self, rts: RtsFrame, slot: int
    ) -> Optional[DeterministicViolation]:
        """Returns a :class:`DeterministicViolation` or None."""
        field = rts.seq_off_field
        violation = None
        if self._last_field is not None:
            advance = (field - self._last_field) % SEQ_OFF_MODULUS
            if advance == 0 or advance > self.max_gap:
                violation = DeterministicViolation(
                    kind="seq_offset",
                    slot=slot,
                    detail=(
                        f"SeqOff# advanced by {advance} (mod {SEQ_OFF_MODULUS}) "
                        f"from {self._last_field} to {field}"
                    ),
                )
        self._last_field = field
        return violation

    @property
    def last_field(self) -> Optional[int]:
        """The last observed (wrapped) SeqOff# field, or None."""
        return self._last_field

    def reset(self) -> None:
        self._last_field = None


class AttemptNumberVerifier:
    """Checks Attempt# consistency against the DATA digest."""

    __slots__ = ("_last_digest", "_last_attempt")

    def __init__(self) -> None:
        self._last_digest: Optional[bytes] = None
        self._last_attempt: Optional[int] = None

    def observe(
        self, rts: RtsFrame, slot: int, gap_free: bool = True
    ) -> Optional[DeterministicViolation]:
        """Returns a :class:`DeterministicViolation` or None.

        ``gap_free`` tells the verifier whether the previous RTS of this
        sender was also observed (SeqOff# advanced by exactly one).  The
        same-digest rule holds regardless — a packet's attempt number
        can only grow — but the fresh-digest-starts-at-1 rule is only
        sound when no frames were missed: a missed attempt-1 frame makes
        a legitimate retransmission look like a fresh packet.
        """
        violation = None
        if self._last_digest is not None and rts.digest == self._last_digest:
            # Same packet retransmitted: attempt must strictly increase.
            if rts.attempt <= self._last_attempt:
                violation = DeterministicViolation(
                    kind="attempt_number",
                    slot=slot,
                    detail=(
                        f"retransmission of the same DATA digest announced "
                        f"attempt {rts.attempt} after {self._last_attempt}"
                    ),
                )
        elif self._last_digest is not None and gap_free and rts.attempt != 1:
            # New packet (digest changed) must restart at attempt 1.
            violation = DeterministicViolation(
                kind="attempt_number",
                slot=slot,
                detail=f"fresh DATA digest announced attempt {rts.attempt} != 1",
            )
        self._last_digest = rts.digest
        self._last_attempt = rts.attempt
        return violation

    def reset(self) -> None:
        self._last_digest = None
        self._last_attempt = None


class UnambiguousCountdownVerifier:
    """Checks dictated-vs-observed countdown when there is no uncertainty."""

    __slots__ = ("tolerance_slots",)

    def __init__(self, tolerance_slots: int = 4) -> None:
        if tolerance_slots < 0:
            raise ValueError("tolerance_slots must be >= 0")
        self.tolerance_slots = tolerance_slots

    def observe(
        self, dictated: int, observed_idle_slots: float, slot: int
    ) -> Optional[DeterministicViolation]:
        """Evaluate one unambiguous interval.

        ``observed_idle_slots`` is the countdown budget the monitor
        measured (already DIFS-corrected).  Returns a violation if it
        falls short of the dictated value by more than the tolerance.
        """
        if observed_idle_slots < dictated - self.tolerance_slots:
            return DeterministicViolation(
                kind="blatant_countdown",
                slot=slot,
                detail=(
                    f"unambiguous interval allowed {observed_idle_slots} "
                    f"countdown slots but the PRS dictated {dictated}"
                ),
            )
        return None
