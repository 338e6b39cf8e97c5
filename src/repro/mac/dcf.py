"""Per-node IEEE 802.11 DCF MAC entity.

Owns the interface queue, the verifiable PRS, the (possibly misbehaving)
back-off policy, and the retransmission state machine.  The simulation
engine drives it: the entity decides *what* to do (draw a back-off,
build an RTS, retry or drop), the engine decides *when* (channel state,
event ordering).

The ``announcement`` hook (an :class:`~repro.mac.adversary.
AnnouncementPolicy`) rewrites each built RTS, which lets experiments
exercise the paper's *deterministic* detectors: a node that lies about
its attempt number is exposed by the repeated MD5 digest, and one that
reuses a sequence offset is exposed by the offset-monotonicity check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.mac.backoff import BackoffScheduler
from repro.mac.constants import DEFAULT_TIMING
from repro.mac.digest import data_digest
from repro.mac.frames import MAX_ATTEMPT_FIELD, RtsFrame
from repro.mac.misbehavior import BackoffPolicy, HonestBackoff
from repro.mac.prng import VerifiableBackoffPrng
from repro.mac.constants import MacTiming
from repro.traffic.queue import DropTailQueue, Packet

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.mac.adversary import AnnouncementPolicy


class MacState(enum.Enum):
    """Coarse MAC state as seen by the engine."""

    IDLE = "idle"               # nothing to send
    CONTENDING = "contending"   # back-off pending (counting or frozen)
    TRANSMITTING = "transmitting"


@dataclass
class MacStats:
    """Counters for one node's MAC activity."""

    attempts: int = 0
    successes: int = 0
    failures: int = 0
    drops: int = 0
    backoffs_drawn: int = 0
    total_dictated_backoff: int = 0
    total_actual_backoff: int = 0


@dataclass
class _CurrentAttempt:
    """Book-keeping for the in-flight (offset, attempt) draw."""

    offset: int
    attempt: int
    dictated: int
    actual: int


class DcfMac:
    """The DCF MAC entity for one node."""

    def __init__(
        self,
        node_id: int,
        timing: Optional[MacTiming] = None,
        policy: Optional[BackoffPolicy] = None,
        queue_capacity: int = 50,
        announcement: "Optional[AnnouncementPolicy]" = None,
    ) -> None:
        self.node_id = node_id
        self.timing = timing if timing is not None else DEFAULT_TIMING
        self.policy = policy if policy is not None else HonestBackoff()
        self.prng = VerifiableBackoffPrng(
            node_id, cw_min=self.timing.cw_min, cw_max=self.timing.cw_max
        )
        self.queue = DropTailQueue(queue_capacity)
        self.backoff = BackoffScheduler()
        self.stats = MacStats()
        #: optional announcement rewrite (repro.mac.adversary); applied
        #: to every built RTS.
        self.announcement = announcement

        self._next_offset = 0       # next unconsumed PRS offset
        self._attempt = 1           # 1-based attempt for the head packet
        #: the in-flight _CurrentAttempt
        self._current: Optional[_CurrentAttempt] = None
        self._transmitting = False

    # -- state ------------------------------------------------------------

    @property
    def state(self) -> MacState:
        if self._transmitting:
            return MacState.TRANSMITTING
        if self.backoff.active:
            return MacState.CONTENDING
        return MacState.IDLE

    @property
    def transmitting(self) -> bool:
        """True while the node occupies the air."""
        return self._transmitting

    @property
    def has_traffic(self) -> bool:
        return not self.queue.is_empty

    @property
    def head_packet(self) -> Optional[Packet]:
        return self.queue.peek()

    @property
    def attempt(self) -> int:
        return self._attempt

    @property
    def current_draw(self) -> Optional["_CurrentAttempt"]:
        """The (offset, attempt, dictated, actual) of the pending draw."""
        return self._current

    # -- engine-driven transitions -----------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the interface queue; returns acceptance."""
        return self.queue.offer(packet)

    def needs_backoff_draw(self) -> bool:
        """True if a head packet awaits a back-off draw."""
        return (
            self.has_traffic and not self.backoff.active and not self._transmitting
        )

    def draw_backoff(self) -> int:
        """Consume the next PRS offset and start the back-off countdown.

        Returns the actual back-off (slots) the node will count.  The
        dictated value comes from the verifiable PRS; the policy may
        shrink or replace it (misbehavior).
        """
        if not self.needs_backoff_draw():
            raise RuntimeError("draw_backoff() called with no eligible packet")
        offset = self._next_offset
        self._next_offset += 1
        dictated = self.prng.dictated_backoff(offset, self._attempt)
        # An honest policy counts exactly the dictated value; skip the
        # second PRS evaluation its actual_backoff would make.
        if self.policy.is_honest:
            actual = dictated
        else:
            actual = self.policy.actual_backoff(self.prng, offset, self._attempt)
        self._current = _CurrentAttempt(
            offset=offset, attempt=self._attempt, dictated=dictated, actual=actual
        )
        self.backoff.start(actual)
        self.stats.backoffs_drawn += 1
        self.stats.total_dictated_backoff += dictated
        self.stats.total_actual_backoff += actual
        return actual

    def build_rts(self) -> RtsFrame:
        """The modified RTS announcing this attempt (Figure 2 fields)."""
        if self._current is None:
            raise RuntimeError("build_rts() before draw_backoff()")
        packet = self.head_packet
        if packet is None:
            raise RuntimeError("build_rts() with empty queue")
        frame = RtsFrame(
            sender=self.node_id,
            receiver=packet.destination,
            seq_off=self._current.offset,
            attempt=min(self._current.attempt, MAX_ATTEMPT_FIELD),
            digest=data_digest(packet.payload),
        )
        if self.announcement is not None:
            frame = self.announcement.rewrite(frame)
        return frame

    def begin_transmission(self) -> None:
        """Countdown hit zero; the node occupies the air."""
        if self._current is None:
            raise RuntimeError("begin_transmission() before draw_backoff()")
        self._transmitting = True
        self.backoff.finish()
        self.stats.attempts += 1

    def complete_transmission(self, success: bool) -> None:
        """Exchange finished.  Applies the retransmission rules.

        On success the head packet departs and the attempt counter
        resets.  On failure the attempt counter increments; past the
        retry limit the packet is dropped (and the counter resets for
        the next packet).
        """
        if not self._transmitting:
            raise RuntimeError("complete_transmission() while not transmitting")
        self._transmitting = False
        self._current = None
        if success:
            self.stats.successes += 1
            self.queue.pop()
            self._attempt = 1
        else:
            self.stats.failures += 1
            self._attempt += 1
            if self._attempt > self.timing.retry_limit:
                self.queue.pop()
                self.stats.drops += 1
                self._attempt = 1
