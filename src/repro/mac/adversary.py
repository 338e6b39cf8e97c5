"""Announcement-layer adversaries and colluding-pair wiring.

The back-off policies in :mod:`repro.mac.misbehavior` cheat on what a
node *counts*; the shapes here cheat on what it *announces* in the
modified RTS, or coordinate two nodes so each covers for the other.
They exist to probe the detector's blind spots (DESIGN.md §12):

* :class:`DigestForgery` — re-announce every retransmission as a fresh
  attempt-1 packet with a forged MD digest.  Defeats the Attempt#/MD
  verifier *by construction* (every digest it sees is new), shifting
  the burden to the statistical layer — the forged announcements
  dictate attempt-1 windows the cheater's actual retry windows exceed.
* :class:`AttemptReplay` — replay the previous Attempt# for the same
  digest on a retransmission.  Caught deterministically: a repeated
  digest must arrive with a strictly larger attempt number.
* :class:`AttemptAlwaysOne` — announce attempt 1 on every RTS.  A
  retransmission then repeats its digest without a larger attempt
  number, which the Attempt#/MD verifier catches deterministically.
* :class:`StaleSequenceOffset` — announce the previous SeqOff# instead
  of the current one.  The repeated offset is caught by the SeqOff#
  monotonicity check.
* :class:`SequenceOffsetLie` — abandon the real PRS position and
  announce a self-consistent fabricated counter (advancing by exactly
  one per RTS).  No deterministic rule can object — the lie is
  internally coherent — so only the rank-sum comparison of dictated
  vs. observed back-offs can expose the node.
* :func:`install_colluding_pair` — two nodes alibi each other: each
  shrinks its own back-off, and each jams tiny-back-off cover traffic
  while its partner contends, stuffing the partner's contention
  intervals with busy slots so the monitor's eq. 1–5 estimate is
  dragged toward the dictated value (the busy mass "explains" the
  short interval).

Announcement policies are pure frame rewrites hooked into
:meth:`repro.mac.dcf.DcfMac.build_rts` via the ``announcement``
constructor option (``Simulation(mac_options={node: {"announcement":
...}})``); they never touch the node's actual countdown, so they
compose freely with any :class:`~repro.mac.misbehavior.BackoffPolicy`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.mac.digest import data_digest
from repro.mac.frames import MAX_ATTEMPT_FIELD, RtsFrame
from repro.mac.misbehavior import AlibiBackoff

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.sim.network import Simulation


class AnnouncementPolicy(ABC):
    """Rewrites the RTS announcement just before it goes on air."""

    @abstractmethod
    def rewrite(self, frame: RtsFrame) -> RtsFrame:
        """The frame actually announced in place of ``frame``."""

    def describe(self) -> str:
        """Short human-readable label for experiment reports."""
        return type(self).__name__


class HonestAnnouncement(AnnouncementPolicy):
    """Announce exactly what the MAC built (identity rewrite)."""

    def rewrite(self, frame: RtsFrame) -> RtsFrame:
        return frame


class DigestForgery(AnnouncementPolicy):
    """Disguise every retransmission as a fresh attempt-1 packet.

    The Attempt#/MD rule says a repeated digest must carry an increasing
    attempt number; the forger never repeats a digest.  Each retry
    announces attempt 1 with a forged digest derived (deterministically)
    from the true one and the retry count — so the node's contention
    window looks permanently reset while its real retry draws come from
    doubled windows.
    """

    def __init__(self) -> None:
        self.forged = 0

    def rewrite(self, frame: RtsFrame) -> RtsFrame:
        if frame.attempt <= 1:
            return frame
        self.forged += 1
        forged_digest = data_digest(
            b"forged:%d:%d:%d" % (frame.sender, frame.seq_off, frame.attempt)
        )
        return replace(frame, attempt=1, digest=forged_digest)


class AttemptReplay(AnnouncementPolicy):
    """Replay the previous attempt number for the same digest.

    A node that under-reports its attempt announces a small dictated
    contention window for a draw it actually took from a doubled one.
    The replayed (digest, attempt) pair violates the strictly-increasing
    rule, so the deterministic Attempt#/MD verifier fires on the first
    replayed retransmission the monitor decodes.
    """

    def __init__(self) -> None:
        self._last: Optional[Tuple[bytes, int]] = None
        self.replays = 0

    def rewrite(self, frame: RtsFrame) -> RtsFrame:
        last = self._last
        if last is not None and last[0] == frame.digest and frame.attempt > last[1]:
            self.replays += 1
            return replace(frame, attempt=last[1])
        self._last = (frame.digest, min(frame.attempt, MAX_ATTEMPT_FIELD))
        return frame


class AttemptAlwaysOne(AnnouncementPolicy):
    """Announce attempt 1 regardless of the real attempt number."""

    def rewrite(self, frame: RtsFrame) -> RtsFrame:
        return replace(frame, attempt=1)


class StaleSequenceOffset(AnnouncementPolicy):
    """Announce the previous SeqOff# (floored at 0) instead of the current."""

    def rewrite(self, frame: RtsFrame) -> RtsFrame:
        return replace(frame, seq_off=max(frame.seq_off - 1, 0))


class SequenceOffsetLie(AnnouncementPolicy):
    """A self-consistent fabricated SeqOff# stream.

    The node abandons its real PRS position and announces a private
    counter starting at ``start_offset``, advancing by exactly one per
    RTS — exactly what the SeqOff# monotonicity rule demands, so no
    deterministic check can object.  The dictated values monitors
    recompute from the fabricated offsets have nothing to do with what
    the node counts; paired with a shrinking
    :class:`~repro.mac.misbehavior.BackoffPolicy` this is the pure
    test case for the statistical layer (and, announced alone over an
    honest countdown, a false-accusation stress test: honest timing
    against mismatched-but-valid announcements).
    """

    def __init__(self, start_offset: int = 0) -> None:
        if start_offset < 0:
            raise ValueError(
                f"start_offset must be non-negative, got {start_offset}"
            )
        self._next = start_offset
        self.lies = 0

    def rewrite(self, frame: RtsFrame) -> RtsFrame:
        announced = self._next
        self._next += 1
        if announced != frame.seq_off:
            self.lies += 1
        return replace(frame, seq_off=announced)


def install_colluding_pair(
    sim: "Simulation",
    node_a: int,
    node_b: int,
    pm: float = 60.0,
    cover_backoff: int = 1,
) -> Tuple[AlibiBackoff, AlibiBackoff]:
    """Wire two nodes of a built simulation into a colluding pair.

    Each node gets an :class:`~repro.mac.misbehavior.AlibiBackoff`
    policy probing the *other* node's MAC: shrink your own back-off by
    ``pm`` percent, and whenever your partner is mid-contention, jump
    the queue with a ``cover_backoff``-slot draw so the partner's
    contention interval fills with your busy time.  Returns the two
    policies (their ``cover_draws`` counters tell how much alibi
    traffic actually happened).

    Must run after ``Simulation`` construction (the probes close over
    the built MACs) and before the run starts.
    """
    if node_a == node_b:
        raise ValueError("a colluding pair needs two distinct nodes")
    mac_a = sim.macs[node_a]
    mac_b = sim.macs[node_b]
    policy_a = AlibiBackoff(
        partner_probe=lambda: mac_b.backoff.active,
        cover_backoff=cover_backoff,
        pm=pm,
    )
    policy_b = AlibiBackoff(
        partner_probe=lambda: mac_a.backoff.active,
        cover_backoff=cover_backoff,
        pm=pm,
    )
    mac_a.policy = policy_a
    mac_b.policy = policy_b
    return policy_a, policy_b
