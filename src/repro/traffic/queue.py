"""MAC-layer packets and the drop-tail interface queue."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.util.caches import register_cache_reset
from repro.util.validation import check_positive

_packet_ids = itertools.count()


@register_cache_reset
def reset_packet_ids():
    """Rewind the process-global packet uid counter.

    Packet uids feed the RTS payload digests, so two same-seed runs in
    one process only emit identical frames if the counter is rewound in
    between.  Registered with :mod:`repro.util.caches` so the test
    suite's autouse fixture does this before every test.
    """
    global _packet_ids
    _packet_ids = itertools.count()


@dataclass
class Packet:
    """A MAC-layer data packet (512 bytes in Table 1).

    ``payload`` stands in for the DATA frame body; the detection
    framework hashes it (MD5) for the modified-RTS message digest, so it
    must be unique per packet — the auto-assigned ``uid`` is folded in.
    """

    source: int
    destination: int
    size_bytes: int = 512
    created_slot: int = 0
    uid: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self):
        check_positive(self.size_bytes, "size_bytes")

    @property
    def payload(self):
        """Deterministic, unique stand-in for the packet body."""
        return f"pkt:{self.source}->{self.destination}:{self.uid}".encode("ascii")


class DropTailQueue:
    """Bounded FIFO interface queue (ns-2's DropTail, length 50).

    Tracks arrival/drop/departure counts so experiments can report
    offered vs. carried load.
    """

    def __init__(self, capacity=50):
        self.capacity = check_positive(capacity, "capacity")
        self._items = deque()
        self.arrivals = 0
        self.drops = 0
        self.departures = 0

    def __len__(self):
        return len(self._items)

    @property
    def is_empty(self):
        return not self._items

    @property
    def is_full(self):
        return len(self._items) >= self.capacity

    def offer(self, packet):
        """Enqueue ``packet``; returns False (and counts a drop) if full."""
        self.arrivals += 1
        if self.is_full:
            self.drops += 1
            return False
        self._items.append(packet)
        return True

    def peek(self):
        """Head packet without removing it, or None if empty."""
        return self._items[0] if self._items else None

    def pop(self):
        """Remove and return the head packet; raises if empty."""
        if not self._items:
            raise IndexError("pop from empty DropTailQueue")
        self.departures += 1
        return self._items.popleft()
