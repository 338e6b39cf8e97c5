"""The verifiable back-off pseudo-random number generator.

Paper Section 4: every node must derive its back-off values from a
pseudo-random sequence (PRS) seeded with its *MAC address*, so any
neighbor that knows the address — i.e., every neighbor — can regenerate
the exact sequence and check announced offsets against observed
behavior.

The draw for (offset, attempt) must be a pure function of
(seed, offset, attempt): a monitor that hears an RTS carrying
``SeqOff# = o, Attempt# = a`` computes the identical dictated back-off
without having tracked any generator state.  We use SplitMix64 as the
mixing function — tiny, well-distributed, and trivially portable, which
is what a real deployment of the scheme would need across vendors.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.mac.constants import DEFAULT_TIMING

MacAddress = Union[int, str, bytes, bytearray]

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One SplitMix64 output for a 64-bit state; returns a 64-bit int."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mac_address_seed(mac_address: MacAddress) -> int:
    """Canonical 64-bit seed for a MAC address.

    Accepts an int (already a 48-bit address), a ``aa:bb:...`` string, or
    bytes.  In the simulator, node ids stand in for MAC addresses.
    """
    if isinstance(mac_address, int):
        raw = mac_address & _MASK64
    elif isinstance(mac_address, str):
        raw = int(mac_address.replace(":", "").replace("-", ""), 16)
    elif isinstance(mac_address, (bytes, bytearray)):
        raw = int.from_bytes(bytes(mac_address), "big")
    else:
        raise TypeError(f"unsupported MAC address type: {type(mac_address).__name__}")
    # One mixing round so that nearby addresses yield unrelated sequences.
    return splitmix64(raw)


def contention_window_for_attempt(attempt: int, cw_min: int, cw_max: int) -> int:
    """CW for the given 1-based attempt: ``min(2^(a-1)*(CWmin+1)-1, CWmax)``.

    Attempt 1 draws from [0, CWmin]; each retransmission doubles the
    window up to CWmax (paper Section 2: "the back-off time is selected
    randomly from the range [0, 2^i * CWmin] during the i-th
    retransmission attempt").
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    window = ((cw_min + 1) << (attempt - 1)) - 1
    return min(window, cw_max)


class VerifiableBackoffPrng:
    """The dictated pseudo-random back-off sequence of one node.

    Both the node itself and every monitoring neighbor instantiate this
    with the node's MAC address; ``dictated_backoff(offset, attempt)``
    then agrees everywhere.
    """

    __slots__ = ("mac_address", "seed", "cw_min", "cw_max")

    def __init__(
        self,
        mac_address: MacAddress,
        cw_min: Optional[int] = None,
        cw_max: Optional[int] = None,
    ) -> None:
        timing = DEFAULT_TIMING
        self.mac_address = mac_address
        self.seed = mac_address_seed(mac_address)
        self.cw_min = cw_min if cw_min is not None else timing.cw_min
        self.cw_max = cw_max if cw_max is not None else timing.cw_max
        if self.cw_min < 1:
            raise ValueError(f"cw_min must be >= 1, got {self.cw_min}")
        if self.cw_max < self.cw_min:
            raise ValueError("cw_max must be >= cw_min")

    def raw_draw(self, offset: int) -> int:
        """The 64-bit PRS value at ``offset`` (before CW reduction)."""
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        return splitmix64(self.seed ^ splitmix64(offset))

    def dictated_backoff(self, offset: int, attempt: int) -> int:
        """The back-off (in slots) the standard dictates at this point.

        A pure function of (seed, offset, attempt): the raw PRS draw at
        ``offset`` reduced modulo the attempt's contention window + 1.
        """
        window = contention_window_for_attempt(attempt, self.cw_min, self.cw_max)
        return self.raw_draw(offset) % (window + 1)

    def dictated_sequence(
        self, start_offset: int, count: int, attempt: int = 1
    ) -> List[int]:
        """``count`` consecutive dictated back-offs from ``start_offset``."""
        return [
            self.dictated_backoff(start_offset + i, attempt) for i in range(count)
        ]
