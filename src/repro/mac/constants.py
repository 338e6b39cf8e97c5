"""IEEE 802.11 (DSSS PHY) MAC timing, expressed in 20 us slots.

All air-time is quantized to slots so the whole simulator can run on an
integer clock.  Frame durations are derived from the standard's frame
sizes and rates — including the paper's modified RTS, which is 18 bytes
longer than stock (2 bytes SeqOff#/Attempt# + 16 bytes MD5 digest,
Figure 2) — and rounded *up* to whole slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.util.units import (
    DEFAULT_SLOT_TIME_US,
    Microseconds,
    Slots,
    microseconds_to_slots,
)
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class MacTiming:
    """Derived slot-level timing for one PHY/MAC configuration.

    Defaults follow IEEE 802.11 DSSS: 20 us slots, SIFS 10 us,
    DIFS = SIFS + 2 slots = 50 us, 1 Mb/s basic (control) rate, 2 Mb/s
    data rate, 192 us long PHY preamble+PLCP header per frame.

    The modified RTS of the paper is 38 bytes: the stock 20-byte RTS
    (frame control 2, duration 2, RA 6, TA 6, FCS 4) plus the 2-byte
    SeqOff#+Attempt# field and the 16-byte message digest of Figure 2.

    Each ``*_slots`` value walks the microseconds-to-slots chain once
    per instance and is cached in the instance ``__dict__``
    (``functools.cached_property``), so hot paths read it directly.
    The cache is not a field: ``==``, ``hash``, ``dataclasses.replace``
    and pickling see only the fields above.
    """

    slot_time_us: Microseconds = DEFAULT_SLOT_TIME_US
    sifs_us: Microseconds = 10.0
    difs_us: Microseconds = 50.0
    basic_rate_bps: float = 1_000_000.0
    data_rate_bps: float = 2_000_000.0
    phy_overhead_us: Microseconds = 192.0
    rts_bytes: int = 38          # modified RTS (Figure 2)
    cts_bytes: int = 14
    ack_bytes: int = 14
    mac_data_header_bytes: int = 28
    payload_bytes: int = 512     # Table 1 packet size
    cw_min: int = 31             # CWmin: back-off drawn from [0, cw_min]
    cw_max: int = 1023
    retry_limit: int = 7

    def __post_init__(self) -> None:
        check_positive(self.slot_time_us, "slot_time_us")
        check_non_negative(self.sifs_us, "sifs_us")
        check_positive(self.difs_us, "difs_us")
        check_positive(self.basic_rate_bps, "basic_rate_bps")
        check_positive(self.data_rate_bps, "data_rate_bps")
        check_positive(self.payload_bytes, "payload_bytes")
        check_positive(self.cw_min, "cw_min")
        if self.cw_max < self.cw_min:
            raise ValueError("cw_max must be >= cw_min")
        check_positive(self.retry_limit, "retry_limit")

    # -- frame air times ----------------------------------------------------

    def _frame_us(self, size_bytes: int, rate_bps: float) -> Microseconds:
        return self.phy_overhead_us + size_bytes * 8 * 1e6 / rate_bps

    def _to_slots(self, us: Microseconds) -> Slots:
        return microseconds_to_slots(us, self.slot_time_us)

    @cached_property
    def sifs_slots(self) -> Slots:
        return self._to_slots(self.sifs_us)

    @cached_property
    def difs_slots(self) -> Slots:
        return self._to_slots(self.difs_us)

    @cached_property
    def rts_slots(self) -> Slots:
        return self._to_slots(self._frame_us(self.rts_bytes, self.basic_rate_bps))

    @cached_property
    def cts_slots(self) -> Slots:
        return self._to_slots(self._frame_us(self.cts_bytes, self.basic_rate_bps))

    @cached_property
    def ack_slots(self) -> Slots:
        return self._to_slots(self._frame_us(self.ack_bytes, self.basic_rate_bps))

    @cached_property
    def data_slots(self) -> Slots:
        return self._to_slots(
            self._frame_us(
                self.payload_bytes + self.mac_data_header_bytes, self.data_rate_bps
            )
        )

    # -- exchange phases -----------------------------------------------------

    @cached_property
    def handshake_slots(self) -> Slots:
        """Phase 1 of an exchange: RTS + SIFS + CTS.

        This is also the busy period a *failed* attempt occupies (the RTS
        plus the CTS-timeout the sender waits before backing off again).
        """
        return self.rts_slots + self.sifs_slots + self.cts_slots

    @cached_property
    def payload_phase_slots(self) -> Slots:
        """Phase 2 of a successful exchange: SIFS + DATA + SIFS + ACK."""
        return self.sifs_slots + self.data_slots + self.sifs_slots + self.ack_slots

    @cached_property
    def exchange_slots(self) -> Slots:
        """Total busy period of a successful RTS/CTS/DATA/ACK exchange."""
        return self.handshake_slots + self.payload_phase_slots

    @cached_property
    def mean_service_slots(self) -> Slots:
        """Approximate MAC service time: one successful exchange plus the
        mean initial back-off and a DIFS.  Used to normalize offered load
        to the paper's traffic intensity rho."""
        return self.exchange_slots + self.difs_slots + self.cw_min // 2


#: Shared default timing (the Table 1 configuration).
DEFAULT_TIMING = MacTiming()
