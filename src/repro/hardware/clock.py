"""The paper's 100 MHz clock domain.

The paper's headline claim is a 1 Gbps wireless baseband built from a 4x4
MIMO-OFDM datapath clocked at 100 MHz.  :data:`PAPER_CLOCK_HZ` is that
clock (every :class:`~repro.core.config.TransceiverConfig` runs at it, and
:func:`repro.core.throughput.throughput_for_config` derives its bit rates
from it); :class:`ClockDomain` converts between cycles and time for the
latency model.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Sample/processing clock frequency reported in the paper (Hz).
PAPER_CLOCK_HZ = 100_000_000.0


@dataclass(frozen=True)
class ClockDomain:
    """A clock domain running at ``frequency_hz``."""

    frequency_hz: float = PAPER_CLOCK_HZ

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("clock frequency must be positive")

    @property
    def period_s(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.frequency_hz

    def cycles_to_seconds(self, cycles: int) -> float:
        """Convert a cycle count to wall-clock time."""
        if cycles < 0:
            raise ValueError("cycles cannot be negative")
        return cycles * self.period_s

    def seconds_to_cycles(self, seconds: float) -> int:
        """Convert a duration to (rounded-up) clock cycles."""
        if seconds < 0:
            raise ValueError("seconds cannot be negative")
        return int(-(-seconds // self.period_s))
