"""Clocking and throughput model.

The paper's headline claim is a 1 Gbps wireless baseband built from a 4x4
MIMO-OFDM datapath clocked at 100 MHz.  :class:`ThroughputModel` computes the
achievable bit rates from the OFDM numerology, modulation, code rate and the
sample clock, so the claim can be checked across configurations (the
throughput-claim benchmark ``benchmarks/test_claim_throughput.py``).
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


@dataclass(frozen=True)
class ThroughputModel:
    """Bit-rate model of the MIMO-OFDM air interface.

    One OFDM symbol occupies ``fft_size + cyclic_prefix_length`` samples at
    one sample per clock cycle, and carries
    ``n_streams * n_data_subcarriers * bits_per_subcarrier`` coded bits, of
    which ``code_rate`` are information bits.
    """

    n_streams: int = 4
    n_data_subcarriers: int = 48
    bits_per_subcarrier: int = 6
    code_rate: float = 0.75
    fft_size: int = 64
    cyclic_prefix_length: int = 16
    clock: ClockDomain = ClockDomain()

    def __post_init__(self) -> None:
        if self.n_streams <= 0:
            raise ValueError("n_streams must be positive")
        if self.n_data_subcarriers <= 0 or self.n_data_subcarriers > self.fft_size:
            raise ValueError("n_data_subcarriers must be in (0, fft_size]")
        if self.bits_per_subcarrier <= 0:
            raise ValueError("bits_per_subcarrier must be positive")
        if not 0 < self.code_rate <= 1:
            raise ValueError("code_rate must be in (0, 1]")
        if self.cyclic_prefix_length < 0:
            raise ValueError("cyclic_prefix_length cannot be negative")

    @property
    def samples_per_symbol(self) -> int:
        """Time-domain samples per OFDM symbol including the cyclic prefix."""
        return self.fft_size + self.cyclic_prefix_length

    @property
    def symbol_duration_s(self) -> float:
        """Duration of one OFDM symbol."""
        return self.samples_per_symbol * self.clock.period_s

    @property
    def coded_bits_per_symbol(self) -> int:
        """Coded bits carried by one OFDM symbol across all spatial streams."""
        return self.n_streams * self.n_data_subcarriers * self.bits_per_subcarrier

    @property
    def info_bits_per_symbol(self) -> float:
        """Information bits per OFDM symbol after the code rate."""
        return self.coded_bits_per_symbol * self.code_rate

    @property
    def coded_bit_rate_bps(self) -> float:
        """Coded (raw PHY) bit rate in bits per second."""
        return self.coded_bits_per_symbol / self.symbol_duration_s

    @property
    def info_bit_rate_bps(self) -> float:
        """Information bit rate in bits per second."""
        return self.info_bits_per_symbol / self.symbol_duration_s

    def info_bit_rate_with_preamble_bps(
        self, symbols_per_burst: int, preamble_samples: int
    ) -> float:
        """Information rate including the per-burst preamble overhead.

        Parameters
        ----------
        symbols_per_burst:
            Number of data OFDM symbols in each burst.
        preamble_samples:
            Time-domain samples spent on STS/LTS at the start of the burst.
        """
        if symbols_per_burst <= 0:
            raise ValueError("symbols_per_burst must be positive")
        if preamble_samples < 0:
            raise ValueError("preamble_samples cannot be negative")
        data_samples = symbols_per_burst * self.samples_per_symbol
        total_time = (data_samples + preamble_samples) * self.clock.period_s
        total_bits = symbols_per_burst * self.info_bits_per_symbol
        return total_bits / total_time

    def meets_gigabit_target(self, target_bps: float = 1e9) -> bool:
        """True when the information bit rate reaches the 1 Gbps target."""
        return self.info_bit_rate_bps >= target_bps
