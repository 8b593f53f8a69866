"""Throughput reporting for the 1 Gbps claim.

:func:`throughput_for_config` answers "what bit rate does this
configuration sustain at the paper's 100 MHz clock, and does it reach
1 Gbps?": one OFDM symbol occupies ``samples_per_symbol`` samples at one
sample per clock cycle and carries ``n_streams * n_data_subcarriers *
bits_per_subcarrier`` coded bits, of which ``code_rate`` are information
bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.coding.convolutional import CodeRate
from repro.core.config import TransceiverConfig
from repro.core.preamble import PreambleGenerator
from repro.exceptions import ConfigurationError
from repro.modulation.constellations import Modulation


@dataclass(frozen=True)
class RateModel:
    """Bit rates of one :class:`~repro.core.config.TransceiverConfig` on air."""

    config: TransceiverConfig

    @property
    def samples_per_symbol(self) -> int:
        """Time-domain samples per OFDM symbol including the cyclic prefix."""
        return self.config.samples_per_symbol

    @property
    def symbol_duration_s(self) -> float:
        """Duration of one OFDM symbol."""
        return self.config.symbol_duration_s()

    @property
    def coded_bits_per_symbol(self) -> int:
        """Coded bits carried by one OFDM symbol across all spatial streams."""
        return self.config.n_streams * self.config.coded_bits_per_symbol

    @property
    def info_bits_per_symbol(self) -> float:
        """Information bits per OFDM symbol after the code rate."""
        return self.coded_bits_per_symbol * self.config.code_rate.fraction

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
            raise ConfigurationError("symbols_per_burst must be positive")
        if preamble_samples < 0:
            raise ConfigurationError("preamble_samples cannot be negative")
        data_samples = symbols_per_burst * self.samples_per_symbol
        total_time = (data_samples + preamble_samples) / self.config.clock_hz
        total_bits = symbols_per_burst * self.info_bits_per_symbol
        return total_bits / total_time

    def meets_gigabit_target(self, target_bps: float = 1e9) -> bool:
        """True when the information bit rate reaches the 1 Gbps target."""
        return self.info_bit_rate_bps >= target_bps


def throughput_for_config(config: TransceiverConfig) -> RateModel:
    """The bit-rate model of a transceiver configuration."""
    return RateModel(config)


def throughput_report(
    configs: Optional[Iterable[TransceiverConfig]] = None,
    symbols_per_burst: int = 100,
) -> List[Dict[str, object]]:
    """Throughput of a set of configurations, including preamble overhead.

    When ``configs`` is omitted, the standard sweep is used: every
    modulation scheme crossed with every supported code rate at the paper's
    4x4 / 64-point / 100 MHz operating point.
    """
    if configs is None:
        configs = [
            TransceiverConfig(modulation=modulation, code_rate=rate)
            for modulation in Modulation
            for rate in CodeRate
        ]
    rows: List[Dict[str, object]] = []
    for config in configs:
        model = throughput_for_config(config)
        preamble = PreambleGenerator(config.fft_size)
        layout = preamble.layout(config.n_antennas)
        rows.append(
            {
                "modulation": config.modulation.value,
                "code_rate": config.code_rate.value,
                "fft_size": config.fft_size,
                "coded_rate_gbps": model.coded_bit_rate_bps / 1e9,
                "info_rate_gbps": model.info_bit_rate_bps / 1e9,
                "info_rate_with_preamble_gbps": model.info_bit_rate_with_preamble_bps(
                    symbols_per_burst, layout.total_length
                )
                / 1e9,
                "meets_1gbps": model.meets_gigabit_target(),
            }
        )
    return rows
