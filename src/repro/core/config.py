"""Transceiver configuration and OFDM numerology.

The paper's evaluated build is a 4x4 system with 64-point OFDM, 16-QAM and a
rate-1/2 convolutional code; Section V also discusses a 512-point variant and
the abstract's 1 Gbps point uses 64-QAM with a higher code rate.
:class:`TransceiverConfig` captures those knobs.  The burst format is fixed,
as in the hardware: a 100 MHz clock, a cyclic prefix of a quarter of the FFT
length and a scrambled payload, so those are constants, not fields.
:class:`OfdmNumerology` derives the subcarrier allocation (data, pilot,
guard) from the FFT length, reproducing the 802.11a allocation exactly at 64
points and scaling it proportionally for other transform lengths.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.coding.convolutional import CodeRate
from repro.dsp.fixedpoint import FixedPointFormat
from repro.exceptions import ConfigurationError, boolean_flag, integer_at_least
from repro.modulation.constellations import Modulation
from repro.types import DetectorName

#: Sample/processing clock frequency reported in the paper (Hz): the
#: 100 MHz every :class:`TransceiverConfig` runs at, from which
#: :attr:`TransceiverConfig.info_bit_rate_bps` derives the bit rate.
PAPER_CLOCK_HZ = 100_000_000.0

#: 802.11a pilot subcarriers (logical indices, 64-point OFDM).
_IEEE80211A_PILOTS = (-21, -7, 7, 21)


def _logical_to_fft_bin(logical_index: int, fft_size: int) -> int:
    """Map a logical subcarrier index (negative = below DC) to an FFT bin."""
    if logical_index == 0:
        return 0
    if logical_index > 0:
        return logical_index
    return fft_size + logical_index


@dataclass(frozen=True)
class OfdmNumerology:
    """Subcarrier allocation for one OFDM symbol.

    Attributes
    ----------
    fft_size:
        Transform length.
    data_bins:
        FFT bin indices carrying data symbols (in the order the symbol
        mapper fills them: lowest logical subcarrier first).
    pilot_bins:
        FFT bin indices carrying pilot tones.
    pilot_logical:
        Logical indices of the pilots (used for the timing-correction slope).
    pilot_values:
        Base pilot values (before the per-symbol polarity is applied).
    """

    fft_size: int
    data_bins: Tuple[int, ...]
    pilot_bins: Tuple[int, ...]
    pilot_logical: Tuple[int, ...]
    pilot_values: Tuple[complex, ...]

    @property
    def n_data_subcarriers(self) -> int:
        """Number of data-bearing subcarriers."""
        return len(self.data_bins)

    @property
    def n_pilots(self) -> int:
        """Number of pilot subcarriers."""
        return len(self.pilot_bins)

    @property
    def active_bins(self) -> Tuple[int, ...]:
        """All occupied bins (data + pilots)."""
        return tuple(sorted(set(self.data_bins) | set(self.pilot_bins)))

    def active_mask(self) -> np.ndarray:
        """Boolean mask over FFT bins of the occupied subcarriers."""
        mask = np.zeros(self.fft_size, dtype=bool)
        mask[list(self.active_bins)] = True
        return mask

    @classmethod
    @functools.lru_cache(maxsize=None)
    def for_fft_size(cls, fft_size: int) -> "OfdmNumerology":
        """Build the allocation for ``fft_size``, once per size.

        64-point OFDM reproduces the 802.11a allocation (48 data + 4 pilot
        subcarriers on logical indices -26..26); larger power-of-two lengths
        scale the occupied band and pilot count proportionally (e.g. the
        512-point variant discussed in Section V carries 384 data and 32
        pilot subcarriers), keeping the ~81 % occupancy the paper's "eight
        times as many" scaling argument assumes and keeping the coded bits
        per symbol a multiple of 16 as the interleaver requires.  The
        result is frozen, so every call with one size shares one instance.
        """
        if fft_size < 64 or fft_size & (fft_size - 1):
            raise ConfigurationError("fft_size must be a power of two >= 64")
        scale = fft_size // 64
        half_active = 26 * scale
        if fft_size == 64:
            pilot_logical = _IEEE80211A_PILOTS
        else:
            # 2*scale pilots per side, evenly spread across the active band.
            positive = tuple(
                int(round(13.0 * (2 * i + 1) / 2.0)) for i in range(2 * scale)
            )
            pilot_logical = tuple(-p for p in positive) + positive
        pilot_logical = tuple(sorted(pilot_logical))
        logical_active = [
            k for k in range(-half_active, half_active + 1) if k != 0
        ]
        data_logical = [k for k in logical_active if k not in pilot_logical]
        data_bins = tuple(_logical_to_fft_bin(k, fft_size) for k in data_logical)
        pilot_bins = tuple(_logical_to_fft_bin(k, fft_size) for k in pilot_logical)
        # 802.11a pilot polarities: +1 on the three lower pilots, -1 on +21.
        pilot_values = tuple(
            complex(-1.0, 0.0) if k == max(pilot_logical) else complex(1.0, 0.0)
            for k in pilot_logical
        )
        return cls(
            fft_size=fft_size,
            data_bins=data_bins,
            pilot_bins=pilot_bins,
            pilot_logical=pilot_logical,
            pilot_values=pilot_values,
        )


@dataclass(frozen=True)
class TransceiverConfig:
    """Complete configuration of the MIMO-OFDM transceiver.

    The defaults are the paper's synthesised configuration (4x4, 16-QAM,
    64-point OFDM, rate-1/2 coding); every configuration runs the paper's
    burst format (25 % cyclic prefix, 100 MHz clock, scrambled payload).
    ``gigabit()`` returns the configuration behind the 1 Gbps headline
    (64-QAM, rate 3/4).

    ``correct_cfo`` enables the preamble-based carrier-frequency-offset
    estimator (an extension beyond the paper, which relies on pilot phase
    correction alone); see :mod:`repro.sync.cfo`.

    ``detector`` selects the MIMO detector: ``"zf"`` (the paper's
    zero-forcing multiply-by-stored-inverse design) or ``"mmse"`` (the
    textbook linear-MMSE baseline from :mod:`repro.mimo.detector`), which is
    one of the sweep axes of the :mod:`repro.sim` engine.

    ``rx_sample_format`` / ``rx_multiplier_format`` model the receiver's
    finite word lengths (Section IV: 16-bit I/Q samples on the antenna
    interface, 18-bit embedded-multiplier operands).  When set, the receiver
    quantises the incoming sample stream (``rx_sample_format``, the 16-bit
    converter words the paper carries over JESD204) and every FFT output
    entering the channel estimator and MIMO detector
    (``rx_multiplier_format``).  ``None`` (the default) keeps the
    floating-point datapath.  The paper's formats are
    :data:`repro.dsp.fixedpoint.SAMPLE_FORMAT_16BIT` and
    :data:`repro.dsp.fixedpoint.MULTIPLIER_FORMAT_18BIT`.
    """

    n_antennas: int = 4
    fft_size: int = 64
    modulation: Modulation = Modulation.QAM16
    code_rate: CodeRate = CodeRate.RATE_1_2
    soft_decision: bool = False
    use_cordic_channel_inversion: bool = False
    correct_cfo: bool = False
    detector: DetectorName = "zf"
    rx_sample_format: Optional[FixedPointFormat] = None
    rx_multiplier_format: Optional[FixedPointFormat] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "n_antennas", integer_at_least("n_antennas", self.n_antennas, 1)
        )
        object.__setattr__(self, "fft_size", integer_at_least("fft_size", self.fft_size, 1))
        OfdmNumerology.for_fft_size(self.fft_size)
        for name in ("soft_decision", "use_cordic_channel_inversion", "correct_cfo"):
            object.__setattr__(self, name, boolean_flag(name, getattr(self, name)))
        # Normalise enum-ish fields so strings are accepted.
        object.__setattr__(self, "modulation", Modulation.from_any(self.modulation))
        object.__setattr__(self, "code_rate", CodeRate(self.code_rate))
        object.__setattr__(self, "detector", str(self.detector).lower())
        if self.detector not in ("zf", "mmse"):
            raise ConfigurationError("detector must be 'zf' or 'mmse'")
        for name in ("rx_sample_format", "rx_multiplier_format"):
            object.__setattr__(
                self, name, FixedPointFormat.coerce(getattr(self, name), name)
            )

    # ------------------------------------------------------------------
    @classmethod
    def paper_default(cls) -> "TransceiverConfig":
        """The configuration synthesised in Tables 1-4 (16-QAM, rate 1/2)."""
        return cls()

    @classmethod
    def gigabit(cls) -> "TransceiverConfig":
        """The configuration achieving the 1 Gbps headline (64-QAM, rate 3/4)."""
        return cls(modulation=Modulation.QAM64, code_rate=CodeRate.RATE_3_4)

    def air_group(self) -> "TransceiverConfig":
        """Everything of this configuration but the MIMO detector (normalised
        to ``"zf"``).

        Configurations with one air group put bursts on air alike and share
        the receive front end up to the detector; their detectors are the
        group's *receive variants*.  The sweep engine packs its work units
        by this, and :meth:`repro.core.receiver.MimoReceiver.detect_stack`
        reads only the shared stage of its own air group.
        """
        return self if self.detector == "zf" else replace(self, detector="zf")

    # ------------------------------------------------------------------
    @property
    def numerology(self) -> OfdmNumerology:
        """Subcarrier allocation derived from the FFT length."""
        return OfdmNumerology.for_fft_size(self.fft_size)

    @property
    def clock_hz(self) -> float:
        """Sample/processing clock: the paper's 100 MHz."""
        return PAPER_CLOCK_HZ

    @property
    def cyclic_prefix_length(self) -> int:
        """Cyclic-prefix samples per OFDM symbol (25 % of the FFT length)."""
        return self.fft_size // 4

    @property
    def samples_per_symbol(self) -> int:
        """Time-domain samples per OFDM symbol including the cyclic prefix."""
        return self.fft_size + self.cyclic_prefix_length

    @property
    def bits_per_subcarrier(self) -> int:
        """Coded bits per data subcarrier."""
        return self.modulation.bits_per_symbol

    @property
    def coded_bits_per_symbol(self) -> int:
        """Coded bits per OFDM symbol per spatial stream (N_CBPS)."""
        return self.numerology.n_data_subcarriers * self.bits_per_subcarrier

    @property
    def n_streams(self) -> int:
        """Number of independent spatial streams (equal to antennas here)."""
        return self.n_antennas

    def symbol_duration_s(self) -> float:
        """Duration of one OFDM symbol at the configured clock."""
        return self.samples_per_symbol / self.clock_hz

    @property
    def info_bit_rate_bps(self) -> float:
        """Information bit rate over all spatial streams, in bits per second.

        One OFDM symbol of :attr:`samples_per_symbol` samples (one per clock
        cycle) carries :attr:`coded_bits_per_symbol` coded bits per stream,
        of which ``code_rate`` are information bits: 480 Mbit/s for the
        paper's build, 1.08 Gbit/s for :meth:`gigabit`.
        """
        info_bits = self.n_streams * self.coded_bits_per_symbol * self.code_rate.fraction
        return info_bits / self.symbol_duration_s()
