"""Preamble generation: STS, LTS and the MIMO preamble schedule (Fig. 2).

The transmitter is preloaded with the frequency-domain values of the short
and long training sequences.  For 64-point OFDM these are the 802.11a
sequences; for larger transforms a deterministic extension with the same
structure is generated (STS energy on every fourth occupied subcarrier, a
+/-1 LTS on every occupied subcarrier).

The MIMO schedule follows Fig. 2: the STS is transmitted from antenna 0
only (it is used solely for time synchronisation, and a single transmitter
keeps the signal clean), then each antenna in turn transmits the LTS while
the others are silent, which is what lets the receiver estimate every column
of the channel matrix.  The data OFDM symbols and a short idle tail follow;
:func:`burst_layout` states that whole burst format once, as the
:class:`BurstLayout` the transmitter, the receiver and the stream detector
all read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.coding.convolutional import ConvolutionalCode
from repro.core.config import OfdmNumerology, TransceiverConfig, _logical_to_fft_bin
from repro.dsp.fft import ifft
from repro.exceptions import ConfigurationError, integer_at_least
from repro.types import ComplexArray

# 802.11a long training sequence on logical subcarriers -26..-1, +1..+26.
_LTS_NEGATIVE = [1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1]
_LTS_POSITIVE = [1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1]

# 802.11a short training sequence: non-zero on every 4th subcarrier.
_STS_SCALE = np.sqrt(13.0 / 6.0)
_STS_NONZERO = {
    -24: (1 + 1j), -20: (-1 - 1j), -16: (1 + 1j), -12: (-1 - 1j), -8: (-1 - 1j), -4: (1 + 1j),
    4: (-1 - 1j), 8: (-1 - 1j), 12: (1 + 1j), 16: (1 + 1j), 20: (1 + 1j), 24: (1 + 1j),
}

#: Number of 16-sample repetitions in the 802.11a short training section.
STS_REPETITIONS = 10


def _read_only(array: np.ndarray) -> np.ndarray:
    """Freeze a cached waveform so no caller can corrupt it for the next."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class BurstLayout:
    """Sample geometry of one burst (Fig. 2): the one statement of the burst
    format.

    A burst is the STS (from antenna 0), one LTS slot per transmit antenna,
    ``n_symbols`` data OFDM symbols and an idle tail of zeros.
    :func:`burst_layout` builds it; the transmitter lays bursts out from it,
    the receiver cuts its FFT windows from it and the stream detector cuts
    frames of its :attr:`length`.

    Attributes
    ----------
    sts_length:
        Length of the short-training section in samples.
    lts_slot_length:
        Length of one LTS slot (cyclic prefix + two LTS repetitions).
    n_lts_slots:
        Number of staggered LTS slots (one per transmit antenna).
    n_symbols:
        Number of data OFDM symbols.
    samples_per_symbol:
        Samples of one data OFDM symbol, cyclic prefix included.
    tail_length:
        Length of the idle tail that ends the burst.
    coded_length:
        Coded bits per spatial stream the data symbols carry; the rest of
        their bits are zero padding.
    """

    sts_length: int
    lts_slot_length: int
    n_lts_slots: int
    n_symbols: int
    samples_per_symbol: int
    tail_length: int
    coded_length: int

    @property
    def preamble_length(self) -> int:
        """Total preamble length in samples."""
        return self.sts_length + self.n_lts_slots * self.lts_slot_length

    def lts_slot_start(self, slot: int) -> int:
        """Start sample of LTS slot ``slot`` (0-based) within the burst."""
        if not 0 <= slot < self.n_lts_slots:
            raise ConfigurationError(f"slot {slot} out of range")
        return self.sts_length + slot * self.lts_slot_length

    @property
    def data_start(self) -> int:
        """Start sample of the first data OFDM symbol."""
        return self.preamble_length

    @property
    def length(self) -> int:
        """Burst length in samples: preamble, data symbols and idle tail."""
        return self.data_start + self.n_symbols * self.samples_per_symbol + self.tail_length


def burst_layout(config: TransceiverConfig, n_info_bits: int) -> BurstLayout:
    """The layout of a ``config`` burst carrying ``n_info_bits`` information
    bits per spatial stream.

    The section lengths come from the shared
    :meth:`PreambleGenerator.for_fft_size` waveforms and the symbol count
    from the terminated code block.  A count that is not an integer of at
    least 1 raises :class:`~repro.exceptions.ConfigurationError`.  Every
    call with one configuration and count returns the same record.
    """
    return _burst_layout(config, integer_at_least("n_info_bits", n_info_bits, 1))


@functools.lru_cache(maxsize=256)
def _burst_layout(config: TransceiverConfig, n_info_bits: int) -> BurstLayout:
    preamble = PreambleGenerator.for_fft_size(config.fft_size)
    coded_length = ConvolutionalCode(config.code_rate).coded_length(n_info_bits)
    return BurstLayout(
        sts_length=preamble.sts_time().size,
        lts_slot_length=preamble.lts_time().size,
        n_lts_slots=config.n_antennas,
        n_symbols=-(-coded_length // config.coded_bits_per_symbol),
        samples_per_symbol=config.samples_per_symbol,
        # One cyclic prefix of zeros models the transmitter returning to
        # idle and gives the receiver timing margin when the synchroniser
        # locks a sample or two late on dispersive channels.
        tail_length=config.cyclic_prefix_length,
        coded_length=coded_length,
    )


class PreambleGenerator:
    """Generate STS/LTS waveforms and the staggered MIMO preamble.

    Everything a generator holds depends only on the FFT size and is
    handed out read-only, so one generator per size serves every
    transmitter, receiver and CFO estimator: :meth:`for_fft_size`.
    """

    def __init__(self, fft_size: int = 64) -> None:
        fft_size = integer_at_least("fft_size", fft_size, 1)
        self.fft_size = fft_size
        self.numerology = OfdmNumerology.for_fft_size(fft_size)
        self.lts_frequency = _read_only(self._build_lts_frequency())
        self.sts_frequency = _read_only(self._build_sts_frequency())
        #: Cyclic prefix of the long training section (twice the data CP).
        self.lts_cp_length = fft_size // 2
        #: Length of one short training repetition.
        self.short_symbol_length = fft_size // 4
        # The waveforms depend only on the FFT size, so each is built once
        # per generator and handed out read-only.
        lts_symbol = ifft(self.lts_frequency)
        short_symbol = ifft(self.sts_frequency)[: self.short_symbol_length]
        self._sts = _read_only(np.tile(short_symbol, STS_REPETITIONS))
        prefix = lts_symbol[-self.lts_cp_length:]
        self._lts = _read_only(np.concatenate([prefix, lts_symbol, lts_symbol]))
        self._mimo_preambles: Dict[int, ComplexArray] = {}

    @classmethod
    @functools.lru_cache(maxsize=None, typed=True)
    def for_fft_size(cls, fft_size: int) -> "PreambleGenerator":
        """The shared generator for ``fft_size`` (built once per process).

        ``typed`` keeps a non-integer size such as ``64.0`` out of the
        cached integer's slot, so it still reaches the constructor's check.
        """
        return cls(fft_size)

    # ------------------------------------------------------------------
    # frequency-domain sequences
    # ------------------------------------------------------------------
    def _build_lts_frequency(self) -> np.ndarray:
        freq = np.zeros(self.fft_size, dtype=np.complex128)
        if self.fft_size == 64:
            for offset, value in enumerate(_LTS_NEGATIVE):
                freq[_logical_to_fft_bin(-26 + offset, 64)] = value
            for offset, value in enumerate(_LTS_POSITIVE):
                freq[_logical_to_fft_bin(1 + offset, 64)] = value
            return freq
        # Deterministic +/-1 sequence on every active subcarrier for larger
        # transforms (seeded so transmitter and receiver agree).
        rng = np.random.default_rng(0x1757)
        active = self.numerology.active_bins
        values = rng.integers(0, 2, size=len(active)) * 2 - 1
        for bin_index, value in zip(active, values):
            freq[bin_index] = float(value)
        return freq

    def _build_sts_frequency(self) -> np.ndarray:
        freq = np.zeros(self.fft_size, dtype=np.complex128)
        if self.fft_size == 64:
            for logical, value in _STS_NONZERO.items():
                freq[_logical_to_fft_bin(logical, 64)] = _STS_SCALE * value
            return freq
        # Energy on every 4th active logical subcarrier, alternating QPSK
        # corners, for larger transforms.
        rng = np.random.default_rng(0x5757)
        scale = _STS_SCALE
        half_active = (len(self.numerology.active_bins)) // 2
        for logical in range(-half_active, half_active + 1):
            if logical == 0 or logical % 4 != 0:
                continue
            corner = (1 + 1j) if rng.integers(0, 2) else (-1 - 1j)
            freq[_logical_to_fft_bin(logical, self.fft_size)] = scale * corner
        return freq

    # ------------------------------------------------------------------
    # time-domain sections
    # ------------------------------------------------------------------
    def sts_time(self) -> ComplexArray:
        """Short training section: 10 repetitions of the short symbol (read-only)."""
        return self._sts

    def lts_time(self) -> ComplexArray:
        """Long training section: long cyclic prefix + two LTS repetitions (read-only)."""
        return self._lts

    # ------------------------------------------------------------------
    # MIMO schedule (Fig. 2)
    # ------------------------------------------------------------------
    def mimo_preamble(self, n_antennas: int) -> ComplexArray:
        """Per-antenna preamble waveforms, shape ``(n_antennas, preamble_length)``.

        Antenna 0 transmits the STS; each antenna then transmits the LTS in
        its own slot while the others stay silent, as
        :meth:`transmission_schedule` lists.  Built once per antenna count
        and returned read-only.
        """
        waveform = self._mimo_preambles.get(n_antennas)
        if waveform is not None:
            return waveform
        schedule = self.transmission_schedule(n_antennas)
        _, _, last_start, last_length = schedule[-1]
        waveform = np.zeros((n_antennas, last_start + last_length), dtype=np.complex128)
        for section, antenna, start, length in schedule:
            section_samples = self._sts if section == "STS" else self._lts
            waveform[antenna, start : start + length] = section_samples
        self._mimo_preambles[n_antennas] = _read_only(waveform)
        return waveform

    def transmission_schedule(self, n_antennas: int) -> List[Tuple[str, int, int, int]]:
        """Human-readable schedule: (section, antenna, start, length) tuples.

        Reproduces Fig. 2 as data, used by the preamble benchmark and the
        documentation examples.  A count that is not an integer of at
        least 1 raises :class:`~repro.exceptions.ConfigurationError`.
        """
        n_antennas = integer_at_least("n_antennas", n_antennas, 1)
        sts_length, slot_length = self._sts.size, self._lts.size
        return [("STS", 0, 0, sts_length)] + [
            ("LTS", antenna, sts_length + antenna * slot_length, slot_length)
            for antenna in range(n_antennas)
        ]
