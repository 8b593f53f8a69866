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
of the channel matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.config import OfdmNumerology, _logical_to_fft_bin
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
class PreambleLayout:
    """Sample offsets of the preamble sections within a burst.

    Attributes
    ----------
    sts_length:
        Length of the short-training section in samples.
    lts_slot_length:
        Length of one LTS slot (cyclic prefix + two LTS repetitions).
    n_lts_slots:
        Number of staggered LTS slots (one per transmit antenna).
    """

    sts_length: int
    lts_slot_length: int
    n_lts_slots: int

    @property
    def total_length(self) -> int:
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
        return self.total_length


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
        self._layouts: Dict[int, PreambleLayout] = {}
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
    def layout(self, n_antennas: int) -> PreambleLayout:
        """Section offsets for an ``n_antennas``-stream burst."""
        if n_antennas <= 0:
            raise ConfigurationError("n_antennas must be positive")
        layout = self._layouts.get(n_antennas)
        if layout is None:
            layout = self._layouts[n_antennas] = PreambleLayout(
                sts_length=self._sts.size,
                lts_slot_length=self._lts.size,
                n_lts_slots=n_antennas,
            )
        return layout

    def mimo_preamble(self, n_antennas: int) -> ComplexArray:
        """Per-antenna preamble waveforms, shape ``(n_antennas, total_length)``.

        Antenna 0 transmits the STS; each antenna then transmits the LTS in
        its own slot while the others stay silent.  Built once per antenna
        count and returned read-only.
        """
        waveform = self._mimo_preambles.get(n_antennas)
        if waveform is not None:
            return waveform
        layout = self.layout(n_antennas)
        waveform = np.zeros((n_antennas, layout.total_length), dtype=np.complex128)
        waveform[0, : layout.sts_length] = self._sts
        for antenna in range(n_antennas):
            start = layout.lts_slot_start(antenna)
            waveform[antenna, start : start + layout.lts_slot_length] = self._lts
        self._mimo_preambles[n_antennas] = _read_only(waveform)
        return waveform

    def transmission_schedule(self, n_antennas: int) -> List[Tuple[str, int, int, int]]:
        """Human-readable schedule: (section, antenna, start, length) tuples.

        Reproduces Fig. 2 as data, used by the preamble benchmark and the
        documentation examples.
        """
        layout = self.layout(n_antennas)
        schedule: List[Tuple[str, int, int, int]] = [
            ("STS", 0, 0, layout.sts_length)
        ]
        for antenna in range(n_antennas):
            schedule.append(
                (
                    "LTS",
                    antenna,
                    layout.lts_slot_start(antenna),
                    layout.lts_slot_length,
                )
            )
        return schedule
