"""Pilot insertion, phase correction and feed-forward timing correction.

Every OFDM data symbol carries pilot tones whose polarity is scrambled by
the 127-length pilot-polarity sequence.  On the receiver the (equalised)
pilots are extracted and de-scrambled, their average is used to correct the
common phase of the whole symbol, and — following the paper's feed-forward
timing synchronisation — the per-subcarrier phase slope of the pilots gives
a timing value ``tau`` that is applied as an incrementing per-subcarrier
correction (the hardware uses a running adder; the model applies the
equivalent phase ramp).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coding.scrambler import pilot_polarity_sequence
from repro.core.config import OfdmNumerology
from repro.exceptions import ConfigurationError

#: Rows of the pilot-polarity table, which symbol ``n`` reads modulo its
#: length.  No multiple of the sequence's period (127): longer bursts
#: leave the sequence (a strict xfail in ``tests/test_core_pilots.py``).
POLARITY_TABLE_LENGTH = 4096


@dataclass(frozen=True)
class PilotBlockCorrection:
    """Diagnostics of the pilot corrections for a whole block of symbols.

    Each field is an array shaped like the corrected block without its
    subcarrier axis (e.g. ``(n_streams, n_symbols)`` for a burst), holding
    one value per symbol: the removed common phase, the timing slope
    ``tau`` and the mean pilot magnitude.
    """

    common_phase: np.ndarray
    tau: np.ndarray
    pilot_magnitude: np.ndarray


class PilotProcessor:
    """Insert pilots on the transmitter and correct phase/timing on the receiver."""

    def __init__(self, numerology: OfdmNumerology) -> None:
        self.numerology = numerology
        self._polarity = pilot_polarity_sequence(POLARITY_TABLE_LENGTH)
        self._base = np.array(numerology.pilot_values, dtype=np.complex128)

    def _pilots_of(self, n_symbols: int) -> np.ndarray:
        """The per-symbol pilot table of a burst's first ``n_symbols``
        symbols, ``(n_symbols, n_pilots)``: row ``n`` holds the base pilot
        values times the polarity of symbol ``n``."""
        polarity = self._polarity[np.arange(n_symbols) % self._polarity.size]
        return self._base * polarity[:, None]

    # ------------------------------------------------------------------
    def insert_block(self, block: np.ndarray) -> np.ndarray:
        """Write the pilots into a whole block of OFDM symbols.

        Parameters
        ----------
        block:
            Frequency-domain symbols with the subcarrier axis last and the
            symbol axis second-to-last: shape ``(..., n_symbols, fft_size)``.
            Any further leading axes (spatial streams) share the same
            per-symbol pilot values.

        Returns
        -------
        A copy of ``block`` whose pilot bins along symbol ``n`` hold the
        base pilot values times the polarity of burst symbol ``n``.
        """
        symbols = np.asarray(block, dtype=np.complex128).copy()
        if symbols.ndim < 2:
            raise ConfigurationError("block must have shape (..., n_symbols, fft_size)")
        if symbols.shape[-1] != self.numerology.fft_size:
            raise ConfigurationError("frequency-domain symbols have the wrong length")
        symbols[..., list(self.numerology.pilot_bins)] = self._pilots_of(symbols.shape[-2])
        return symbols

    def correct_block(self, block: np.ndarray) -> tuple[np.ndarray, PilotBlockCorrection]:
        """Apply common-phase and timing (tau) correction to every symbol.

        Parameters
        ----------
        block:
            Equalised frequency-domain symbols with the subcarrier axis last
            and the symbol axis second-to-last: shape ``(..., n_symbols,
            fft_size)``.  Any further leading axes (spatial streams) are
            corrected independently.

        Returns
        -------
        (corrected_block, corrections)
            Every ``(..., n, :)`` slice is corrected with the pilots of
            burst symbol ``n``.  Symbols whose pilot
            correlation is exactly zero are left untouched with zeroed
            corrections.
        """
        # A C-contiguous operand is required for bit-exactness, not speed:
        # numpy picks its pairwise-reduction strategy from the strides, so
        # summing pilots out of a non-contiguous block (einsum output) can
        # differ from the one-symbol-at-a-time reduction in the last ULP.
        symbols = np.ascontiguousarray(block, dtype=np.complex128)
        if symbols.ndim < 2:
            raise ConfigurationError("block must have shape (..., n_symbols, fft_size)")
        if symbols.shape[-1] != self.numerology.fft_size:
            raise ConfigurationError("frequency-domain symbols have the wrong length")
        pilot_bins = list(self.numerology.pilot_bins)
        expected = self._pilots_of(symbols.shape[-2])

        measured = symbols[..., pilot_bins]
        correlation = np.sum(measured * np.conj(expected), axis=-1)
        zero = np.abs(correlation) == 0

        # --- common phase correction (de-scrambled pilot average) ---------
        common_phase = np.where(zero, 0.0, np.angle(correlation))
        symbols = symbols * np.exp(-1j * common_phase)[..., None]

        # --- feed-forward timing correction (tau) -------------------------
        # After the common phase is removed, a residual timing error shows up
        # as a phase proportional to the logical subcarrier index.  Each
        # pilot's phase divided by its subcarrier number estimates tau; the
        # average over pilots is used (as in the paper), implemented here as
        # a magnitude-weighted least-squares slope for numerical robustness.
        measured = symbols[..., pilot_bins]
        pilot_indices = np.array(self.numerology.pilot_logical, dtype=np.float64)
        phases = np.angle(measured * np.conj(expected))
        weights = np.abs(measured)
        denom = np.sum(weights * pilot_indices * pilot_indices, axis=-1)
        numer = np.sum(weights * pilot_indices * phases, axis=-1)
        valid = ~zero & (denom != 0)
        tau = np.zeros_like(denom)
        np.divide(numer, denom, out=tau, where=valid)

        # Apply the incrementing per-subcarrier correction.
        logical = self._logical_index_vector()
        # Named, not a temporary: numpy reuses a temporary operand of 256 KiB
        # or more as the output, which swaps this product's operands, and
        # its complex multiply is not bitwise commutative, so a tall stack
        # would round differently from each of its bursts alone.
        rotation = np.exp(-1j * tau[..., None] * logical)
        symbols = symbols * rotation
        magnitude = np.where(zero, 0.0, np.mean(np.abs(measured), axis=-1))
        return symbols, PilotBlockCorrection(
            common_phase=common_phase, tau=tau, pilot_magnitude=magnitude
        )

    # ------------------------------------------------------------------
    def _logical_index_vector(self) -> np.ndarray:
        """Logical subcarrier index of every FFT bin (0 for DC, negative above N/2)."""
        n = self.numerology.fft_size
        logical = np.arange(n, dtype=np.float64)
        logical[logical > n / 2] -= n
        return logical
