"""4x4 MIMO-OFDM transmitter (Fig. 1).

The transmit datapath per spatial stream is: scramble -> convolutional
encoder -> block interleaver -> LUT symbol mapper -> pilot insertion -> IFFT
-> cyclic prefix.  The burst control path prepends the staggered MIMO
preamble (STS from antenna 0 only, one LTS slot per antenna) before the data
OFDM symbols, exactly as Fig. 2 requires for receiver-side channel
estimation; :func:`~repro.core.preamble.burst_layout` places every section.

Mirroring the receive chain, the datapath runs over a whole stack of
bursts: every stream of every burst is scrambled, encoded, interleaved
and LUT-mapped as one ``(n_bursts * n_streams, ...)`` stack, scattered
into one frequency-domain block, pilot-inserted with one
:meth:`~repro.core.pilots.PilotProcessor.insert_block` pass, transformed
by a single planned IFFT, and cyclic-prefixed with one indexed gather.
Every row crosses the same arithmetic, so a burst's samples do not
depend on the stack it went on air in.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.coding.convolutional import ConvolutionalCode, ConvolutionalEncoder
from repro.coding.interleaver import interleave
from repro.coding.scrambler import Scrambler
from repro.core.config import TransceiverConfig
from repro.core.frame import TransmitBurst
from repro.core.pilots import PilotProcessor
from repro.core.preamble import PreambleGenerator, burst_layout
from repro.dsp.fft import ifft
from repro.exceptions import ConfigurationError, integer_at_least
from repro.modulation.mapper import SymbolMapper
from repro.types import BitArray, ComplexArray


class MimoTransmitter:
    """MIMO-OFDM burst transmitter.

    Parameters
    ----------
    config:
        Transceiver configuration; defaults to the paper's synthesised
        configuration (4x4, 16-QAM, 64-point OFDM, rate 1/2).
    """

    def __init__(self, config: Optional[TransceiverConfig] = None) -> None:
        self.config = config if config is not None else TransceiverConfig()
        self.numerology = self.config.numerology
        self.preamble = PreambleGenerator.for_fft_size(self.config.fft_size)
        self.pilots = PilotProcessor(self.numerology)
        self.mapper = SymbolMapper(self.config.modulation)
        self.code = ConvolutionalCode(self.config.code_rate)
        self._encoder = ConvolutionalEncoder(self.code)
        self._scrambler = Scrambler()

    # ------------------------------------------------------------------
    # stacked datapath
    # ------------------------------------------------------------------
    def _map_block(self, padded_bits: BitArray, n_symbols: int) -> ComplexArray:
        """Interleave, map and pilot-insert every row's burst in one pass.

        ``padded_bits`` has shape ``(n_rows, n_symbols * n_cbps)``, one row
        per stream of every burst; the result is the
        ``(n_rows, n_symbols, fft_size)`` frequency-domain block (the
        interleaver permutes all blocks with one fancy index, the LUT
        mapper packs every symbol's address in one reshape, and the pilots
        land with one :meth:`~repro.core.pilots.PilotProcessor.insert_block`
        pass).
        """
        n_cbps = self.config.coded_bits_per_symbol
        n_bpsc = self.config.bits_per_subcarrier
        fft_size = self.config.fft_size
        n_rows = padded_bits.shape[0]
        data_bins = list(self.numerology.data_bins)

        interleaved = interleave(padded_bits, n_cbps, n_bpsc)
        points = self.mapper.map_bits(interleaved)
        block = np.zeros((n_rows, n_symbols, fft_size), dtype=np.complex128)
        block[..., data_bins] = points.reshape(n_rows, n_symbols, len(data_bins))
        return self.pilots.insert_block(block)

    def _modulate_block(self, frequency_block: ComplexArray) -> ComplexArray:
        """One planned IFFT + one strided CP gather for the whole stack.

        ``frequency_block`` has shape ``(n_rows, n_symbols, fft_size)``;
        the result is ``(n_rows, n_symbols * samples_per_symbol)`` time
        samples, value-identical to one IFFT and cyclic-prefix copy per
        symbol (the batched IFFT runs the same butterflies row by row, and
        the gather index copies exactly the prefix + symbol concatenation).
        """
        n_rows, n_symbols, fft_size = frequency_block.shape
        cp = self.config.cyclic_prefix_length
        if n_symbols == 0:
            return np.zeros((n_rows, 0), dtype=np.complex128)
        time_domain = ifft(frequency_block)
        gather = np.concatenate(
            [np.arange(fft_size - cp, fft_size), np.arange(fft_size)]
        )
        return time_domain[..., gather].reshape(n_rows, -1)

    # ------------------------------------------------------------------
    # burst assembly
    # ------------------------------------------------------------------
    def transmit(
        self, stream_bits: Union[Sequence[np.ndarray], np.ndarray]
    ) -> Union[TransmitBurst, List[TransmitBurst]]:
        """Build complete bursts from their per-stream information bits.

        Parameters
        ----------
        stream_bits:
            Either one burst — ``(n_streams, n_info_bits)`` bits, one
            equal-length row per spatial stream — or a stack of bursts,
            an array of shape ``(n_bursts, n_streams, n_info_bits)``, all
            of which go through the datapath in one pass.  Bits must be
            exactly 0 or 1; anything else, or streams of unequal length,
            raises :class:`~repro.exceptions.ConfigurationError`.

        Returns
        -------
        One :class:`~repro.core.frame.TransmitBurst` with per-antenna
        samples, or a list of one per burst of a stack (their samples and
        ``info_bits`` are views of the stack's).
        """
        n_streams = self.config.n_streams
        bits = _checked_bits(stream_bits)
        if bits.ndim not in (2, 3):
            raise ConfigurationError(
                f"one burst is (n_streams, n_info_bits) bits and a stack is "
                f"(n_bursts, n_streams, n_info_bits), got shape {bits.shape}"
            )
        stack = bits if bits.ndim == 3 else bits[None]
        if 0 in stack.shape or stack.shape[1] != n_streams:
            raise ConfigurationError(
                f"expected {n_streams} bit streams of at least one bit per burst, "
                f"got shape {bits.shape}"
            )
        n_bursts = stack.shape[0]
        rows = stack.reshape(n_bursts * n_streams, -1)  # burst-major
        n_cbps = self.config.coded_bits_per_symbol
        layout = burst_layout(self.config, rows.shape[1])

        coded = self._encoder.encode(self._scrambler.process(rows))
        padded = np.zeros((rows.shape[0], layout.n_symbols * n_cbps), dtype=np.uint8)
        padded[:, : coded.shape[1]] = coded

        frequency_symbols = self._map_block(padded, layout.n_symbols)

        samples = np.zeros((n_bursts, n_streams, layout.length), dtype=np.complex128)
        samples[..., : layout.data_start] = self.preamble.mimo_preamble(n_streams)
        samples[..., layout.data_start : layout.length - layout.tail_length] = (
            self._modulate_block(frequency_symbols).reshape(n_bursts, n_streams, -1)
        )
        bursts = [
            TransmitBurst(
                samples=samples[burst],
                info_bits=stack[burst],
                layout=layout,
                config=self.config,
            )
            for burst in range(n_bursts)
        ]
        return bursts if bits.ndim == 3 else bursts[0]

    def random_payload(self, n_info_bits: int, rng: np.random.Generator) -> BitArray:
        """``(n_streams, n_info_bits)`` random bits: one draw per stream, in
        stream order — the payload rule of every random burst."""
        n_info_bits = integer_at_least("n_info_bits", n_info_bits, 1)
        return np.stack(
            [
                rng.integers(0, 2, size=n_info_bits, dtype=np.uint8)
                for _ in range(self.config.n_streams)
            ]
        )

    def transmit_random(
        self, n_info_bits: int, rng: Optional[np.random.Generator] = None
    ) -> TransmitBurst:
        """Convenience: transmit ``n_info_bits`` random bits on every stream."""
        generator = rng if rng is not None else np.random.default_rng()  # reprolint: disable=DET001 -- opt-in convenience for interactive use; every engine path injects a seeded generator
        return self.transmit(self.random_payload(n_info_bits, generator))


def _checked_bits(values) -> BitArray:
    """``values`` as ``uint8`` bits; anything but finite, exact 0s and 1s
    (a fraction, NaN, 2, a complex or a string), or streams of unequal
    length, raises :class:`~repro.exceptions.ConfigurationError` instead
    of being cast."""
    try:
        array = np.asarray(values)
    except ValueError as exc:
        raise ConfigurationError(f"bit streams must have equal lengths: {exc}") from exc
    if array.dtype.kind not in "biuf" or not np.all((array == 0) | (array == 1)):
        raise ConfigurationError("information bits must be exactly 0 or 1")
    return array.astype(np.uint8, copy=False)
