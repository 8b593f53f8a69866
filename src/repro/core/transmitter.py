"""4x4 MIMO-OFDM transmitter (Fig. 1).

The transmit datapath per spatial stream is: scramble -> convolutional
encoder -> block interleaver -> LUT symbol mapper -> pilot insertion -> IFFT
-> cyclic prefix.  The burst control path prepends the staggered MIMO
preamble (STS from antenna 0 only, one LTS slot per antenna) before the data
OFDM symbols, exactly as Fig. 2 requires for receiver-side channel
estimation.

Mirroring the receive chain, the post-encoding datapath is vectorised over
the whole burst: all streams' coded bits are interleaved and LUT-mapped in
one pass, scattered into one ``(n_streams, n_symbols, fft_size)``
frequency-domain block, pilot-inserted with one
:meth:`~repro.core.pilots.PilotProcessor.insert_block` pass, transformed by
a single planned IFFT, and cyclic-prefixed with one indexed gather.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.coding.convolutional import ConvolutionalCode, ConvolutionalEncoder
from repro.coding.interleaver import interleave
from repro.coding.scrambler import Scrambler
from repro.core.config import TransceiverConfig
from repro.core.frame import TransmitBurst
from repro.core.pilots import PilotProcessor
from repro.core.preamble import PreambleGenerator
from repro.dsp.fft import ifft
from repro.exceptions import ConfigurationError
from repro.modulation.mapper import SymbolMapper
from repro.types import BitArray, ComplexArray
from repro.utils.bits import _as_bit_array


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
        self.preamble = PreambleGenerator(self.config.fft_size)
        self.pilots = PilotProcessor(self.numerology)
        self.mapper = SymbolMapper(self.config.modulation)
        self.code = ConvolutionalCode.ieee80211a(self.config.code_rate)
        self._encoder = ConvolutionalEncoder(self.code)
        self._scrambler = Scrambler()

    # ------------------------------------------------------------------
    # sizing helpers
    # ------------------------------------------------------------------
    def symbols_for_info_bits(self, n_info_bits: int) -> int:
        """Number of OFDM symbols needed to carry ``n_info_bits`` per stream."""
        if n_info_bits <= 0:
            raise ConfigurationError("n_info_bits must be positive")
        coded = self.code.coded_length(n_info_bits)
        n_cbps = self.config.coded_bits_per_symbol
        return -(-coded // n_cbps)

    def max_info_bits(self, n_ofdm_symbols: int) -> int:
        """Largest number of information bits that fit in ``n_ofdm_symbols``."""
        if n_ofdm_symbols <= 0:
            raise ConfigurationError("n_ofdm_symbols must be positive")
        capacity = n_ofdm_symbols * self.config.coded_bits_per_symbol
        rate = self.config.code_rate.fraction
        # Invert the coded length: coded = ceil((info + tail)/rate); search down
        # from the continuous estimate to stay within capacity.
        estimate = int(capacity * rate) - self.code.memory
        while estimate > 0 and self.code.coded_length(estimate) > capacity:
            estimate -= 1
        if estimate <= 0:
            raise ConfigurationError("burst too short to carry any information bits")
        return estimate

    # ------------------------------------------------------------------
    # per-stream datapath
    # ------------------------------------------------------------------
    def _encode_stream(self, bits: np.ndarray) -> tuple[np.ndarray, int]:
        """Scramble + encode one stream; returns (coded bits, n_symbols)."""
        coded = self._encoder.encode(self._scrambler.process(bits))
        return coded, -(-coded.size // self.config.coded_bits_per_symbol)

    # ------------------------------------------------------------------
    # whole-burst datapath
    # ------------------------------------------------------------------
    def _map_block(self, padded_bits: BitArray, n_symbols: int) -> ComplexArray:
        """Interleave, map and pilot-insert every stream's burst in one pass.

        ``padded_bits`` has shape ``(n_streams, n_symbols * n_cbps)``; the
        result is the ``(n_streams, n_symbols, fft_size)`` frequency-domain
        block (the interleaver permutes all blocks with one fancy index, the
        LUT mapper packs every symbol's address in one reshape, and the
        pilots land with one
        :meth:`~repro.core.pilots.PilotProcessor.insert_block` pass).
        """
        n_cbps = self.config.coded_bits_per_symbol
        n_bpsc = self.config.bits_per_subcarrier
        fft_size = self.config.fft_size
        n_streams = padded_bits.shape[0]
        data_bins = list(self.numerology.data_bins)

        interleaved = interleave(padded_bits, n_cbps, n_bpsc)
        points = self.mapper.map_bits(interleaved)
        block = np.zeros((n_streams, n_symbols, fft_size), dtype=np.complex128)
        block[..., data_bins] = points.reshape(n_streams, n_symbols, len(data_bins))
        return self.pilots.insert_block(block)

    def _modulate_block(self, frequency_block: ComplexArray) -> ComplexArray:
        """One planned IFFT + one strided CP gather for the whole burst.

        ``frequency_block`` has shape ``(n_streams, n_symbols, fft_size)``;
        the result is ``(n_streams, n_symbols * samples_per_symbol)`` time
        samples, value-identical to per-symbol
        :func:`~repro.dsp.fft.ofdm_modulate` (the batched IFFT runs the same
        butterflies row by row, and the gather index copies exactly the
        prefix + symbol concatenation).
        """
        n_streams, n_symbols, fft_size = frequency_block.shape
        cp = self.config.cyclic_prefix_length
        if n_symbols == 0:
            return np.zeros((n_streams, 0), dtype=np.complex128)
        time_domain = ifft(frequency_block)
        gather = np.concatenate(
            [np.arange(fft_size - cp, fft_size), np.arange(fft_size)]
        )
        return time_domain[..., gather].reshape(n_streams, -1)

    # ------------------------------------------------------------------
    # burst assembly
    # ------------------------------------------------------------------
    def transmit(self, stream_bits: Sequence[np.ndarray]) -> TransmitBurst:
        """Build a complete burst from per-stream information bits.

        Parameters
        ----------
        stream_bits:
            One bit array per spatial stream (``n_antennas`` arrays).  All
            streams are padded to the same number of OFDM symbols.

        Returns
        -------
        :class:`~repro.core.frame.TransmitBurst` with per-antenna samples.
        """
        n_streams = self.config.n_streams
        if len(stream_bits) != n_streams:
            raise ConfigurationError(
                f"expected {n_streams} bit streams, got {len(stream_bits)}"
            )
        info_bits = [_as_bit_array(bits) for bits in stream_bits]
        for bits in info_bits:
            if bits.size == 0:
                raise ConfigurationError("every stream must carry at least one bit")

        encoded, symbol_counts = zip(*(self._encode_stream(bits) for bits in info_bits))
        n_symbols = max(symbol_counts)
        padded = np.zeros(
            (n_streams, n_symbols * self.config.coded_bits_per_symbol), dtype=np.uint8
        )
        for row, coded in zip(padded, encoded):
            row[: coded.size] = coded

        frequency_symbols = self._map_block(padded, n_symbols)

        preamble_waveform = self.preamble.mimo_preamble(n_streams)
        layout = self.preamble.layout(n_streams)
        data_length = n_symbols * self.config.samples_per_symbol
        # A short idle tail (one cyclic-prefix length of zeros) ends the
        # burst; it models the transmitter returning to idle and gives the
        # receiver timing margin when the synchroniser locks a sample or two
        # late on dispersive channels.
        tail_length = self.config.cyclic_prefix_length
        burst = np.zeros(
            (n_streams, layout.total_length + data_length + tail_length),
            dtype=np.complex128,
        )
        burst[:, : layout.total_length] = preamble_waveform
        data_end = layout.total_length + data_length
        burst[:, layout.total_length : data_end] = self._modulate_block(
            frequency_symbols
        )

        return TransmitBurst(
            samples=burst,
            info_bits=info_bits,
            coded_bits=list(padded),
            n_ofdm_symbols=n_symbols,
            layout=layout,
            config=self.config,
            frequency_symbols=frequency_symbols,
        )

    def transmit_random(
        self, n_info_bits: int, rng: Optional[np.random.Generator] = None
    ) -> TransmitBurst:
        """Convenience: transmit ``n_info_bits`` random bits on every stream."""
        generator = rng if rng is not None else np.random.default_rng()  # reprolint: disable=DET001 -- opt-in convenience for interactive use; every engine path injects a seeded generator
        streams = [
            generator.integers(0, 2, size=n_info_bits, dtype=np.uint8)
            for _ in range(self.config.n_streams)
        ]
        return self.transmit(streams)
