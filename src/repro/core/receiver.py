"""4x4 MIMO-OFDM receiver (Fig. 5).

The receive datapath is: time synchronisation (sliding-window correlation
against the stored STS/LTS transition), per-antenna FFT of the staggered LTS
slots, per-subcarrier channel estimation and QRD-based matrix inversion,
MIMO detection of every data OFDM symbol (zero-forcing as in the paper, or
the MMSE baseline via ``TransceiverConfig.detector``), pilot phase and
feed-forward timing correction, symbol demapping (hard or soft, batched
over the whole burst), block de-interleaving, Viterbi decoding and
descrambling.

The post-sync chain is vectorised over the whole burst: every data FFT
window is gathered into one ``(n_rx, n_symbols, fft_size)`` block, pushed
through a single planned FFT call (:mod:`repro.dsp.fft`'s cached
:class:`~repro.dsp.fft.FftPlan`), detected with one per-subcarrier einsum
and pilot-corrected with one :meth:`~repro.core.pilots.PilotProcessor.
correct_block` pass.  Channel inversion runs every active subcarrier
through one stacked QR, and all streams are demapped and de-interleaved
in one pass.

Reception is two steps: :meth:`MimoReceiver.front_end` carries a burst up
to its recovered code blocks, and :meth:`MimoReceiver.decode`
Viterbi-decodes and descrambles any stack of code blocks in one trellis
pass.  :meth:`MimoReceiver.receive` chains the two for one burst; the
sweep engine runs many bursts' front ends and decodes all their blocks
together.

Finite word lengths are modelled at the paper's two RX interfaces when the
configuration asks for them: the incoming sample stream is quantised to
``TransceiverConfig.rx_sample_format`` (the 16-bit I/Q antenna interface)
before synchronisation, and every FFT output entering channel estimation
and detection is quantised to ``TransceiverConfig.rx_multiplier_format``
(the 18-bit embedded-multiplier operands).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.convolutional import ConvolutionalCode, ConvolutionalEncoder
from repro.coding.interleaver import deinterleave
from repro.coding.scrambler import Scrambler
from repro.coding.viterbi import ViterbiDecoder
from repro.contracts import shaped
from repro.core.config import TransceiverConfig
from repro.core.frame import (
    FrontEndResult,
    ReceiveResult,
    StreamDecodeResult,
    count_bit_errors,
)
from repro.core.pilots import PilotProcessor
from repro.core.preamble import PreambleGenerator
from repro.dsp.fft import fft
from repro.exceptions import ConfigurationError, DecodingError, SynchronizationError
from repro.mimo.channel_estimation import ChannelEstimate, ChannelEstimator
from repro.mimo.detector import MmseDetector, zf_detect
from repro.modulation.demapper import SymbolDemapper
from repro.sync.cfo import CfoEstimator
from repro.sync.time_sync import TimeSynchronizer
from repro.types import ComplexArray, FloatArray


class MimoReceiver:
    """MIMO-OFDM burst receiver.

    Parameters
    ----------
    config:
        Transceiver configuration (must match the transmitter's).
    sync_mode:
        ``"peak"`` (robust, default) or ``"threshold"`` (hardware behaviour)
        for the time synchroniser.
    timing_advance:
        Samples by which every FFT window (LTS and data) is advanced into
        the cyclic prefix.  Because the same advance is applied to the
        channel-estimation windows and the data windows, the resulting phase
        ramp cancels in equalisation; the advance simply moves any
        late-timing error of the synchroniser into the cyclic prefix instead
        of into the next symbol.
    """

    def __init__(
        self,
        config: Optional[TransceiverConfig] = None,
        sync_mode: str = "peak",
        timing_advance: int = 2,
    ) -> None:
        self.config = config if config is not None else TransceiverConfig()
        if timing_advance < 0 or timing_advance > self.config.cyclic_prefix_length:
            raise ConfigurationError(
                "timing_advance must lie within the cyclic prefix"
            )
        self.timing_advance = timing_advance
        self.numerology = self.config.numerology
        self.preamble = PreambleGenerator(self.config.fft_size)
        self.pilots = PilotProcessor(self.numerology)
        self.demapper = SymbolDemapper(self.config.modulation)
        self.code = ConvolutionalCode.ieee80211a(self.config.code_rate)
        self._encoder = ConvolutionalEncoder(self.code)
        decision = "soft" if self.config.soft_decision else "hard"
        self.viterbi = ViterbiDecoder(self.code, decision=decision)
        self._scrambler = Scrambler()
        self.synchronizer = TimeSynchronizer(
            sts_time=self.preamble.sts_time(),
            lts_time=self.preamble.lts_time(),
            mode=sync_mode,
        )
        self.cfo_estimator = (
            CfoEstimator(self.config.fft_size) if self.config.correct_cfo else None
        )
        self.channel_estimator = ChannelEstimator(
            reference_lts=self.preamble.lts_frequency,
            use_cordic=self.config.use_cordic_channel_inversion,
        )

    # ------------------------------------------------------------------
    # fixed-point interfaces
    # ------------------------------------------------------------------
    def _quantize_multiplier(self, values: np.ndarray) -> np.ndarray:
        """Clamp frequency-domain values to the multiplier operand format."""
        fmt = self.config.rx_multiplier_format
        return fmt.quantize_complex(values) if fmt is not None else values

    # ------------------------------------------------------------------
    # synchronisation and channel estimation
    # ------------------------------------------------------------------
    def synchronize(self, samples: np.ndarray) -> int:
        """Locate the LTS start across all receive antennas.

        Every antenna's stream is searched; the antenna with the strongest
        correlation peak wins (the STS is transmitted from antenna 0 only,
        so different receive antennas see it with different channel gains).

        Raises :class:`~repro.exceptions.SynchronizationError` when no
        antenna yields a finite correlation peak (e.g. NaN or infinite
        samples).
        """
        streams = np.asarray(samples, dtype=np.complex128)
        if streams.ndim != 2:
            raise ConfigurationError("samples must have shape (n_rx, n_samples)")
        best_start = None
        best_peak = -1.0
        for antenna in range(streams.shape[0]):
            result = self.synchronizer.search(streams[antenna])
            if np.isfinite(result.peak_magnitude) and result.peak_magnitude > best_peak:
                best_peak = result.peak_magnitude
                best_start = result.lts_start
        if best_start is None:
            raise SynchronizationError("no receive antenna yielded a finite correlation peak")
        return int(best_start)

    def estimate_channel(
        self, samples: np.ndarray, lts_start: int
    ) -> ChannelEstimate:
        """Estimate the channel from the staggered LTS slots of a burst.

        Raises :class:`~repro.exceptions.DecodingError` when any LTS FFT
        window falls outside the received samples — a window that starts
        before sample zero is truncated and would only yield a garbage
        estimate (the sweep engine counts that burst as a lost frame).
        """
        streams = np.asarray(samples, dtype=np.complex128)
        n_tx = self.config.n_antennas
        fft_size = self.config.fft_size
        layout = self.preamble.layout(n_tx)
        lts_cp = self.preamble.lts_cp_length

        slot_starts = (
            int(lts_start)
            + np.arange(n_tx) * layout.lts_slot_length
            + lts_cp
            - self.timing_advance
        )
        if slot_starts[0] < 0:
            raise DecodingError(
                f"LTS FFT window starts {-int(slot_starts[0])} samples before the "
                "burst (lts_start too small); refusing to decode a truncated window"
            )
        if slot_starts[-1] + 2 * fft_size > streams.shape[1]:
            raise DecodingError("burst too short to contain the full LTS preamble")

        # Gather every (slot, repetition) window of every antenna and run one
        # planned FFT over the whole stack: (n_rx, n_tx, 2, fft_size).
        window = (
            slot_starts[:, None, None]
            + np.arange(2)[None, :, None] * fft_size
            + np.arange(fft_size)[None, None, :]
        )
        frequency = self._quantize_multiplier(fft(streams[:, window]))
        # Averaged with an adder and right shift in hardware.
        averaged = (frequency[:, :, 0] + frequency[:, :, 1]) / 2.0
        return self.channel_estimator.estimate(averaged.transpose(1, 0, 2))

    # ------------------------------------------------------------------
    # stream decoding
    # ------------------------------------------------------------------
    def _coded_values(
        self,
        equalized_symbols: np.ndarray,
        n_info_bits: int,
        noise_variance: float,
    ) -> np.ndarray:
        """Demap and de-interleave every stream back to its code block.

        ``equalized_symbols`` has shape ``(n_streams, n_symbols,
        n_data_subcarriers)``; the result has shape ``(n_streams,
        coded_length)``.  All streams go through one demap and one
        de-interleave permutation pass.
        """
        n_streams = equalized_symbols.shape[0]
        n_cbps = self.config.coded_bits_per_symbol
        n_bpsc = self.config.bits_per_subcarrier
        if equalized_symbols.shape[1] == 0:
            received = np.zeros((n_streams, 0))
        else:
            demapped = self.demapper.demap(
                equalized_symbols,
                soft=self.config.soft_decision,
                noise_variance=noise_variance,
            )
            received = deinterleave(demapped, n_cbps, n_bpsc).reshape(n_streams, -1)

        coded_length = self._encoder.coded_length(n_info_bits, terminate=True)
        if received.shape[1] < coded_length:
            raise DecodingError(
                "recovered coded stream shorter than the expected code block"
            )
        return received[:, :coded_length]

    def decode(self, coded: np.ndarray, n_info_bits: int) -> np.ndarray:
        """Viterbi-decode and descramble a stack of code blocks.

        ``coded`` has shape ``(n_rows, coded_length)`` — the
        :attr:`~repro.core.frame.FrontEndResult.coded` rows of one burst
        or of many bursts of this configuration stacked together; the
        result has shape ``(n_rows, n_info_bits)``.  Every row runs
        through one trellis pass, like the paper's per-channel decoders
        running side by side, and comes out exactly as decoding it on its
        own would give.
        """
        decoded = self.viterbi.decode(coded, n_info_bits=n_info_bits, terminated=True)
        if self.config.scramble:
            decoded = self._scrambler.process(decoded, reset=True)
        return decoded

    # ------------------------------------------------------------------
    # post-sync datapath: FFT windows -> MIMO detection -> pilot correction
    # ------------------------------------------------------------------
    @shaped(streams="(n_rx, n_samples)")
    def equalize_burst(
        self,
        streams: ComplexArray,
        estimate: ChannelEstimate,
        data_start: int,
        n_symbols: int,
        noise_variance: float = 1.0,
    ) -> Tuple[ComplexArray, FloatArray]:
        """Equalise every data OFDM symbol of a synchronised burst.

        This is the paper's Fig. 5 inner datapath: per-antenna FFT of each
        data window, per-subcarrier MIMO detection (ZF or MMSE per the
        configuration), and pilot phase/timing correction — with the
        ``rx_multiplier_format`` quantisation applied to every FFT output.
        The whole burst runs as one strided gather, one planned FFT over
        ``(n_rx, n_symbols, fft_size)``, one detection einsum and one
        batched pilot pass.

        Parameters
        ----------
        streams:
            Received samples, shape ``(n_rx, n_samples)`` (already CFO
            corrected / sample-quantised as applicable).
        estimate:
            Channel estimate driving the detector.
        data_start:
            Sample index of the first data OFDM symbol.
        n_symbols:
            Number of data OFDM symbols to equalise.
        noise_variance:
            Noise variance for the MMSE detector weights.

        Returns
        -------
        (equalized, pilot_phases)
            ``equalized`` has shape ``(n_tx, n_symbols, n_data_subcarriers)``;
            ``pilot_phases`` holds each symbol's common pilot phase in
            (symbol, stream) order.
        """
        sps = self.config.samples_per_symbol
        cp = self.config.cyclic_prefix_length
        fft_size = self.config.fft_size

        data_bins = list(self.numerology.data_bins)
        starts = data_start + np.arange(n_symbols) * sps + cp - self.timing_advance
        if n_symbols and starts[0] < 0:
            raise DecodingError(
                f"data FFT window starts {-int(starts[0])} samples before the "
                "burst (data_start too small); refusing to decode a truncated window"
            )
        if n_symbols and int(starts[-1]) + fft_size > streams.shape[1]:
            raise DecodingError(
                "burst too short for the requested number of OFDM symbols"
            )

        if self.config.detector == "mmse":
            mmse = MmseDetector(estimate, noise_variance)
            detect = mmse.detect
        else:
            def detect(frequency: np.ndarray) -> np.ndarray:
                return zf_detect(frequency, estimate.inverses)

        window = starts[:, None] + np.arange(fft_size)
        frequency = self._quantize_multiplier(fft(streams[:, window]))
        detected = detect(frequency)
        corrected, diag = self.pilots.correct_block(detected)
        # (symbol, stream) order fixes the summation order of the
        # mean-pilot-phase diagnostic.
        pilot_phases = diag.common_phase.T.ravel()
        return corrected[..., data_bins], pilot_phases

    # ------------------------------------------------------------------
    # externally-detected frame windows (streaming entry point)
    # ------------------------------------------------------------------
    def frame_length(self, n_info_bits: int) -> int:
        """Burst length in samples for ``n_info_bits`` per spatial stream.

        Mirrors the transmitter's burst construction exactly: preamble +
        data OFDM symbols + the one-cyclic-prefix idle tail.  A streaming
        frame detector uses this to know how many samples to cut around a
        detected preamble.
        """
        if n_info_bits <= 0:
            raise ConfigurationError("n_info_bits must be positive")
        coded_length = self._encoder.coded_length(n_info_bits, terminate=True)
        n_symbols = -(-coded_length // self.config.coded_bits_per_symbol)
        layout = self.preamble.layout(self.config.n_antennas)
        return (
            layout.total_length
            + n_symbols * self.config.samples_per_symbol
            + self.config.cyclic_prefix_length
        )

    def receive_window(
        self,
        window: np.ndarray,
        n_info_bits: int,
        lts_offset: int,
        noise_variance: float = 1.0,
        reference_bits: Optional[Sequence[np.ndarray]] = None,
    ) -> ReceiveResult:
        """Decode one externally-detected frame window.

        The streaming pipeline's entry point: a frame detector has already
        located the burst in a continuous stream and cut out a complete
        window (see :meth:`frame_length`), so time synchronisation is
        skipped and ``lts_offset`` — the LTS start *relative to the
        window* — is trusted.  Everything downstream (CFO, channel
        estimation, equalisation, decoding) is the exact offline
        :meth:`receive` datapath, which is what makes chunked streaming
        decode bit-exact against the burst loop.
        """
        streams = np.asarray(window, dtype=np.complex128)
        if streams.ndim != 2 or streams.shape[0] != self.config.n_antennas:
            raise ConfigurationError(
                f"window must have shape ({self.config.n_antennas}, n_samples)"
            )
        if not 0 <= int(lts_offset) < streams.shape[1]:
            raise ConfigurationError("lts_offset must lie inside the window")
        return self.receive(
            streams,
            n_info_bits,
            lts_start=int(lts_offset),
            noise_variance=noise_variance,
            reference_bits=reference_bits,
        )

    # ------------------------------------------------------------------
    # full burst reception
    # ------------------------------------------------------------------
    def front_end(
        self,
        samples: np.ndarray,
        n_info_bits: int,
        lts_start: Optional[int] = None,
        noise_variance: float = 1.0,
    ) -> FrontEndResult:
        """Recover one burst's coded values: everything before the decoder.

        Runs sample quantisation, time synchronisation, CFO correction,
        channel estimation, equalisation, demapping and de-interleaving,
        and returns each stream's ``(n_streams, coded_length)`` code block
        for :meth:`decode`.  Splitting here lets a caller stack the code
        blocks of many bursts into one trellis pass.  Parameters are those
        of :meth:`receive`.

        Raises :class:`~repro.exceptions.DecodingError` when the burst
        cannot be decoded at all (sync miss, truncated windows, a
        rank-deficient estimate, or a coded stream shorter than the code
        block).
        """
        streams = np.asarray(samples, dtype=np.complex128)
        if streams.ndim != 2 or streams.shape[0] != self.config.n_antennas:
            raise ConfigurationError(
                f"samples must have shape ({self.config.n_antennas}, n_samples)"
            )
        if n_info_bits <= 0:
            raise ConfigurationError("n_info_bits must be positive")

        if self.config.rx_sample_format is not None:
            streams = self.config.rx_sample_format.quantize_complex(streams)

        if lts_start is None:
            lts_start = self.synchronize(streams)

        estimated_cfo = 0.0
        if self.cfo_estimator is not None:
            cfo = self.cfo_estimator.estimate(streams, lts_start)
            streams = self.cfo_estimator.correct(streams, cfo)
            estimated_cfo = cfo.combined

        estimate = self.estimate_channel(streams, lts_start)

        n_tx = self.config.n_antennas
        layout = self.preamble.layout(n_tx)
        data_start = lts_start + n_tx * layout.lts_slot_length
        coded_length = self._encoder.coded_length(n_info_bits, terminate=True)
        n_cbps = self.config.coded_bits_per_symbol
        n_symbols = -(-coded_length // n_cbps)
        sps = self.config.samples_per_symbol
        if data_start + n_symbols * sps > streams.shape[1]:
            raise DecodingError("burst too short for the requested number of OFDM symbols")

        equalized, pilot_phases = self.equalize_burst(
            streams, estimate, data_start, n_symbols, noise_variance
        )
        return FrontEndResult(
            coded=self._coded_values(equalized, n_info_bits, noise_variance),
            equalized=equalized,
            lts_start=int(lts_start),
            channel_estimate=estimate,
            diagnostics={
                "lts_start": float(lts_start),
                "n_ofdm_symbols": float(n_symbols),
                "mean_pilot_phase": (
                    float(np.mean(pilot_phases)) if len(pilot_phases) else 0.0
                ),
                "estimated_cfo": estimated_cfo,
            },
        )

    def receive(
        self,
        samples: np.ndarray,
        n_info_bits: int,
        lts_start: Optional[int] = None,
        noise_variance: float = 1.0,
        reference_bits: Optional[Sequence[np.ndarray]] = None,
    ) -> ReceiveResult:
        """Decode one burst: :meth:`front_end`, then :meth:`decode` its streams.

        Parameters
        ----------
        samples:
            Received baseband samples, shape ``(n_rx, n_samples)``.
        n_info_bits:
            Information bits carried by each spatial stream (in a real system
            this is conveyed by a SIGNAL field; here it is a parameter).
        lts_start:
            Skip time synchronisation and use this LTS start index instead
            (useful for isolating other blocks in tests).
        noise_variance:
            Noise variance used to scale soft-decision LLRs.
        reference_bits:
            When provided, per-stream BER is computed and attached to the
            result.
        """
        front = self.front_end(samples, n_info_bits, lts_start, noise_variance)
        decoded_streams = self.decode(front.coded, n_info_bits)
        results: List[StreamDecodeResult] = []
        for stream, decoded in enumerate(decoded_streams):
            bit_errors = None
            ber = None
            if reference_bits is not None:
                bit_errors = count_bit_errors(decoded, reference_bits[stream])
                ber = bit_errors / decoded.size
            results.append(
                StreamDecodeResult(
                    stream=stream,
                    decoded_bits=decoded,
                    equalized_symbols=front.equalized[stream],
                    bit_errors=bit_errors,
                    bit_error_rate=ber,
                )
            )
        return ReceiveResult(
            streams=results,
            lts_start=front.lts_start,
            channel_estimate=front.channel_estimate,
            diagnostics=front.diagnostics,
        )
