"""4x4 MIMO-OFDM receiver (Fig. 5).

The receive datapath is: time synchronisation (sliding-window correlation
against the stored STS/LTS transition), per-antenna FFT of the staggered LTS
slots, per-subcarrier channel estimation and QRD-based matrix inversion,
MIMO detection of every data OFDM symbol (zero-forcing as in the paper, or
the MMSE baseline via ``TransceiverConfig.detector``), pilot phase and
feed-forward timing correction, symbol demapping (hard or soft, batched
over the whole burst), block de-interleaving, Viterbi decoding and
descrambling.

The post-sync chain is vectorised over a whole stack of bursts:
:meth:`MimoReceiver.front_end_stack` synchronises and CFO-corrects each
burst on its own, then gathers every burst's LTS and data FFT windows into
one ``(n_items, n_rx, ...)`` stack per window kind, pushes each through a
single planned FFT call (:mod:`repro.dsp.fft`'s cached
:class:`~repro.dsp.fft.FftPlan`), estimates and inverts every burst's
channel in one stacked QR, detects with one per-subcarrier einsum (or one
stacked MMSE solve), pilot-corrects with one
:meth:`~repro.core.pilots.PilotProcessor.correct_block` pass and demaps
and de-interleaves every stream in one pass.  A burst the receiver gives
up on drops out of the stack alone.

Reception is two steps: :meth:`MimoReceiver.front_end_stack` carries
bursts up to their recovered code blocks (:meth:`MimoReceiver.front_end`
is its one-burst case), and :meth:`MimoReceiver.decode` Viterbi-decodes
and descrambles any stack of code blocks, at most :data:`DECODE_SLICE`
per trellis pass.  :meth:`MimoReceiver.receive_stack` chains the two for
a stack of bursts (:meth:`MimoReceiver.receive` is its one-burst case);
the streaming pipeline runs every frame window one push detects through
it, and the sweep engine runs a whole lockstep round of bursts through
one stacked front end and decodes all their blocks together.

Finite word lengths are modelled at the paper's two RX interfaces when the
configuration asks for them: the incoming sample stream is quantised to
``TransceiverConfig.rx_sample_format`` (the 16-bit I/Q antenna interface)
before synchronisation, and every FFT output entering channel estimation
and detection is quantised to ``TransceiverConfig.rx_multiplier_format``
(the 18-bit embedded-multiplier operands).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

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

#: Most code blocks one trellis pass decodes: :meth:`MimoReceiver.decode`
#: runs a taller stack in passes of this many rows, so the ACS buffers stay
#: bounded however many bursts a caller stacks.
DECODE_SLICE = 64


@dataclass
class _Burst:
    """One burst of a stacked front-end pass, between its stages."""

    index: int
    lts_start: int
    estimated_cfo: float
    noise_variance: float
    lts_windows: ComplexArray
    data_windows: ComplexArray
    estimate: Optional[ChannelEstimate] = None


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
        # Every (slot, repetition) LTS FFT window relative to the LTS start,
        # shape (n_tx, 2, fft_size), and the data start relative to it.
        n_tx = self.config.n_antennas
        fft_size = self.config.fft_size
        slot_length = self.preamble.layout(n_tx).lts_slot_length
        slot_starts = (
            np.arange(n_tx) * slot_length + self.preamble.lts_cp_length - timing_advance
        )
        self._lts_offsets = (
            slot_starts[:, None, None]
            + np.arange(2)[None, :, None] * fft_size
            + np.arange(fft_size)[None, None, :]
        )
        self._data_offset = n_tx * slot_length
        self._data_bins = list(self.numerology.data_bins)

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
        antenna yields a positive correlation peak (e.g. every window holds
        a NaN or infinite sample, whose metric reads 0.0).
        """
        streams = np.asarray(samples, dtype=np.complex128)
        if streams.ndim != 2:
            raise ConfigurationError("samples must have shape (n_rx, n_samples)")
        best_start = None
        best_peak = 0.0
        for antenna in range(streams.shape[0]):
            result = self.synchronizer.search(streams[antenna])
            if result.peak_magnitude > best_peak:
                best_peak = result.peak_magnitude
                best_start = result.lts_start
        if best_start is None:
            raise SynchronizationError("no receive antenna yielded a correlation peak")
        return int(best_start)

    def estimate_channel(
        self, samples: np.ndarray, lts_start: int
    ) -> ChannelEstimate:
        """Estimate the channel from the staggered LTS slots of a burst.

        Raises :class:`~repro.exceptions.DecodingError` when any LTS FFT
        window falls outside the received samples — a window that starts
        before sample zero is truncated and would only yield a garbage
        estimate (the sweep engine counts that burst as a lost frame) — and
        :class:`~repro.exceptions.ChannelEstimationError` when the estimate
        is rank deficient.
        """
        streams = np.asarray(samples, dtype=np.complex128)
        return self.channel_estimator.estimate(
            self._lts_spectra(self._lts_windows(streams, int(lts_start)))
        )

    def _lts_windows(self, streams: np.ndarray, lts_start: int) -> ComplexArray:
        """Every (slot, repetition) LTS window of a burst: ``(n_rx, n_tx, 2, fft_size)``."""
        window = lts_start + self._lts_offsets
        if window[0, 0, 0] < 0:
            raise DecodingError(
                f"LTS FFT window starts {-int(window[0, 0, 0])} samples before the "
                "burst (lts_start too small); refusing to decode a truncated window"
            )
        if window[-1, -1, -1] >= streams.shape[1]:
            raise DecodingError("burst too short to contain the full LTS preamble")
        return streams[:, window]

    def _lts_spectra(self, windows: np.ndarray) -> ComplexArray:
        """LTS windows ``(..., n_rx, n_tx, 2, fft_size)`` to the averaged
        spectra ``(..., n_tx, n_rx, fft_size)`` channel estimation takes,
        through one planned FFT over the whole stack."""
        frequency = self._quantize_multiplier(fft(windows))
        # Averaged with an adder and right shift in hardware.
        averaged = (frequency[..., 0, :] + frequency[..., 1, :]) / 2.0
        return averaged.swapaxes(-3, -2)

    # ------------------------------------------------------------------
    # stream decoding
    # ------------------------------------------------------------------
    def _coded_values(
        self,
        equalized_symbols: np.ndarray,
        coded_length: int,
        noise_variances: np.ndarray,
    ) -> np.ndarray:
        """Demap and de-interleave every stream of every burst to its code block.

        ``equalized_symbols`` has shape ``(n_items, n_streams, n_symbols,
        n_data_subcarriers)`` and ``noise_variances`` one entry per burst;
        the result has shape ``(n_items, n_streams, coded_length)``.  All
        streams go through one demap and one de-interleave permutation pass.
        """
        demapped = self.demapper.demap(
            equalized_symbols,
            soft=self.config.soft_decision,
            noise_variance=noise_variances[:, None, None, None],
        )
        received = deinterleave(
            demapped, self.config.coded_bits_per_symbol, self.config.bits_per_subcarrier
        ).reshape(equalized_symbols.shape[:2] + (-1,))
        return received[..., :coded_length]

    def decode(self, coded: np.ndarray, n_info_bits: int) -> np.ndarray:
        """Viterbi-decode and descramble a stack of code blocks.

        ``coded`` has shape ``(n_rows, coded_length)`` — the
        :attr:`~repro.core.frame.FrontEndResult.coded` rows of one burst
        or of many bursts of this configuration stacked together; the
        result has shape ``(n_rows, n_info_bits)``.  The rows run through
        the trellis side by side, like the paper's per-channel decoders,
        in passes of at most :data:`DECODE_SLICE` rows so the trellis
        buffers stay bounded for any stack height, and every row comes
        out exactly as decoding it on its own would give.
        """
        decoded = np.empty((coded.shape[0], n_info_bits), dtype=np.uint8)
        for start in range(0, coded.shape[0], DECODE_SLICE):
            decoded[start : start + DECODE_SLICE] = self.viterbi.decode(
                coded[start : start + DECODE_SLICE],
                n_info_bits=n_info_bits,
                terminated=True,
            )
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
        batched pilot pass — the one-burst case of the stacked pass
        :meth:`front_end_stack` runs.

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
        windows = self._data_windows(streams, data_start, n_symbols)
        equalized, common_phase = self._equalize(
            windows, self._detector(estimate, noise_variance)
        )
        # (symbol, stream) order fixes the summation order of the
        # mean-pilot-phase diagnostic.
        return equalized, common_phase.T.ravel()

    def _data_windows(
        self, streams: np.ndarray, data_start: int, n_symbols: int
    ) -> ComplexArray:
        """Every data FFT window of a burst: ``(n_rx, n_symbols, fft_size)``."""
        fft_size = self.config.fft_size
        starts = (
            data_start
            + np.arange(n_symbols) * self.config.samples_per_symbol
            + self.config.cyclic_prefix_length
            - self.timing_advance
        )
        if n_symbols and starts[0] < 0:
            raise DecodingError(
                f"data FFT window starts {-int(starts[0])} samples before the "
                "burst (data_start too small); refusing to decode a truncated window"
            )
        if n_symbols and int(starts[-1]) + fft_size > streams.shape[1]:
            raise DecodingError(
                "burst too short for the requested number of OFDM symbols"
            )
        return streams[:, starts[:, None] + np.arange(fft_size)]

    def _detector(
        self, estimate: ChannelEstimate, noise_variance: Union[float, np.ndarray]
    ) -> Callable[[np.ndarray], np.ndarray]:
        """The configured detector for an estimate, stacked or not: ZF
        multiplies its inverses in, MMSE solves its weights (raising
        :class:`DecodingError` on a singular Gram matrix)."""
        if self.config.detector == "mmse":
            return MmseDetector(estimate, noise_variance).detect

        def detect(frequency: np.ndarray) -> np.ndarray:
            return zf_detect(frequency, estimate.inverses)

        return detect

    def _equalize(
        self, windows: np.ndarray, detect: Callable[[np.ndarray], np.ndarray]
    ) -> Tuple[ComplexArray, FloatArray]:
        """FFT, detect and pilot-correct data windows ``(..., n_rx, n_symbols,
        fft_size)``: returns the data subcarriers ``(..., n_tx, n_symbols,
        n_data_subcarriers)`` and each symbol's common pilot phase ``(...,
        n_tx, n_symbols)``."""
        frequency = self._quantize_multiplier(fft(windows))
        corrected, diag = self.pilots.correct_block(detect(frequency))
        return corrected[..., self._data_bins], diag.common_phase

    # ------------------------------------------------------------------
    # frame geometry
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
        of :meth:`receive`; this is :meth:`front_end_stack` on one burst.

        Raises :class:`~repro.exceptions.DecodingError` when the burst
        cannot be decoded at all (sync miss, truncated windows, a non-finite
        sample in a window, a rank-deficient estimate or a singular MMSE
        Gram matrix).
        """
        (outcome,) = self.front_end_stack(
            [samples], n_info_bits, [lts_start], [noise_variance]
        )
        if isinstance(outcome, DecodingError):
            raise outcome
        return outcome

    def front_end_stack(
        self,
        samples: Sequence[np.ndarray],
        n_info_bits: int,
        lts_starts: Optional[Sequence[Optional[int]]] = None,
        noise_variances: Optional[Sequence[float]] = None,
    ) -> List[Union[FrontEndResult, DecodingError]]:
        """Run the front end over a stack of bursts in one pass.

        Each burst is quantised, synchronised and CFO-corrected on its own,
        and its FFT windows are checked against its samples.  Then the LTS
        windows of every burst go through one FFT and one channel
        estimate (one stacked QR and R^-1), and the data windows through
        one FFT, one detection einsum (or one stacked MMSE solve), one
        pilot pass, one demap and one de-interleave.  Every burst comes
        out exactly as :meth:`front_end` on it alone would give.

        Parameters
        ----------
        samples:
            One ``(n_rx, n_samples)`` array per burst; lengths may differ.
        n_info_bits:
            Information bits carried by each spatial stream of every burst.
        lts_starts:
            Per burst, the LTS start to trust, or ``None`` to synchronise
            (the default for every burst).
        noise_variances:
            Per burst, the noise variance for soft LLRs and MMSE weights
            (default 1.0).

        Returns
        -------
        One entry per burst, in order: its :class:`FrontEndResult`, or the
        :class:`~repro.exceptions.DecodingError` that burst gave up with —
        a sync miss, a truncated window, a non-finite sample in a window, a
        rank-deficient estimate or a singular MMSE Gram matrix drops only
        that burst.
        """
        if n_info_bits <= 0:
            raise ConfigurationError("n_info_bits must be positive")
        n_items = len(samples)
        lts_starts = [None] * n_items if lts_starts is None else list(lts_starts)
        noise_variances = (
            [1.0] * n_items if noise_variances is None else list(noise_variances)
        )
        if len(lts_starts) != n_items or len(noise_variances) != n_items:
            raise ConfigurationError(
                "lts_starts and noise_variances need one entry per burst"
            )
        coded_length = self._encoder.coded_length(n_info_bits, terminate=True)
        n_symbols = -(-coded_length // self.config.coded_bits_per_symbol)

        outcomes: List[Union[FrontEndResult, DecodingError, None]] = [None] * n_items
        live: List[_Burst] = []
        for index, (burst, lts_start, noise_variance) in enumerate(
            zip(samples, lts_starts, noise_variances)
        ):
            try:
                live.append(
                    self._prepare(index, burst, lts_start, noise_variance, n_symbols)
                )
            except DecodingError as error:
                # Kept without its traceback, whose frames would hold this
                # whole stack's samples in a reference cycle with ``outcomes``.
                outcomes[index] = error.with_traceback(None)

        if live:
            spectra = self._lts_spectra(np.stack([burst.lts_windows for burst in live]))
            estimates = self.channel_estimator.estimate(spectra)
            for burst, estimate in zip(live, estimates):
                if isinstance(estimate, DecodingError):
                    outcomes[burst.index] = estimate
                else:
                    burst.estimate = estimate
            live = [burst for burst in live if burst.estimate is not None]
        if live:
            live, detect = self._stacked_detector(live, outcomes)
        if live:
            equalized, common_phase = self._equalize(
                np.stack([burst.data_windows for burst in live]), detect
            )
            variances = np.array([burst.noise_variance for burst in live])
            coded = self._coded_values(equalized, coded_length, variances)
            for row, burst in enumerate(live):
                # (symbol, stream) order fixes the summation order of the
                # mean-pilot-phase diagnostic.
                pilot_phases = common_phase[row].T.ravel()
                outcomes[burst.index] = FrontEndResult(
                    coded=coded[row],
                    equalized=equalized[row],
                    lts_start=burst.lts_start,
                    channel_estimate=burst.estimate,
                    diagnostics={
                        "lts_start": float(burst.lts_start),
                        "n_ofdm_symbols": float(n_symbols),
                        "mean_pilot_phase": float(np.mean(pilot_phases)),
                        "estimated_cfo": burst.estimated_cfo,
                    },
                )
        return outcomes

    def _prepare(
        self,
        index: int,
        samples: np.ndarray,
        lts_start: Optional[int],
        noise_variance: float,
        n_symbols: int,
    ) -> _Burst:
        """One burst's per-burst work: quantise, synchronise, correct CFO and
        gather its FFT windows (raising :class:`DecodingError` on a give-up,
        including a window holding a non-finite sample, which hard
        decisions would otherwise slice into silent garbage bits)."""
        streams = np.asarray(samples, dtype=np.complex128)
        if streams.ndim != 2 or streams.shape[0] != self.config.n_antennas:
            raise ConfigurationError(
                f"samples must have shape ({self.config.n_antennas}, n_samples)"
            )
        if self.config.rx_sample_format is not None:
            streams = self.config.rx_sample_format.quantize_complex(streams)
        if lts_start is None:
            lts_start = self.synchronize(streams)
        lts_start = int(lts_start)

        estimated_cfo = 0.0
        if self.cfo_estimator is not None:
            cfo = self.cfo_estimator.estimate(streams, lts_start)
            streams = self.cfo_estimator.correct(streams, cfo)
            estimated_cfo = cfo.combined

        data_start = lts_start + self._data_offset
        if data_start + n_symbols * self.config.samples_per_symbol > streams.shape[1]:
            raise DecodingError("burst too short for the requested number of OFDM symbols")
        lts_windows = self._lts_windows(streams, lts_start)
        data_windows = self._data_windows(streams, data_start, n_symbols)
        if not (np.isfinite(lts_windows).all() and np.isfinite(data_windows).all()):
            raise DecodingError("received samples must be finite")
        return _Burst(
            index=index,
            lts_start=lts_start,
            estimated_cfo=estimated_cfo,
            noise_variance=noise_variance,
            lts_windows=lts_windows,
            data_windows=data_windows,
        )

    def _stacked_detector(
        self, live: List[_Burst], outcomes: list
    ) -> Tuple[List[_Burst], Optional[Callable[[np.ndarray], np.ndarray]]]:
        """One detector over every live burst's stacked estimate.

        A singular MMSE Gram matrix sinks the stacked solve, so the bursts
        are then solved one at a time to find the ones that give up
        (recorded in ``outcomes``) and the rest are solved again.  Returns
        the surviving bursts and their detector.
        """
        estimate = ChannelEstimate(
            matrices=np.stack([burst.estimate.matrices for burst in live]),
            inverses=np.stack([burst.estimate.inverses for burst in live]),
            active_mask=self.channel_estimator.active_mask,
        )
        variances = np.array([burst.noise_variance for burst in live])
        try:
            return live, self._detector(estimate, variances)
        except DecodingError:
            survivors = []
            for burst in live:
                try:
                    self._detector(burst.estimate, burst.noise_variance)
                except DecodingError as error:
                    outcomes[burst.index] = error.with_traceback(None)
                else:
                    survivors.append(burst)
            if not survivors:
                return [], None
            return self._stacked_detector(survivors, outcomes)

    def receive(
        self,
        samples: np.ndarray,
        n_info_bits: int,
        lts_start: Optional[int] = None,
        noise_variance: float = 1.0,
        reference_bits: Optional[Sequence[np.ndarray]] = None,
    ) -> ReceiveResult:
        """Decode one burst: :meth:`receive_stack` on it alone.

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

        Raises :class:`~repro.exceptions.DecodingError` when the burst
        cannot be decoded at all (see :meth:`front_end`).
        """
        (outcome,) = self.receive_stack(
            [samples], n_info_bits, [lts_start], [noise_variance]
        )
        if isinstance(outcome, DecodingError):
            raise outcome
        if reference_bits is not None:
            for stream in outcome.streams:
                decoded = stream.decoded_bits
                stream.bit_errors = count_bit_errors(decoded, reference_bits[stream.stream])
                stream.bit_error_rate = stream.bit_errors / decoded.size
        return outcome

    def receive_stack(
        self,
        samples: Sequence[np.ndarray],
        n_info_bits: int,
        lts_starts: Optional[Sequence[Optional[int]]] = None,
        noise_variances: Optional[Sequence[float]] = None,
    ) -> List[Union[ReceiveResult, DecodingError]]:
        """Decode a stack of bursts: one :meth:`front_end_stack`, one :meth:`decode`.

        Parameters are those of :meth:`front_end_stack`.  Every surviving
        burst's code blocks are stacked into one :meth:`decode` call, and
        every burst comes out exactly as :meth:`receive` on it alone would
        give.  Returns one entry per burst, in order: its
        :class:`ReceiveResult`, or the :class:`DecodingError` that burst
        gave up with.
        """
        outcomes: List[Union[FrontEndResult, DecodingError, ReceiveResult]] = list(
            self.front_end_stack(samples, n_info_bits, lts_starts, noise_variances)
        )
        fronts = [front for front in outcomes if isinstance(front, FrontEndResult)]
        if not fronts:
            return outcomes
        decoded = self.decode(
            np.concatenate([front.coded for front in fronts]), n_info_bits
        )
        row = 0
        for index, front in enumerate(outcomes):
            if not isinstance(front, FrontEndResult):
                continue
            streams = [
                StreamDecodeResult(
                    stream=stream,
                    decoded_bits=decoded[row + stream],
                    equalized_symbols=front.equalized[stream],
                )
                for stream in range(front.coded.shape[0])
            ]
            row += len(streams)
            outcomes[index] = ReceiveResult(
                streams=streams,
                lts_start=front.lts_start,
                channel_estimate=front.channel_estimate,
                diagnostics=front.diagnostics,
            )
        return outcomes
