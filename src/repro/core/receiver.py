"""4x4 MIMO-OFDM receiver (Fig. 5).

The receive datapath is: time synchronisation (sliding-window correlation
against the stored STS/LTS transition), per-antenna FFT of the staggered LTS
slots, per-subcarrier channel estimation and QRD-based matrix inversion,
MIMO detection of every data OFDM symbol (zero-forcing as in the paper, or
the MMSE baseline via ``TransceiverConfig.detector``), pilot phase and
feed-forward timing correction, symbol demapping (hard or soft, batched
over the whole burst), block de-interleaving, Viterbi decoding and
descrambling.

The post-sync chain is vectorised over a whole stack of bursts, and the
front end splits at the MIMO detector into two stages:

* the shared stage, :meth:`MimoReceiver.demodulate_stack`, synchronises
  and CFO-corrects each burst on its own, then gathers every burst's LTS
  and data FFT windows into one ``(n_items, n_rx, ...)`` stack per window
  kind, pushes each through a single planned FFT call (:mod:`repro.dsp.fft`'s
  cached :class:`~repro.dsp.fft.FftPlan`) and estimates and inverts every
  burst's channel in one stacked QR.  Its :class:`DemodulatedStack`
  depends on no detector;
* the detector stage, :meth:`MimoReceiver.detect_stack`, takes any rows
  of a shared result, detects with one per-subcarrier einsum (or one
  stacked MMSE solve), pilot-corrects with one
  :meth:`~repro.core.pilots.PilotProcessor.correct_block` pass and demaps
  and de-interleaves every stream in one pass.  Receivers that differ
  only in the detector read the same shared result, which is how the
  sweep engine detects each burst of a round once per detector.

:meth:`MimoReceiver.front_end_stack` is the two stages composed.  A burst
the receiver gives up on drops out of the stack alone.

Reception ends in :meth:`MimoReceiver.decode`, which Viterbi-decodes and
descrambles any stack of code blocks, at most :data:`DECODE_SLICE` per
trellis pass; :meth:`MimoReceiver.decode_stack` decodes the blocks of a
list of front-end outcomes in one call.  :meth:`MimoReceiver.receive_stack`
is ``decode_stack`` over ``front_end_stack``: the streaming pipeline runs
every frame window one push detects through it.  A burst that gives up
comes back as its own :class:`~repro.exceptions.DecodingError` slot.
:meth:`MimoReceiver.receive` is the one-burst call, and the only one that
raises that error instead.

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

from repro.coding.convolutional import ConvolutionalCode
from repro.coding.interleaver import deinterleave
from repro.coding.scrambler import Scrambler
from repro.coding.viterbi import ViterbiDecoder
from repro.core.config import TransceiverConfig
from repro.core.frame import FrontEndResult, ReceiveResult, StreamDecodeResult
from repro.core.pilots import PilotProcessor
from repro.core.preamble import PreambleGenerator
from repro.dsp.cordic import Cordic
from repro.dsp.fft import fft
from repro.exceptions import ConfigurationError, DecodingError
from repro.mimo.channel_estimation import ChannelEstimate, ChannelEstimator
from repro.mimo.detector import MmseDetector, zf_detect
from repro.modulation.demapper import SymbolDemapper
from repro.sync.cfo import CfoEstimator
from repro.sync.time_sync import TimeSynchronizer
from repro.types import ComplexArray

#: Most code blocks one trellis pass decodes: :meth:`MimoReceiver.decode`
#: runs a taller stack in passes of this many rows, so the ACS buffers stay
#: bounded however many bursts a caller stacks.
DECODE_SLICE = 64


@dataclass
class _Burst:
    """One burst that came through the shared stage: what a detector stage reads."""

    lts_start: int
    estimated_cfo: float
    noise_variance: float
    estimate: ChannelEstimate
    row: int  # its row of DemodulatedStack.frequency


@dataclass
class DemodulatedStack:
    """A stack of bursts after the shared front-end stage, before detection.

    :meth:`MimoReceiver.demodulate_stack` builds it once;
    :meth:`MimoReceiver.detect_stack` of every receiver of its
    ``air_group`` (:meth:`~repro.core.config.TransceiverConfig.air_group`)
    reads it, as often as it likes.

    ``bursts`` has one entry per input burst: the burst's sync position,
    CFO, noise variance and channel estimate, or the
    :class:`~repro.exceptions.DecodingError` it gave up with.
    ``frequency`` stacks the data FFT outputs of the bursts that came
    through, ``(n_live, n_rx, n_symbols, fft_size)``, already quantised to
    the air group's ``rx_multiplier_format``.
    """

    air_group: TransceiverConfig
    n_info_bits: int
    bursts: List[Union[_Burst, DecodingError]]
    frequency: Optional[ComplexArray]


class MimoReceiver:
    """MIMO-OFDM burst receiver.

    Parameters
    ----------
    config:
        Transceiver configuration (must match the transmitter's).
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
        timing_advance: int = 2,
    ) -> None:
        self.config = config if config is not None else TransceiverConfig()
        self._air_group = self.config.air_group()
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
        decision = "soft" if self.config.soft_decision else "hard"
        self.viterbi = ViterbiDecoder(self.code, decision=decision)
        self._scrambler = Scrambler()
        self.synchronizer = TimeSynchronizer(
            sts_time=self.preamble.sts_time(),
            lts_time=self.preamble.lts_time(),
        )
        self.cfo_estimator = (
            CfoEstimator(self.config.fft_size) if self.config.correct_cfo else None
        )
        self.channel_estimator = ChannelEstimator(
            reference_lts=self.preamble.lts_frequency,
            cordic=Cordic() if self.config.use_cordic_channel_inversion else None,
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

        The strongest (antenna, window) of the synchroniser's metric wins
        (see :meth:`~repro.sync.time_sync.TimeSynchronizer.locate`).

        Raises :class:`~repro.exceptions.ConfigurationError` unless
        ``samples`` has shape ``(n_antennas, n_samples)``, and
        :class:`~repro.exceptions.SynchronizationError` when the burst is
        shorter than the correlator window or no window scores above 0
        (e.g. every window is silent or holds a NaN or infinite sample).
        """
        streams = np.asarray(samples, dtype=np.complex128)
        if streams.ndim != 2 or streams.shape[0] != self.config.n_antennas:
            raise ConfigurationError(
                f"samples must have shape ({self.config.n_antennas}, n_samples)"
            )
        return self.synchronizer.locate(streams)

    def _lts_windows(self, streams: np.ndarray, lts_start: int) -> ComplexArray:
        """Every (slot, repetition) LTS window of a burst: ``(n_rx, n_tx, 2, fft_size)``.

        The windows end before the data does, so a burst :meth:`_prepare`
        has found long enough for its data holds them all; only a window
        starting before sample zero is left to refuse.
        """
        window = lts_start + self._lts_offsets
        if window[0, 0, 0] < 0:
            raise DecodingError(
                f"LTS FFT window starts {-int(window[0, 0, 0])} samples before the "
                "burst (lts_start too small); refusing to decode a truncated window"
            )
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
            )
        return self._scrambler.process(decoded)

    # ------------------------------------------------------------------
    # post-sync datapath: FFT windows -> MIMO detection -> pilot correction
    # ------------------------------------------------------------------
    def _data_windows(
        self, streams: np.ndarray, data_start: int, n_symbols: int
    ) -> ComplexArray:
        """Every data FFT window of a burst: ``(n_rx, n_symbols, fft_size)``.

        :meth:`_prepare` has checked both ends: the data follows an LTS
        that starts inside the burst, and ends inside it.
        """
        starts = (
            data_start
            + np.arange(n_symbols) * self.config.samples_per_symbol
            + self.config.cyclic_prefix_length
            - self.timing_advance
        )
        return streams[:, starts[:, None] + np.arange(self.config.fft_size)]

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
        coded_length = self.code.coded_length(n_info_bits)
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
    def front_end_stack(
        self,
        samples: Sequence[np.ndarray],
        n_info_bits: int,
        lts_starts: Optional[Sequence[Optional[int]]] = None,
        noise_variances: Optional[Sequence[float]] = None,
    ) -> List[Union[FrontEndResult, DecodingError]]:
        """Run the front end over a stack of bursts: the shared stage
        (:meth:`demodulate_stack`), then this receiver's detector stage
        (:meth:`detect_stack`).

        Parameters are those of :meth:`demodulate_stack`.  Every burst comes
        out exactly as a stack of it alone would give.

        Returns
        -------
        One entry per burst, in order: its :class:`FrontEndResult`, or the
        :class:`~repro.exceptions.DecodingError` that burst gave up with —
        a sync miss, a truncated window, a non-finite sample in a window, a
        rank-deficient estimate or a singular MMSE Gram matrix drops only
        that burst.
        """
        return self.detect_stack(
            self.demodulate_stack(samples, n_info_bits, lts_starts, noise_variances)
        )

    def demodulate_stack(
        self,
        samples: Sequence[np.ndarray],
        n_info_bits: int,
        lts_starts: Optional[Sequence[Optional[int]]] = None,
        noise_variances: Optional[Sequence[float]] = None,
    ) -> DemodulatedStack:
        """The shared front-end stage: everything before the MIMO detector.

        Each burst is quantised, synchronised and CFO-corrected on its own,
        and its FFT windows are checked against its samples.  Then the LTS
        windows of every burst go through one FFT and one channel estimate
        (one stacked QR and R^-1), and the data windows of the bursts with
        an estimate through one FFT.  None of it depends on the detector,
        so one result serves the :meth:`detect_stack` of every detector.

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
            (default 1.0).  A non-finite or non-positive entry raises
            :class:`~repro.exceptions.ConfigurationError`.

        A sync miss, a truncated window, a non-finite sample in a window or
        a rank-deficient estimate slots that burst's
        :class:`~repro.exceptions.DecodingError`.
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
        for variance in noise_variances:
            if not (np.isfinite(variance) and variance > 0):
                raise ConfigurationError(
                    f"noise variances must be finite and positive, got {variance!r}"
                )
        coded_length = self.code.coded_length(n_info_bits)
        n_symbols = -(-coded_length // self.config.coded_bits_per_symbol)

        bursts: List[Union[_Burst, DecodingError, None]] = [None] * n_items
        prepared = []
        for index, (burst, lts_start) in enumerate(zip(samples, lts_starts)):
            try:
                prepared.append((index, *self._prepare(burst, lts_start, n_symbols)))
            except DecodingError as error:
                # Kept without its traceback, whose frames would hold this
                # whole stack's samples in a reference cycle with ``bursts``.
                bursts[index] = error.with_traceback(None)

        frequency = None
        if prepared:
            lts_windows = np.stack([lts for _, _, _, lts, _ in prepared])
            estimates = self.channel_estimator.estimate(self._lts_spectra(lts_windows))
            data_windows = []
            for (index, lts_start, cfo, _, windows), estimate in zip(prepared, estimates):
                if isinstance(estimate, DecodingError):
                    bursts[index] = estimate
                    continue
                bursts[index] = _Burst(
                    lts_start, cfo, noise_variances[index], estimate, row=len(data_windows)
                )
                data_windows.append(windows)
            if data_windows:
                frequency = self._quantize_multiplier(fft(np.stack(data_windows)))
        return DemodulatedStack(self._air_group, n_info_bits, bursts, frequency)

    def detect_stack(
        self, demodulated: DemodulatedStack, rows: Optional[Sequence[int]] = None
    ) -> List[Union[FrontEndResult, DecodingError]]:
        """The detector stage: detect, pilot-correct, demap and de-interleave.

        Takes the ``rows`` of a :meth:`demodulate_stack` result (default:
        every burst, in order) of a receiver of this one's
        :meth:`~repro.core.config.TransceiverConfig.air_group`; any other raises
        :class:`~repro.exceptions.ConfigurationError`.  The bursts that came
        through the shared stage go through one detection einsum (or one
        stacked MMSE solve), one pilot pass, one demap and one
        de-interleave.  Returns one entry per row: its
        :class:`FrontEndResult`, or the :class:`DecodingError` it gave up
        with — in the shared stage, or on a singular MMSE Gram matrix.
        """
        if demodulated.air_group != self._air_group:
            raise ConfigurationError(
                "a detector stage reads only the shared stage of its own air group"
            )
        bursts = demodulated.bursts if rows is None else [demodulated.bursts[row] for row in rows]
        outcomes: List[Union[FrontEndResult, DecodingError, _Burst]] = list(bursts)
        live = [
            (position, burst) for position, burst in enumerate(bursts) if isinstance(burst, _Burst)
        ]
        if live:
            live, detect = self._stacked_detector(live, outcomes)
        if not live:
            return outcomes
        frequency = demodulated.frequency[[burst.row for _, burst in live]]
        corrected, diag = self.pilots.correct_block(detect(frequency))
        equalized = corrected[..., self._data_bins]
        coded_length = self.code.coded_length(demodulated.n_info_bits)
        variances = np.array([burst.noise_variance for _, burst in live])
        coded = self._coded_values(equalized, coded_length, variances)
        for row, (position, burst) in enumerate(live):
            # (symbol, stream) order fixes the summation order of the
            # mean-pilot-phase diagnostic.
            pilot_phases = diag.common_phase[row].T.ravel()
            outcomes[position] = FrontEndResult(
                coded=coded[row],
                equalized=equalized[row],
                lts_start=burst.lts_start,
                channel_estimate=burst.estimate,
                diagnostics={
                    "lts_start": float(burst.lts_start),
                    "n_ofdm_symbols": float(frequency.shape[2]),
                    "mean_pilot_phase": float(np.mean(pilot_phases)),
                    "estimated_cfo": burst.estimated_cfo,
                },
            )
        return outcomes

    def _prepare(
        self, samples: np.ndarray, lts_start: Optional[int], n_symbols: int
    ) -> Tuple[int, float, ComplexArray, ComplexArray]:
        """One burst's per-burst work: quantise, synchronise, correct CFO and
        gather its FFT windows.  Returns its LTS start, estimated CFO, LTS
        windows and data windows, or raises :class:`DecodingError` on a
        give-up, including a window holding a non-finite sample, which hard
        decisions would otherwise slice into silent garbage bits."""
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
        return lts_start, estimated_cfo, lts_windows, data_windows

    def _stacked_detector(
        self, live: List[Tuple[int, _Burst]], outcomes: list
    ) -> Tuple[List[Tuple[int, _Burst]], Optional[Callable[[np.ndarray], np.ndarray]]]:
        """One detector over the stacked estimate of every live
        ``(position, burst)``.

        A singular MMSE Gram matrix sinks the stacked solve, so the bursts
        are then solved one at a time to find the ones that give up
        (recorded at their position in ``outcomes``) and the rest are
        solved again.  Returns the surviving bursts and their detector.
        """
        estimate = ChannelEstimate(
            matrices=np.stack([burst.estimate.matrices for _, burst in live]),
            inverses=np.stack([burst.estimate.inverses for _, burst in live]),
            active_mask=self.channel_estimator.active_mask,
        )
        variances = np.array([burst.noise_variance for _, burst in live])
        try:
            return live, self._detector(estimate, variances)
        except DecodingError:
            survivors = []
            for position, burst in live:
                try:
                    self._detector(burst.estimate, burst.noise_variance)
                except DecodingError as error:
                    outcomes[position] = error.with_traceback(None)
                else:
                    survivors.append((position, burst))
            if not survivors:
                return [], None
            return self._stacked_detector(survivors, outcomes)

    def receive(
        self,
        samples: np.ndarray,
        n_info_bits: int,
        lts_start: Optional[int] = None,
        noise_variance: float = 1.0,
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

        Raises :class:`~repro.exceptions.DecodingError` when the burst
        cannot be decoded at all: a sync miss, a truncated window, a
        non-finite sample in a window, a rank-deficient estimate or a
        singular MMSE Gram matrix (the give-ups :meth:`front_end_stack`
        slots).
        """
        (outcome,) = self.receive_stack(
            [samples], n_info_bits, [lts_start], [noise_variance]
        )
        if isinstance(outcome, DecodingError):
            raise outcome
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
        return self.decode_stack(
            self.front_end_stack(samples, n_info_bits, lts_starts, noise_variances),
            n_info_bits,
        )

    def decode_stack(
        self,
        fronts: Sequence[Union[FrontEndResult, DecodingError]],
        n_info_bits: int,
    ) -> List[Union[ReceiveResult, DecodingError]]:
        """Decode front-end outcomes: one :meth:`decode` over the code blocks
        of every :class:`FrontEndResult`, which may come from the detector
        stages of several receivers sharing this one's code and decision
        type.  A :class:`DecodingError` entry passes through; every other
        becomes its burst's :class:`ReceiveResult`."""
        outcomes: List[Union[FrontEndResult, DecodingError, ReceiveResult]] = list(fronts)
        decodable = [front for front in outcomes if isinstance(front, FrontEndResult)]
        if not decodable:
            return outcomes
        decoded = self.decode(
            np.concatenate([front.coded for front in decodable]), n_info_bits
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
