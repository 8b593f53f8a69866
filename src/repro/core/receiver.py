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
  holds one stacked channel estimate, noise variance and data spectrum
  per burst, under one row index, and depends on no detector;
* the detector stage, :meth:`MimoReceiver.detect_stack`, takes any rows
  of a shared result, detects with one per-subcarrier einsum over the
  selected rows of the stacked estimate (or one stacked MMSE solve),
  pilot-corrects with one
  :meth:`~repro.core.pilots.PilotProcessor.correct_block` pass and demaps
  and de-interleaves every stream in one pass.  Receivers that differ
  only in the detector read the same shared result, which is how the
  sweep engine detects each burst of a round once per detector.

A burst the receiver gives up on drops out of the stack alone; one with
non-finite equalised symbols does so before the demapper.

Reception ends in :meth:`MimoReceiver.decode`, which Viterbi-decodes and
descrambles any stack of code blocks, at most :data:`DECODE_SLICE` per
trellis pass; :meth:`MimoReceiver.decode_stack` decodes the blocks of a
list of front-end outcomes in one call and extends each
:class:`~repro.core.frame.FrontEndResult` to its
:class:`~repro.core.frame.ReceiveResult`.  :meth:`MimoReceiver.receive_stack`
composes the three stages.  The streaming pipeline runs them at two
heights: the front end over every frame window one push detects, and the
decode over a full :data:`DECODE_SLICE` of queued frames.  A burst that
gives up comes back as its own :class:`~repro.exceptions.DecodingError`
slot.
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.coding.convolutional import ConvolutionalCode
from repro.coding.interleaver import deinterleave
from repro.coding.scrambler import Scrambler
from repro.coding.viterbi import ViterbiDecoder
from repro.core.config import TransceiverConfig
from repro.core.frame import FrontEndResult, ReceiveResult
from repro.core.pilots import PilotProcessor
from repro.core.preamble import BurstLayout, PreambleGenerator, burst_layout
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
#: bounded however many bursts a caller stacks.  A pass costs per trellis
#: step, not per row, so the streaming pipeline queues frames until they
#: fill a slice (16 frames at 4x4); taller passes measured slower.
DECODE_SLICE = 64

#: Samples by which every FFT window (LTS and data) starts early, inside
#: its cyclic prefix.  The channel-estimation and data windows move
#: together, so the phase ramp this puts on each subcarrier cancels in
#: equalisation; a late lock of the synchroniser lands in the cyclic
#: prefix instead of in the next symbol.
TIMING_ADVANCE = 2


@dataclass
class DemodulatedStack:
    """A stack of bursts after the shared front-end stage, before detection.

    :meth:`MimoReceiver.demodulate_stack` builds it once;
    :meth:`MimoReceiver.detect_stack` of every receiver of its
    ``air_group`` (:meth:`~repro.core.config.TransceiverConfig.air_group`)
    reads it, as often as it likes.

    ``layout`` is the geometry of every burst of the stack.  ``bursts`` has
    one entry per input burst: its row, or the
    :class:`~repro.exceptions.DecodingError` it gave up with.  A row
    indexes the remaining fields, one entry per burst that reached channel
    estimation: its LTS start and CFO, the stacked channel estimate, the
    noise variances and the data FFT outputs ``(n_rows, n_rx, n_symbols,
    fft_size)``, already quantised to the air group's
    ``rx_multiplier_format``.  A rank-deficient burst keeps its row, never
    read.
    """

    air_group: TransceiverConfig
    layout: BurstLayout
    bursts: List[Union[int, DecodingError]]
    lts_starts: Sequence[int] = ()
    estimated_cfos: Sequence[float] = ()
    estimate: Optional[ChannelEstimate] = None
    noise_variances: Optional[np.ndarray] = None
    frequency: Optional[ComplexArray] = None


class MimoReceiver:
    """MIMO-OFDM burst receiver.

    Parameters
    ----------
    config:
        Transceiver configuration (must match the transmitter's).
    """

    def __init__(self, config: Optional[TransceiverConfig] = None) -> None:
        self.config = config if config is not None else TransceiverConfig()
        self._air_group = self.config.air_group()
        self.numerology = self.config.numerology
        self.preamble = PreambleGenerator.for_fft_size(self.config.fft_size)
        self.pilots = PilotProcessor(self.numerology)
        self.demapper = SymbolDemapper(self.config.modulation)
        self.code = ConvolutionalCode(self.config.code_rate)
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
        self._data_bins = list(self.numerology.data_bins)
        self._offsets: Dict[BurstLayout, Tuple[np.ndarray, np.ndarray]] = {}

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

    def _window_offsets(self, layout: BurstLayout) -> Tuple[np.ndarray, np.ndarray]:
        """Every FFT window of a ``layout`` burst, as sample offsets from the
        burst's first sample: the (slot, repetition) LTS windows, shape
        ``(n_tx, 2, fft_size)``, and the data windows, shape ``(n_symbols,
        fft_size)``.  Each window starts :data:`TIMING_ADVANCE` samples into its
        cyclic prefix.  Built once per layout."""
        offsets = self._offsets.get(layout)
        if offsets is not None:
            return offsets
        fft_size = self.config.fft_size
        taps = np.arange(fft_size)
        slots = np.array([layout.lts_slot_start(slot) for slot in range(layout.n_lts_slots)])
        lts_starts = slots + self.preamble.lts_cp_length - TIMING_ADVANCE
        data_starts = (
            layout.data_start
            + np.arange(layout.n_symbols) * layout.samples_per_symbol
            + self.config.cyclic_prefix_length
            - TIMING_ADVANCE
        )
        offsets = self._offsets[layout] = (
            lts_starts[:, None, None] + np.arange(2)[:, None] * fft_size + taps,
            data_starts[:, None] + taps,
        )
        return offsets

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

        Raises :class:`~repro.exceptions.DecodingError` unless ``coded`` is
        a 2-D stack of at least one row, and otherwise whatever
        :meth:`~repro.coding.viterbi.ViterbiDecoder.decode` raises for its
        values or ``n_info_bits``.
        """
        stack = np.asarray(coded)
        if stack.ndim != 2:
            raise DecodingError(
                f"coded must be a 2-D stack of code blocks, got {stack.ndim} dimensions"
            )
        # A first pass also runs on an empty stack, so the decoder rejects it.
        decoded = np.concatenate(
            [
                self.viterbi.decode(
                    stack[start : start + DECODE_SLICE], n_info_bits=n_info_bits
                )
                for start in range(0, max(len(stack), 1), DECODE_SLICE)
            ]
        )
        return self._scrambler.process(decoded)

    # ------------------------------------------------------------------
    # full burst reception
    # ------------------------------------------------------------------
    @np.errstate(over="ignore", invalid="ignore")
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
        (one stacked QR and R^-1), and their data windows through one FFT,
        all under one row index.  None of it depends on the detector,
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
        :class:`~repro.exceptions.DecodingError`.  A window whose FFT
        overflows comes through without a numpy warning; the detector
        stage gives it up.
        """
        layout = burst_layout(self.config, n_info_bits)
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
        offsets = self._window_offsets(layout)
        bursts: List[Union[int, DecodingError, None]] = [None] * n_items
        prepared = []
        for index, (burst, lts_start) in enumerate(zip(samples, lts_starts)):
            try:
                prepared.append((index, *self._prepare(burst, lts_start, layout, offsets)))
            except DecodingError as error:
                # Kept without its traceback, whose frames would hold this
                # whole stack's samples in a reference cycle with ``bursts``.
                bursts[index] = error.with_traceback(None)

        if not prepared:
            return DemodulatedStack(self._air_group, layout, bursts)
        indices, starts, cfos, lts_windows, data_windows = zip(*prepared)
        estimate, errors = self.channel_estimator.estimate(
            self._lts_spectra(np.stack(lts_windows))
        )
        for row, (index, error) in enumerate(zip(indices, errors)):
            bursts[index] = row if error is None else error
        variances = np.array(noise_variances, dtype=np.float64)[list(indices)]
        frequency = self._quantize_multiplier(fft(np.stack(data_windows)))
        return DemodulatedStack(
            self._air_group, layout, bursts, starts, cfos, estimate, variances, frequency
        )

    @np.errstate(over="ignore", invalid="ignore")
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
        with — in the shared stage, on a singular MMSE Gram matrix or on
        non-finite equalised symbols or coded values (an overflow, which
        raises no numpy warning).
        """
        if demodulated.air_group != self._air_group:
            raise ConfigurationError(
                "a detector stage reads only the shared stage of its own air group"
            )
        bursts = demodulated.bursts if rows is None else [demodulated.bursts[row] for row in rows]
        outcomes: List[Union[FrontEndResult, DecodingError, int]] = list(bursts)
        live = [
            (position, row)
            for position, row in enumerate(bursts)
            if not isinstance(row, DecodingError)
        ]
        if not live:
            return outcomes
        stack_rows = [row for _, row in live]
        frequency = demodulated.frequency[stack_rows]
        variances = demodulated.noise_variances[stack_rows]
        if self.config.detector == "mmse":
            detector = MmseDetector(demodulated.estimate[stack_rows], variances)
            for (position, _), variance, subcarrier in zip(
                live, variances, detector.singular_subcarriers
            ):
                if subcarrier is not None:
                    # Its weights are zero: the burst runs on, never read.
                    outcomes[position] = DecodingError(
                        f"MMSE Gram matrix is singular on subcarrier {subcarrier} "
                        f"(noise_variance={variance})"
                    )
            detected = detector.detect(frequency)
        else:
            detected = zf_detect(frequency, demodulated.estimate.inverses[stack_rows])
        corrected, diag = self.pilots.correct_block(detected)
        equalized = corrected[..., self._data_bins]
        # Finite samples can still overflow: the data FFT or the detector
        # into non-finite symbols, which hard decisions would slice into
        # silent garbage bits, or the soft demapper into infinite LLRs,
        # which the decoder would refuse for the whole stack.  Such a burst
        # gives up alone, its non-finite symbols zeroed before the demapper.
        finite = np.isfinite(equalized).all(axis=(1, 2, 3))
        equalized[~finite] = 0.0
        coded = self._coded_values(equalized, demodulated.layout.coded_length, variances)
        finite &= np.isfinite(coded).all(axis=(1, 2))
        for index, (position, row) in enumerate(live):
            if isinstance(outcomes[position], DecodingError):
                continue
            if not finite[index]:
                outcomes[position] = DecodingError(
                    "equalised symbols and coded values must be finite"
                )
                continue
            # (symbol, stream) order fixes the summation order of the
            # mean pilot phase.
            pilot_phases = diag.common_phase[index].T.ravel()
            outcomes[position] = FrontEndResult(
                coded=coded[index],
                equalized=equalized[index],
                lts_start=demodulated.lts_starts[row],
                channel_estimate=demodulated.estimate[row],
                estimated_cfo=demodulated.estimated_cfos[row],
                mean_pilot_phase=float(np.mean(pilot_phases)),
            )
        return outcomes

    def _prepare(
        self,
        samples: np.ndarray,
        lts_start: Optional[int],
        layout: BurstLayout,
        offsets: Tuple[np.ndarray, np.ndarray],
    ) -> Tuple[int, float, ComplexArray, ComplexArray]:
        """One burst's per-burst work: quantise, synchronise, correct CFO and
        gather its FFT windows (``offsets``, from :meth:`_window_offsets`).
        Returns its LTS start, estimated CFO, LTS windows ``(n_rx, n_tx, 2,
        fft_size)`` and data windows ``(n_rx, n_symbols, fft_size)``, or
        raises :class:`DecodingError` on a give-up: a burst too short for
        its data, an LTS window before sample zero, or a window holding a
        non-finite sample, which hard decisions would otherwise slice into
        silent garbage bits."""
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

        first = lts_start - layout.sts_length  # the burst's first sample
        if first + layout.length - layout.tail_length > streams.shape[1]:
            raise DecodingError("burst too short for the requested number of OFDM symbols")
        lts_offsets, data_offsets = offsets
        # The LTS windows come first, so only they can start before sample 0.
        if first + lts_offsets[0, 0, 0] < 0:
            raise DecodingError(
                f"LTS FFT window starts {-int(first + lts_offsets[0, 0, 0])} samples "
                "before the burst (lts_start too small); refusing to decode a "
                "truncated window"
            )
        lts_windows = streams[:, first + lts_offsets]
        data_windows = streams[:, first + data_offsets]
        if not (np.isfinite(lts_windows).all() and np.isfinite(data_windows).all()):
            raise DecodingError("received samples must be finite")
        return lts_start, estimated_cfo, lts_windows, data_windows

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
        non-finite sample in a window, a rank-deficient estimate, a
        singular MMSE Gram matrix or non-finite equalised symbols or coded
        values (the give-ups :meth:`receive_stack` slots).
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
        """Decode a stack of bursts: :meth:`demodulate_stack`, then
        :meth:`detect_stack`, then :meth:`decode_stack`.

        Parameters are those of :meth:`demodulate_stack`.  Every surviving
        burst's code blocks are stacked into one :meth:`decode` call, and
        every burst comes out exactly as :meth:`receive` on it alone would
        give.  Returns one entry per burst, in order: its
        :class:`ReceiveResult`, or the :class:`DecodingError` that burst
        gave up with — a sync miss, a truncated window, a non-finite sample
        in a window, a rank-deficient estimate, a singular MMSE Gram
        matrix or non-finite equalised symbols or coded values drops only
        that burst.
        """
        demodulated = self.demodulate_stack(samples, n_info_bits, lts_starts, noise_variances)
        return self.decode_stack(self.detect_stack(demodulated), n_info_bits)

    def decode_stack(
        self,
        fronts: Sequence[Union[FrontEndResult, DecodingError]],
        n_info_bits: int,
    ) -> List[Union[ReceiveResult, DecodingError]]:
        """Decode front-end outcomes: one :meth:`decode` over the code blocks
        of every :class:`FrontEndResult`, which may come from the detector
        stages of several receivers sharing this one's code and decision
        type.  A :class:`DecodingError` entry passes through; every other
        becomes its burst's :class:`ReceiveResult`, whose ``decoded_bits``
        are that burst's rows of the one decode."""
        outcomes: List[Union[FrontEndResult, DecodingError, ReceiveResult]] = list(fronts)
        decodable = [front for front in outcomes if isinstance(front, FrontEndResult)]
        if not decodable:
            return outcomes
        decoded = self.decode(
            np.concatenate([front.coded for front in decodable]), n_info_bits
        )
        row = 0
        for index, front in enumerate(outcomes):
            if isinstance(front, FrontEndResult):
                n_streams = front.coded.shape[0]
                outcomes[index] = ReceiveResult(
                    **vars(front), decoded_bits=decoded[row : row + n_streams]
                )
                row += n_streams
        return outcomes
