"""Rolling-buffer frame detection over a continuous sample stream.

:class:`StreamFrameDetector` is the streaming counterpart of the burst
receiver's one-shot :meth:`~repro.core.receiver.MimoReceiver.synchronize`:
it consumes arbitrary-sized chunks of a continuous multi-antenna sample
stream into a ring buffer, slides the Schmidl & Cox-style preamble
correlator of :class:`~repro.sync.time_sync.TimeSynchronizer` across chunk
boundaries, and emits complete :class:`FrameWindow` blocks ready for the
vectorised burst datapath — including frames that straddle two or more
chunks.

**Chunk-size invariance by construction.**  Feeding the same stream in
chunks of 1 sample or 4096 samples must produce bit-identical frames, so
every decision is a pure function of the stream *content* at an absolute
sample position, never of how the content arrived:

* the detection metric (the synchroniser's energy-normalised correlation)
  is computed in fixed *tiles* aligned to absolute positions — each tile is
  evaluated once, by an identically-shaped vector operation, as soon as its
  samples are available, so floating-point summation order can never depend
  on the chunking;
* a frame is declared only after the full refinement span past the first
  threshold crossing is available, and emitted only after its last sample
  is buffered — until then the detector simply waits, and re-derives the
  same pending decision from the same content on the next chunk.

The acceptance test is the single normalised-metric threshold the
synchroniser now reports in both of its modes: a window position is a
candidate when any antenna's metric crosses ``min_metric``, and the lock is
refined to the strongest (antenna, position) within ``refine_span``
positions — mirroring the offline receiver's best-antenna peak search.
``refine_span`` defaults to one LTS slot minus the correlator window,
which covers every short-training sidelobe before the true peak while
excluding the structural sidelobe at the next LTS slot boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.preamble import PreambleGenerator
from repro.sync.cfo import CfoEstimator
from repro.sync.time_sync import TimeSynchronizer

#: Metric tile width in window positions.  Tiles are aligned to absolute
#: stream positions, so the same stream yields bit-identical metric values
#: for every chunking.  256 keeps the detection lookahead (crossing +
#: refinement + one tile + one correlator window) well inside the shortest
#: legal frame.
METRIC_TILE = 256

#: Compact the ring buffer / metric arrays once this many stale samples
#: accumulate (amortises the copy so 1-sample chunks stay O(1) per push).
_TRIM_SLACK = 8192


@dataclass(frozen=True)
class FrameWindow:
    """One complete detected frame, cut out of the continuous stream.

    Attributes
    ----------
    samples:
        The frame's samples per antenna, shape ``(n_rx, frame_length)`` —
        exactly the block the offline receive path would see for this
        burst.
    start:
        Absolute stream index of the window's first sample.
    lts_start:
        Absolute stream index of the detected LTS section start.
    peak_metric:
        Normalised detection metric at the locking window (~1.0 clean).
    antenna:
        Receive antenna whose correlation won the lock.
    cfo_coarse:
        Coarse CFO estimate from the window's short training section
        (cycles/sample), when the detector carries a CFO estimator.
    """

    samples: np.ndarray
    start: int
    lts_start: int
    peak_metric: float
    antenna: int
    cfo_coarse: Optional[float] = None

    @property
    def lts_offset(self) -> int:
        """LTS start relative to the window: the ``lts_starts`` entry
        :meth:`~repro.core.receiver.MimoReceiver.receive_stack` trusts."""
        return self.lts_start - self.start


class StreamFrameDetector:
    """Detect frame windows in a continuous multi-antenna sample stream.

    Parameters
    ----------
    preamble:
        The preamble generator shared with the transmitter/receiver (sets
        the correlator reference and the STS length that maps a lock back
        to the frame start).
    n_rx:
        Number of receive antennas in the stream.
    frame_length:
        Frame size in samples (see
        :meth:`~repro.core.receiver.MimoReceiver.frame_length`); the
        detector emits exactly this many samples per frame.
    n_tx:
        Transmit antenna count of the frames being detected (sets the
        preamble layout used for the refinement span); defaults to
        ``n_rx``.
    min_metric:
        Acceptance threshold on the normalised detection metric.  The
        clean-transition metric is ~1.0 and the worst structural sidelobe
        of the paper's preamble is ~0.67, so the default 0.6 detects
        through deep per-antenna fades while never firing on data.
    refine_span:
        Window positions after the first crossing searched for the true
        peak.  Defaults to ``lts_slot_length - correlator_window`` (128
        for the 64-point build), clamped to at least two correlator
        windows.
    synchronizer:
        Optional pre-built :class:`TimeSynchronizer` (e.g. the burst
        receiver's, so both paths share one reference and normalisation).
    estimate_cfo:
        Attach a coarse CFO estimate from each frame's STS section
        (:class:`~repro.sync.cfo.CfoEstimator`, reused across frames).
    """

    def __init__(
        self,
        preamble: PreambleGenerator,
        n_rx: int,
        frame_length: int,
        n_tx: Optional[int] = None,
        min_metric: float = 0.6,
        refine_span: Optional[int] = None,
        synchronizer: Optional[TimeSynchronizer] = None,
        estimate_cfo: bool = True,
    ) -> None:
        if n_rx <= 0:
            raise ValueError("n_rx must be positive")
        self.preamble = preamble
        self.n_rx = n_rx
        self.synchronizer = (
            synchronizer
            if synchronizer is not None
            else TimeSynchronizer(
                sts_time=preamble.sts_time(), lts_time=preamble.lts_time()
            )
        )
        self.sts_length = preamble.sts_time().size
        layout = preamble.layout(n_tx if n_tx is not None else n_rx)
        if frame_length < layout.total_length:
            raise ValueError("frame_length shorter than the preamble")
        self.frame_length = int(frame_length)
        if not 0.0 < min_metric:
            raise ValueError("min_metric must be positive")
        self.min_metric = float(min_metric)
        window = self.synchronizer.window_length
        if refine_span is None:
            refine_span = max(layout.lts_slot_length - window, 2 * window)
        if refine_span <= 0:
            raise ValueError("refine_span must be positive")
        self.refine_span = int(refine_span)
        #: Samples kept behind the search position so a freshly-detected
        #: frame's start (sts_length - window_sts before the peak) is still
        #: buffered.
        self.keep_margin = self.sts_length
        self.cfo_estimator = (
            CfoEstimator(preamble.fft_size) if estimate_cfo else None
        )
        self.reset()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all buffered state and restart at stream position zero."""
        self._buffer = np.zeros((self.n_rx, 4096), dtype=np.complex128)
        self._base = 0          # absolute index of _buffer[:, 0]
        self._size = 0          # valid samples in the buffer
        self._metric = np.zeros((self.n_rx, 4096), dtype=np.float64)
        self._metric_base = 0   # absolute position of _metric[:, 0]
        self._metric_size = 0   # valid metric positions
        self._search_from = 0   # absolute position detection resumes at
        self.samples_in = 0
        self.frames_emitted = 0
        self.discarded_detections = 0
        self.truncated_frames = 0

    def push(self, chunk: np.ndarray) -> List[FrameWindow]:
        """Consume one chunk of the stream; return any completed frames.

        ``chunk`` has shape ``(n_rx, n_samples)`` (a 1-D array is accepted
        for single-antenna streams).  Any ``n_samples >= 0`` works — the
        detector buffers partial frames across calls.
        """
        block = np.asarray(chunk, dtype=np.complex128)
        if block.ndim == 1:
            block = block[np.newaxis, :]
        if block.ndim != 2 or block.shape[0] != self.n_rx:
            raise ValueError(
                f"chunk must have shape ({self.n_rx}, n_samples), got {block.shape}"
            )
        self._append(block)
        self.samples_in += block.shape[1]
        return self._advance(flush=False)

    def flush(self) -> List[FrameWindow]:
        """End of stream: detect in the remaining tail (partial tile included).

        A pending frame whose window is fully buffered is emitted; a
        detection whose frame would run past the end of the stream is
        counted in ``truncated_frames`` and dropped.  The detector can keep
        consuming afterwards, but metric tiles recomputed after a
        mid-stream flush are no longer guaranteed chunking-invariant —
        flush once, at the true end.
        """
        return self._advance(flush=True)

    # ------------------------------------------------------------------
    # ring buffer and tiled metric
    # ------------------------------------------------------------------
    def _append(self, block: np.ndarray) -> None:
        needed = self._size + block.shape[1]
        if needed > self._buffer.shape[1]:
            capacity = max(needed, 2 * self._buffer.shape[1])
            grown = np.zeros((self.n_rx, capacity), dtype=np.complex128)
            grown[:, : self._size] = self._buffer[:, : self._size]
            self._buffer = grown
        self._buffer[:, self._size : needed] = block
        self._size = needed

    def _append_metric(self, rows: np.ndarray) -> None:
        needed = self._metric_size + rows.shape[1]
        if needed > self._metric.shape[1]:
            capacity = max(needed, 2 * self._metric.shape[1])
            grown = np.zeros((self.n_rx, capacity), dtype=np.float64)
            grown[:, : self._metric_size] = self._metric[:, : self._metric_size]
            self._metric = grown
        self._metric[:, self._metric_size : needed] = rows
        self._metric_size = needed

    @property
    def _metric_next(self) -> int:
        """Next absolute window position whose metric is not yet computed."""
        return self._metric_base + self._metric_size

    def _extend_metric(self, flush: bool) -> None:
        """Compute metric tiles for every newly-computable window position.

        Positions are evaluated in runs that always end on an absolute
        ``METRIC_TILE`` boundary (or, under ``flush``, at the last
        computable position), so each position's value comes from an
        identically-shaped computation for every chunking of the stream.
        """
        window = self.synchronizer.window_length
        last_possible = self._base + self._size - window + 1
        while self._metric_next < last_possible:
            start = self._metric_next
            tile_end = (start // METRIC_TILE + 1) * METRIC_TILE
            end = min(tile_end, last_possible)
            if end < tile_end and not flush:
                break  # wait until the tile's samples are all buffered
            segment = self._buffer[
                :, start - self._base : end - self._base + window - 1
            ]
            rows = np.empty((self.n_rx, end - start), dtype=np.float64)
            for antenna in range(self.n_rx):
                rows[antenna] = self.synchronizer.normalized_metric(
                    segment[antenna]
                )
            self._append_metric(rows)
            if end < tile_end:
                break  # flushed a partial tile; the stream is exhausted

    def _trim(self) -> None:
        """Amortised compaction of the stale buffer / metric prefixes."""
        keep_samples = min(self._metric_next, self._search_from - self.keep_margin)
        cut = keep_samples - self._base
        if cut > _TRIM_SLACK:
            remaining = self._buffer[:, cut : self._size].copy()
            self._buffer[:, : remaining.shape[1]] = remaining
            self._base += cut
            self._size = remaining.shape[1]
        cut = self._search_from - self._metric_base
        if cut > _TRIM_SLACK:
            cut = min(cut, self._metric_size)
            remaining = self._metric[:, cut : self._metric_size].copy()
            self._metric[:, : remaining.shape[1]] = remaining
            self._metric_base += cut
            self._metric_size = remaining.shape[1]

    def _drop_metric_before(self, position: int) -> None:
        """Restore metric contiguity after a frame consumed the stream."""
        if position <= self._metric_base:
            return
        cut = min(position - self._metric_base, self._metric_size)
        remaining = self._metric[:, cut : self._metric_size].copy()
        self._metric[:, : remaining.shape[1]] = remaining
        self._metric_base = position
        self._metric_size = remaining.shape[1]

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def _advance(self, flush: bool) -> List[FrameWindow]:
        self._extend_metric(flush)
        emitted: List[FrameWindow] = []
        window_sts = self.synchronizer.window_sts
        while True:
            rel_from = self._search_from - self._metric_base
            if rel_from >= self._metric_size:
                break
            tail = self._metric[:, rel_from : self._metric_size]
            combined = tail.max(axis=0)
            crossings = np.nonzero(combined >= self.min_metric)[0]
            if crossings.size == 0:
                # Nothing detectable in everything computed so far.
                self._search_from = self._metric_next
                break
            crossing = self._search_from + int(crossings[0])
            refine_end = crossing + self.refine_span + 1
            if self._metric_next < refine_end:
                if not flush:
                    break  # wait for the refinement span to fill
                refine_end = self._metric_next
            rel_c = crossing - self._metric_base
            rel_end = refine_end - self._metric_base
            region = self._metric[:, rel_c:rel_end]
            antenna, offset = divmod(int(np.argmax(region)), region.shape[1])
            peak = crossing + offset
            lts_start = peak + window_sts
            frame_start = lts_start - self.sts_length
            frame_end = frame_start + self.frame_length
            if frame_start < self._base:
                # The lock points before retained history (a spurious
                # crossing right at the buffer edge): skip it.
                self.discarded_detections += 1
                self._search_from = peak + 1
                continue
            if frame_end > self._base + self._size:
                if not flush:
                    break  # wait for the frame tail
                self.truncated_frames += 1
                self._search_from = self._metric_next
                break
            samples = self._buffer[
                :, frame_start - self._base : frame_end - self._base
            ].copy()
            cfo = None
            if self.cfo_estimator is not None:
                cfo = float(self.cfo_estimator.coarse(samples, sts_start=0))
            emitted.append(
                FrameWindow(
                    samples=samples,
                    start=frame_start,
                    lts_start=lts_start,
                    peak_metric=float(region[antenna, offset]),
                    antenna=int(antenna),
                    cfo_coarse=cfo,
                )
            )
            self.frames_emitted += 1
            self._search_from = frame_end
            self._drop_metric_before(frame_end)
        self._trim()
        return emitted
