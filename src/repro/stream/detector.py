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
  is computed in whole *tiles* aligned to absolute positions, each tile
  once.  A position's value is its own correlator-window dot product and
  energy sum, so it never depends on which call, or how long a run of
  tiles, computed it;
* the search drives the metric: a tile is computed only once the search
  needs it and its samples are all buffered.  The search asks for
  :attr:`~StreamFrameDetector.lookahead` positions past its position (a
  frame starting there crosses within its STS and locks within one
  refinement span), then for the refinement span past a crossing; when it
  finds nothing it moves to the metric frontier and asks again.  An
  emitted frame moves the search to its end and the metric frontier to
  the tile holding that end, so no tile inside an emitted frame is ever
  computed: a back-to-back frame that arrives in one push costs its
  look-ahead rounded out to whole tiles, not a frame length of positions;
* a frame is declared only after the full refinement span past the first
  threshold crossing is available, and emitted only after its last sample
  is buffered — until then the detector simply waits, and re-derives the
  same pending decision from the same content on the next chunk.

The metric of every antenna comes from one
:meth:`~repro.sync.time_sync.TimeSynchronizer.metric` call per run of
tiles the search asks for.  A window position is a candidate when any
antenna's metric crosses :data:`MIN_METRIC`, and the lock is the strongest
(antenna, position) within the refinement span — the burst receiver's
lock rule applied to that span.  The span is one LTS slot minus the
correlator window, which covers every short-training sidelobe before the
true peak while excluding the structural sidelobe at the next LTS slot
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.preamble import BurstLayout, PreambleGenerator
from repro.exceptions import ConfigurationError
from repro.sync.time_sync import TimeSynchronizer

#: Acceptance threshold on the normalised detection metric.  The
#: clean-transition metric is ~1.0 and the worst structural sidelobe of the
#: paper's preamble is ~0.67, so 0.6 detects through deep per-antenna fades
#: while never firing on data.
MIN_METRIC = 0.6

#: Metric tile width in window positions.  Tiles are aligned to absolute
#: stream positions, so the metric is computed in the same runs for every
#: chunking.  A back-to-back frame's search reads its look-ahead (289
#: positions for the 64-point build), which whole tiles round out at both
#: ends: every position of that rounding is paid per frame, so the tile is
#: small, at most 417 positions in all with 64-position tiles.
METRIC_TILE = 64

#: Compact the ring buffer / metric arrays once this many stale samples
#: accumulate (amortises the copy so 1-sample chunks stay O(1) per push).
_TRIM_SLACK = 8192


@dataclass(frozen=True)
class FrameLock:
    """Where one detected frame sits in the stream.

    Attributes
    ----------
    start:
        Absolute stream index of the frame's first sample.
    lts_start:
        Absolute stream index of the detected LTS section start.
    peak_metric:
        Normalised detection metric at the locking window (~1.0 clean).
    antenna:
        Receive antenna whose correlation won the lock.

    The lock carries no CFO estimate: the burst receiver estimates and
    corrects the CFO of every window it decodes.
    """

    start: int
    lts_start: int
    peak_metric: float
    antenna: int

    @property
    def lts_offset(self) -> int:
        """LTS start relative to the frame: the ``lts_starts`` entry
        :meth:`~repro.core.receiver.MimoReceiver.receive_stack` trusts."""
        return self.lts_start - self.start


@dataclass(frozen=True)
class FrameWindow(FrameLock):
    """One complete detected frame, cut out of the continuous stream: its
    :class:`FrameLock` and ``samples``, the frame's samples per antenna,
    shape ``(n_rx, layout.length)`` — exactly the block the offline
    receive path would see for this burst."""

    samples: np.ndarray

    @property
    def lock(self) -> FrameLock:
        """The window without its samples, for keeping past the front end."""
        return FrameLock(self.start, self.lts_start, self.peak_metric, self.antenna)


class StreamFrameDetector:
    """Detect frame windows in a continuous multi-antenna sample stream.

    Parameters
    ----------
    preamble:
        The preamble generator shared with the transmitter/receiver (sets
        the correlator reference).
    layout:
        The frames' :class:`~repro.core.preamble.BurstLayout` (see
        :func:`~repro.core.preamble.burst_layout`): its STS length maps a
        lock back to the frame start, and the detector emits exactly
        ``layout.length`` samples per frame.

    The stream carries one receive antenna per transmit antenna (the
    layout's LTS slots), and the detector builds the burst receiver's
    :class:`TimeSynchronizer` from ``preamble``.
    """

    def __init__(self, preamble: PreambleGenerator, layout: BurstLayout) -> None:
        self.layout = layout
        self.n_rx = layout.n_lts_slots
        self.synchronizer = TimeSynchronizer(
            sts_time=preamble.sts_time(), lts_time=preamble.lts_time()
        )
        window = self.synchronizer.window_length
        #: Window positions after the first crossing searched for the true
        #: peak: one LTS slot minus the correlator window (128 for the
        #: 64-point build), at least two correlator windows.
        self.refine_span = max(layout.lts_slot_length - window, 2 * window)
        #: Samples kept behind the search position so a freshly-detected
        #: frame's start (sts_length - window_sts before the peak) is still
        #: buffered.
        self.keep_margin = layout.sts_length
        #: Metric positions the search asks for past its position: a frame
        #: starting there crosses within its STS and locks within one
        #: refinement span of the crossing (289 for the 64-point build).
        self.lookahead = layout.sts_length + self.refine_span + 1
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

        ``chunk`` has shape ``(n_rx, n_samples)``; a single-antenna stream
        is a one-row chunk.  Any ``n_samples >= 0`` works — the detector
        buffers partial frames across calls.  A chunk of any other shape
        raises :class:`~repro.exceptions.ConfigurationError`.
        """
        block = np.asarray(chunk, dtype=np.complex128)
        if block.ndim != 2 or block.shape[0] != self.n_rx:
            raise ConfigurationError(
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

    def _extend_metric(self, upto: int, flush: bool) -> None:
        """Compute the metric tiles that carry the frontier past ``upto - 1``.

        The run of tiles is one ``metric`` call that ends on an absolute
        ``METRIC_TILE`` boundary, or under ``flush`` at the last computable
        position; a tile whose samples are not all buffered yet waits for
        them.  Each position's value is its own correlator-window dot product
        and energy sum, so it does not depend on how many tiles the call
        covers, and every chunking of the stream computes the same values.
        """
        window = self.synchronizer.window_length
        last_possible = self._base + self._size - window + 1
        start = self._metric_next
        end = -(-upto // METRIC_TILE) * METRIC_TILE
        if end > last_possible:
            end = last_possible if flush else last_possible // METRIC_TILE * METRIC_TILE
        if end > start:
            segment = self._buffer[:, start - self._base : end - self._base + window - 1]
            self._append_metric(self.synchronizer.metric(segment))

    def _trim(self) -> None:
        """Amortised compaction of the stale buffer / metric prefixes.

        The buffer keeps ``keep_margin`` samples behind the search position,
        and from the metric frontier on, which trails the search by up to a
        tile after an emitted frame.  Either way ``_base`` never passes
        ``_search_from - keep_margin``, and every lock starts its frame
        after that, so the extra history changes no decision: the
        ``frame_start < _base`` guard still fires only on a lock before the
        stream's first sample.
        """
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

    def _skip_metric_to(self, position: int) -> None:
        """Drop the metric before ``position``, which an emitted frame or a
        discarded lock's preamble consumed.

        A frontier behind ``position`` jumps to the start of the tile
        holding it, so no tile inside the frame is ever computed.
        """
        if position >= self._metric_next:
            self._metric_base = max(self._metric_next, position // METRIC_TILE * METRIC_TILE)
            self._metric_size = 0
        elif position > self._metric_base:
            cut = position - self._metric_base
            remaining = self._metric[:, cut : self._metric_size].copy()
            self._metric[:, : remaining.shape[1]] = remaining
            self._metric_base = position
            self._metric_size = remaining.shape[1]

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def _first_crossing(self) -> Optional[int]:
        """First computed position from the search position on whose metric
        crosses :data:`MIN_METRIC` on any antenna, if there is one."""
        rel_from = self._search_from - self._metric_base
        if rel_from >= self._metric_size:
            return None
        combined = self._metric[:, rel_from : self._metric_size].max(axis=0)
        crossings = np.flatnonzero(combined >= MIN_METRIC)
        return self._search_from + int(crossings[0]) if crossings.size else None

    def _advance(self, flush: bool) -> List[FrameWindow]:
        emitted: List[FrameWindow] = []
        window_sts = self.synchronizer.window_sts
        while True:
            crossing = self._first_crossing()
            if crossing is None:
                # Nothing detectable in everything computed so far: search
                # on past it.
                self._search_from = max(self._search_from, self._metric_next)
                frontier = self._metric_next
                self._extend_metric(self._search_from + self.lookahead, flush)
                if self._metric_next == frontier:
                    break  # wait for the samples the search needs
                continue
            refine_end = crossing + self.refine_span + 1
            self._extend_metric(refine_end, flush)
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
            frame_start = lts_start - self.layout.sts_length
            frame_end = frame_start + self.layout.length
            if frame_start < self._base:
                # The lock points before retained history (a frame cut by
                # the start of the stream): skip its whole preamble, whose
                # later LTS slots would lock a spurious frame over the
                # next real one.
                self.discarded_detections += 1
                self._search_from = frame_start + self.layout.preamble_length
                self._skip_metric_to(self._search_from)
                continue
            if frame_end > self._base + self._size:
                if not flush:
                    break  # wait for the frame tail
                self.truncated_frames += 1
                # The frame runs past the end of the stream, so the search
                # ends at the last window the stream holds.
                self._search_from = (
                    self._base + self._size - self.synchronizer.window_length + 1
                )
                break
            samples = self._buffer[
                :, frame_start - self._base : frame_end - self._base
            ].copy()
            emitted.append(
                FrameWindow(
                    samples=samples,
                    start=frame_start,
                    lts_start=lts_start,
                    peak_metric=float(region[antenna, offset]),
                    antenna=int(antenna),
                )
            )
            self.frames_emitted += 1
            self._search_from = frame_end
            self._skip_metric_to(frame_end)
        self._trim()
        return emitted
