"""Continuous-stream receive pipeline: detector → burst datapath.

:class:`StreamingReceiver` glues the rolling-buffer
:class:`~repro.stream.detector.StreamFrameDetector` to the existing
vectorised burst datapath in two stages of different height:

* **front end, once per push.**  Every frame window the detector emits
  during one :meth:`~StreamingReceiver.push` goes through one
  :meth:`~repro.core.receiver.MimoReceiver.demodulate_stack` and one
  :meth:`~repro.core.receiver.MimoReceiver.detect_stack` call with the
  detected LTS start trusted: one stacked CFO correction, staggered-LTS
  channel estimate, FFT, detection, demap and de-interleave pass.  Each
  frame then waits in a queue with its front-end outcome and its
  :class:`~repro.stream.detector.FrameLock`; its samples are dropped.
* **decode, once per full slice.**  A trellis pass costs per step, not
  per row, so the queue decodes only when it holds
  :data:`~repro.core.receiver.DECODE_SLICE` code-block rows (16 frames at
  4x4): one :meth:`~repro.core.receiver.MimoReceiver.decode_stack` over
  the longest in-order prefix of at most that many rows.  A frame the
  front end gave up on has no rows and leaves with its neighbours.

So :meth:`~StreamingReceiver.push` returns the frames decoded so far, in
stream order, and may return a frame up to one slice after the push that
completed it.  :meth:`~StreamingReceiver.drain` decodes the queue now, for
stop-and-wait callers that need each frame's verdict before sending the
next, and :meth:`~StreamingReceiver.flush` ends the stream: the detector's
flush, then a drain.  Because detection is chunk-invariant and every
burst of a stack decodes exactly as it would alone, a stream fed in chunks
of any size, and drained at any points, decodes bit-exactly like the
one-shot burst loop.  The detector builds its
:class:`~repro.sync.time_sync.TimeSynchronizer` from the receiver's
preamble, so the stream and burst paths share one detection metric, and
the receiver trusts the detector's lock instead of synchronising each
window again.

A frame the receiver gives up on — a non-finite sample, a rank-deficient
channel estimate — comes back as a :class:`DecodedFrame` that is not
``ok`` and counts in ``frames_lost``; the rest of its slice and the stream
go on.  The downlink scheduler scores frames with the sweep's per-burst
rule (:meth:`~repro.core.frame.BurstOutcome.score`), so its loss rate is
a frame error rate like sweep PER.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple, Union

import numpy as np

from repro.core.frame import FrontEndResult, ReceiveResult
from repro.core.preamble import burst_layout
from repro.core.receiver import DECODE_SLICE, MimoReceiver
from repro.exceptions import DecodingError, integer_at_least
from repro.stream.detector import FrameLock, FrameWindow, StreamFrameDetector


@dataclass(frozen=True)
class DecodedFrame:
    """Outcome of decoding one detected frame window.

    Attributes
    ----------
    window:
        Where the frame was detected (absolute stream position, lock
        metric); the window's samples are dropped after the front end.
    outcome:
        What the receiver returned in the frame's slot: the full burst
        :class:`~repro.core.frame.ReceiveResult`, or the
        :class:`~repro.exceptions.DecodingError` it gave up with.
    """

    window: FrameLock
    outcome: Union[ReceiveResult, DecodingError]

    @property
    def ok(self) -> bool:
        """True when the burst decoded (which says nothing about residual bit
        errors — :meth:`~repro.core.frame.BurstOutcome.score` tells those)."""
        return not isinstance(self.outcome, DecodingError)


def _rows(front: Union[FrontEndResult, DecodingError]) -> int:
    """Code-block rows a front-end outcome adds to a trellis pass."""
    return front.coded.shape[0] if isinstance(front, FrontEndResult) else 0


class StreamingReceiver:
    """Receive a continuous multi-antenna stream of fixed-size frames.

    Parameters
    ----------
    receiver:
        The burst receiver to decode detected windows with; the frame
        detector builds its time synchroniser from the receiver's preamble,
        so both stages lock with the same metric.
    n_info_bits:
        Information bits per spatial stream per frame (fixes the frame
        layout, so the length the detector cuts; a real system would
        decode a SIGNAL field instead).

    Every frame decodes with noise variance 1.0 for the soft demapper and
    the MMSE weights, the receiver's default.  ``frames_detected``,
    ``frames_decoded`` and ``frames_lost`` count the frames :meth:`push`,
    :meth:`drain` and :meth:`flush` have returned, not those still queued.
    """

    def __init__(
        self,
        receiver: Optional[MimoReceiver] = None,
        n_info_bits: int = 256,
    ) -> None:
        self.receiver = receiver if receiver is not None else MimoReceiver()
        self.n_info_bits = integer_at_least("n_info_bits", n_info_bits, 1)
        #: The frames' geometry: the detector cuts ``layout.length`` samples.
        self.layout = burst_layout(self.receiver.config, self.n_info_bits)
        self.detector = StreamFrameDetector(self.receiver.preamble, self.layout)
        # Detected frames past the front end, waiting for a full trellis
        # slice, and their code-block rows.
        self._queue: Deque[Tuple[FrameLock, Union[FrontEndResult, DecodingError]]] = deque()
        self._queued_rows = 0
        self.frames_detected = 0
        self.frames_decoded = 0
        self.frames_lost = 0

    # ------------------------------------------------------------------
    def push(self, chunk: np.ndarray) -> List[DecodedFrame]:
        """Consume one stream chunk; return the frames decoded so far, in
        stream order.

        The chunk's completed frames go through the front end now; they
        decode once the queue fills a :data:`DECODE_SLICE`, so a frame may
        come back from a later push (or :meth:`drain`, or :meth:`flush`).
        """
        self._front_end(self.detector.push(chunk))
        decoded: List[DecodedFrame] = []
        while self._queued_rows >= DECODE_SLICE:
            decoded += self._decode_slice()
        return decoded

    def drain(self) -> List[DecodedFrame]:
        """Decode every queued frame now, without waiting for a full slice:
        for a caller that needs a frame's verdict before it sends the next."""
        decoded: List[DecodedFrame] = []
        while self._queue:
            decoded += self._decode_slice()
        return decoded

    def flush(self) -> List[DecodedFrame]:
        """End of stream: the detector's flush, then :meth:`drain`."""
        self._front_end(self.detector.flush())
        return self.drain()

    # ------------------------------------------------------------------
    def _front_end(self, windows: List[FrameWindow]) -> None:
        """Queue the lock of every window of one push with its stacked
        front-end outcome."""
        if not windows:
            return
        demodulated = self.receiver.demodulate_stack(
            [window.samples for window in windows],
            self.n_info_bits,
            [window.lts_offset for window in windows],
        )
        for window, front in zip(windows, self.receiver.detect_stack(demodulated)):
            self._queue.append((window.lock, front))
            self._queued_rows += _rows(front)

    def _decode_slice(self) -> List[DecodedFrame]:
        """Decode the longest queued prefix of at most :data:`DECODE_SLICE`
        rows in one trellis pass; a give-up has no rows and leaves with its
        neighbours."""
        locks: List[FrameLock] = []
        fronts: List[Union[FrontEndResult, DecodingError]] = []
        rows = 0
        while self._queue:
            lock, front = self._queue[0]
            height = _rows(front)
            if rows and rows + height > DECODE_SLICE:
                break  # (a frame taller than a slice would go alone)
            self._queue.popleft()
            locks.append(lock)
            fronts.append(front)
            rows += height
        self._queued_rows -= rows
        frames = [
            DecodedFrame(window=lock, outcome=outcome)
            for lock, outcome in zip(
                locks, self.receiver.decode_stack(fronts, self.n_info_bits)
            )
        ]
        # The receiver giving up loses the frame; the stream goes on.
        decoded = sum(frame.ok for frame in frames)
        self.frames_detected += len(frames)
        self.frames_decoded += decoded
        self.frames_lost += len(frames) - decoded
        return frames
