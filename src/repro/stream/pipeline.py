"""Continuous-stream receive pipeline: detector → burst datapath.

:class:`StreamingReceiver` glues the rolling-buffer
:class:`~repro.stream.detector.StreamFrameDetector` to the existing
vectorised burst datapath: every frame window the detector emits during
one :meth:`~StreamingReceiver.push` goes through one
:meth:`~repro.core.receiver.MimoReceiver.receive_stack` call with the
detected LTS start trusted, so the whole push shares one stacked front end
(CFO correction, staggered-LTS channel estimation, one FFT and detection
pass) and one Viterbi trellis pass.  Because detection is chunk-invariant
and every burst of a stack decodes exactly as it would alone, a stream fed
in chunks of any size decodes bit-exactly like the one-shot burst loop.
The detector builds its :class:`~repro.sync.time_sync.TimeSynchronizer`
from the receiver's preamble, so the stream and burst paths share one
detection metric, and the receiver trusts the detector's lock instead of
synchronising each window again.

A frame the receiver gives up on — a non-finite sample, a rank-deficient
channel estimate — comes back as a :class:`DecodedFrame` that is not
``ok`` and counts in ``frames_lost``; the rest of its push and the stream
go on.  The downlink scheduler scores frames with the sweep's per-burst
rule (:meth:`~repro.core.frame.BurstOutcome.score`), so its loss rate is
a frame error rate like sweep PER.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.core.frame import ReceiveResult
from repro.core.preamble import burst_layout
from repro.core.receiver import MimoReceiver
from repro.exceptions import DecodingError, integer_at_least
from repro.stream.detector import FrameWindow, StreamFrameDetector


@dataclass(frozen=True)
class DecodedFrame:
    """Outcome of decoding one detected frame window.

    Attributes
    ----------
    window:
        The detected frame window (absolute stream position, lock metric).
    outcome:
        What the receiver returned in the frame's slot: the full burst
        :class:`~repro.core.frame.ReceiveResult`, or the
        :class:`~repro.exceptions.DecodingError` it gave up with.
    """

    window: FrameWindow
    outcome: Union[ReceiveResult, DecodingError]

    @property
    def ok(self) -> bool:
        """True when the burst decoded (which says nothing about residual bit
        errors — :meth:`~repro.core.frame.BurstOutcome.score` tells those)."""
        return not isinstance(self.outcome, DecodingError)


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
    the MMSE weights, the receiver's default.
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
        self.frames_detected = 0
        self.frames_decoded = 0
        self.frames_lost = 0

    # ------------------------------------------------------------------
    def push(self, chunk: np.ndarray) -> List[DecodedFrame]:
        """Consume one stream chunk; decode and return any completed frames."""
        return self._decode(self.detector.push(chunk))

    def flush(self) -> List[DecodedFrame]:
        """End of stream: decode whatever the detector can still emit."""
        return self._decode(self.detector.flush())

    # ------------------------------------------------------------------
    def _decode(self, windows: List[FrameWindow]) -> List[DecodedFrame]:
        """Decode every window of one push through one stacked receive pass."""
        outcomes = self.receiver.receive_stack(
            [window.samples for window in windows],
            self.n_info_bits,
            [window.lts_offset for window in windows],
        )
        frames = [
            DecodedFrame(window=window, outcome=outcome)
            for window, outcome in zip(windows, outcomes)
        ]
        # The receiver giving up loses the frame; the stream goes on.
        decoded = sum(frame.ok for frame in frames)
        self.frames_detected += len(frames)
        self.frames_decoded += decoded
        self.frames_lost += len(frames) - decoded
        return frames
