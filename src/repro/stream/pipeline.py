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

A frame the receiver gives up on — a non-finite sample, a rank-deficient
channel estimate — comes back as a :class:`DecodedFrame` with
``ok=False`` and counts in ``frames_lost``; the rest of its push and the
stream go on.  The downlink scheduler counts losses per frame, so its loss
rate is a frame error rate like sweep PER.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.frame import ReceiveResult
from repro.core.receiver import MimoReceiver
from repro.exceptions import DecodingError
from repro.stream.detector import FrameWindow, StreamFrameDetector


@dataclass(frozen=True)
class DecodedFrame:
    """Outcome of decoding one detected frame window.

    Attributes
    ----------
    window:
        The detected frame window (absolute stream position, lock metric).
    result:
        The full burst :class:`~repro.core.frame.ReceiveResult` when
        decoding succeeded, ``None`` when the receiver gave up.
    ok:
        True when the burst decoded (which says nothing about residual bit
        errors — compare against reference bits for that).
    error:
        The :class:`~repro.exceptions.DecodingError` message on give-up.
    """

    window: FrameWindow
    result: Optional[ReceiveResult]
    ok: bool
    error: Optional[str] = None

    def decoded_bits(self) -> Optional[List[np.ndarray]]:
        """Per-stream decoded payload bits (``None`` for a lost frame)."""
        if self.result is None:
            return None
        return [stream.decoded_bits for stream in self.result.streams]


class StreamingReceiver:
    """Receive a continuous multi-antenna stream of fixed-size frames.

    Parameters
    ----------
    receiver:
        The burst receiver to decode detected windows with; its preamble
        and time synchroniser are shared with the frame detector so both
        stages agree on the reference waveform and metric normalisation.
    n_info_bits:
        Information bits per spatial stream per frame (fixes the frame
        length the detector cuts; a real system would decode a SIGNAL
        field instead).
    noise_variance:
        Noise variance forwarded to the soft demapper / MMSE weights.
    """

    def __init__(
        self,
        receiver: Optional[MimoReceiver] = None,
        n_info_bits: int = 256,
        noise_variance: float = 1.0,
    ) -> None:
        self.receiver = receiver if receiver is not None else MimoReceiver()
        self.n_info_bits = int(n_info_bits)
        self.noise_variance = float(noise_variance)
        self.frame_length = self.receiver.frame_length(self.n_info_bits)
        config = self.receiver.config
        self.detector = StreamFrameDetector(
            preamble=self.receiver.preamble,
            n_rx=config.n_antennas,
            frame_length=self.frame_length,
            n_tx=config.n_antennas,
            synchronizer=self.receiver.synchronizer,
            # The burst datapath re-estimates CFO on the window when the
            # configuration asks for correction; a second coarse estimate
            # per detection would be redundant here.
            estimate_cfo=False,
        )
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
            [self.noise_variance] * len(windows),
        )
        frames = []
        for window, outcome in zip(windows, outcomes):
            self.frames_detected += 1
            if isinstance(outcome, DecodingError):
                # The receiver giving up loses the frame; the stream goes on.
                self.frames_lost += 1
                frames.append(
                    DecodedFrame(window=window, result=None, ok=False, error=str(outcome))
                )
            else:
                self.frames_decoded += 1
                frames.append(DecodedFrame(window=window, result=outcome, ok=True))
        return frames
