"""JESD204A-style converter interface framing model.

The transmitter in Fig. 1 hands its 16-bit I/Q samples to the digital-IF /
converter stage over a JESD204A interface.  For the reproduction the
interface is modelled functionally: samples are quantised to the converter
word width, packed into frames of a configurable number of octets, and
unpacked back — enough to exercise the datapath interface and account for the
word widths, without modelling the serial line coding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.dsp.fixedpoint import FixedPointFormat
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Jesd204Frame:
    """One framed block of converter words."""

    lane: int
    octets: bytes

    def __len__(self) -> int:
        return len(self.octets)


class Jesd204Framer:
    """Pack complex baseband samples into JESD204A-style octet frames.

    Parameters
    ----------
    n_lanes:
        Number of serial lanes (one per antenna in the paper's 4x4 system).
    sample_format:
        Fixed-point format of each I or Q word (16-bit in the paper).
    octets_per_frame:
        Frame size in octets per lane.
    """

    def __init__(
        self,
        n_lanes: int = 4,
        sample_format: FixedPointFormat | None = None,
        octets_per_frame: int = 32,
    ) -> None:
        if n_lanes <= 0:
            raise ConfigurationError("n_lanes must be positive")
        if octets_per_frame <= 0 or octets_per_frame % 4 != 0:
            raise ConfigurationError("octets_per_frame must be a positive multiple of 4")
        self.n_lanes = n_lanes
        self.sample_format = (
            sample_format
            if sample_format is not None
            else FixedPointFormat(word_length=16, frac_bits=14)
        )
        if self.sample_format.word_length != 16:
            raise ConfigurationError("the JESD204A model packs 16-bit converter words")
        self.octets_per_frame = octets_per_frame
        self.samples_per_frame = octets_per_frame // 4  # 2 octets I + 2 octets Q

    # ------------------------------------------------------------------
    def pack(self, samples: np.ndarray) -> List[List[Jesd204Frame]]:
        """Pack per-antenna samples into frames.

        Parameters
        ----------
        samples:
            Complex samples of shape ``(n_lanes, n_samples)``; ``n_samples``
            is zero-padded up to a whole number of frames.

        Returns
        -------
        A list per lane of :class:`Jesd204Frame` objects.
        """
        x = np.asarray(samples, dtype=np.complex128)
        if x.ndim != 2 or x.shape[0] != self.n_lanes:
            raise ConfigurationError(
                f"expected shape ({self.n_lanes}, n_samples), got {x.shape}"
            )
        n_samples = x.shape[1]
        per_frame = self.samples_per_frame
        n_frames = -(-n_samples // per_frame) if n_samples else 0
        padded = np.zeros((self.n_lanes, n_frames * per_frame), dtype=np.complex128)
        padded[:, :n_samples] = x
        quantised = self.sample_format.quantize_complex(padded)
        scale = 1.0 / self.sample_format.resolution
        i_words = np.round(quantised.real * scale).astype(np.int32)
        q_words = np.round(quantised.imag * scale).astype(np.int32)

        lanes: List[List[Jesd204Frame]] = []
        for lane in range(self.n_lanes):
            frames: List[Jesd204Frame] = []
            for f in range(n_frames):
                start = f * per_frame
                octets = bytearray()
                for s in range(start, start + per_frame):
                    octets += int(i_words[lane, s] & 0xFFFF).to_bytes(2, "big")
                    octets += int(q_words[lane, s] & 0xFFFF).to_bytes(2, "big")
                frames.append(Jesd204Frame(lane=lane, octets=bytes(octets)))
            lanes.append(frames)
        return lanes

    # ------------------------------------------------------------------
    def unpack(self, framed: List[List[Jesd204Frame]]) -> np.ndarray:
        """Reverse :meth:`pack`, returning quantised complex samples per lane."""
        if len(framed) != self.n_lanes:
            raise ConfigurationError(f"expected {self.n_lanes} lanes, got {len(framed)}")
        n_frames = len(framed[0]) if framed[0] else 0
        for lane_frames in framed:
            if len(lane_frames) != n_frames:
                raise ConfigurationError("all lanes must carry the same number of frames")
        per_frame = self.samples_per_frame
        out = np.zeros((self.n_lanes, n_frames * per_frame), dtype=np.complex128)
        resolution = self.sample_format.resolution
        for lane, lane_frames in enumerate(framed):
            for f, frame in enumerate(lane_frames):
                if len(frame.octets) != self.octets_per_frame:
                    raise ConfigurationError("frame has the wrong number of octets")
                for s in range(per_frame):
                    offset = s * 4
                    i_raw = int.from_bytes(frame.octets[offset:offset + 2], "big")
                    q_raw = int.from_bytes(frame.octets[offset + 2:offset + 4], "big")
                    if i_raw >= 0x8000:
                        i_raw -= 0x10000
                    if q_raw >= 0x8000:
                        q_raw -= 0x10000
                    out[lane, f * per_frame + s] = complex(
                        i_raw * resolution, q_raw * resolution
                    )
        return out

    def line_rate_bps(self, sample_rate_hz: float, encoding_overhead: float = 1.25) -> float:
        """Serial line rate per lane (16-bit I + 16-bit Q per sample, 8b/10b)."""
        if sample_rate_hz <= 0:
            raise ConfigurationError("sample_rate_hz must be positive")
        return sample_rate_hz * 32 * encoding_overhead
