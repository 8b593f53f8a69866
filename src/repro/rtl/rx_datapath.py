"""Streaming receive front end (circular buffers + correlator + LTS capture).

:class:`RxFrontEnd` models the receiver input stage the paper describes:
each antenna's samples stream into a circular buffer sized to cover the time
synchroniser's latency, the synchroniser watches antenna streams with its
32-tap correlator, and once lock is declared the LTS samples are replayed
out of the circular buffers into the FFTs.  The functional receiver in
:mod:`repro.core.receiver` slices arrays directly; this structural model
checks that the buffered/replayed path sees exactly the same samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import TransceiverConfig
from repro.core.preamble import PreambleGenerator
from repro.exceptions import ConfigurationError
from repro.hardware.memory import CircularBuffer
from repro.sync.time_sync import TimeSynchronizer


@dataclass
class RxFrontEndReport:
    """Result of streaming a burst into the front end and locking on it."""

    lts_start: int
    samples_consumed: int
    buffer_depth: int


class RxFrontEnd:
    """Circular input buffering plus time synchronisation for all antennas.

    Parameters
    ----------
    config:
        Transceiver configuration.
    buffer_margin:
        Extra depth (in samples) added to the circular buffers beyond the
        preamble length, standing in for the synchroniser latency headroom
        the paper mentions.
    """

    def __init__(
        self,
        config: Optional[TransceiverConfig] = None,
        buffer_margin: int = 128,
    ) -> None:
        self.config = config if config is not None else TransceiverConfig()
        self.preamble = PreambleGenerator(self.config.fft_size)
        layout = self.preamble.layout(self.config.n_antennas)
        depth = layout.total_length + buffer_margin
        self.buffers: List[CircularBuffer] = [
            CircularBuffer(depth=depth, word_bits=32)
            for _ in range(self.config.n_antennas)
        ]
        self.synchronizer = TimeSynchronizer(
            self.preamble.sts_time(), self.preamble.lts_time()
        )
        self.layout = layout

    # ------------------------------------------------------------------
    def ingest(self, samples: np.ndarray) -> RxFrontEndReport:
        """Stream a burst into the buffers and locate the LTS start.

        Parameters
        ----------
        samples:
            Received samples, shape ``(n_rx, n_samples)``.

        Raises :class:`~repro.exceptions.ConfigurationError` on any other
        shape and :class:`~repro.exceptions.SynchronizationError` when the
        synchroniser finds no lock (see
        :meth:`~repro.sync.time_sync.TimeSynchronizer.locate`).
        """
        streams = np.asarray(samples, dtype=np.complex128)
        if streams.ndim != 2 or streams.shape[0] != self.config.n_antennas:
            raise ConfigurationError(
                f"expected shape ({self.config.n_antennas}, n_samples), got {streams.shape}"
            )
        for antenna, buffer in enumerate(self.buffers):
            buffer.push_many(streams[antenna])
        lts_start = self.synchronizer.locate(streams)
        return RxFrontEndReport(
            lts_start=lts_start,
            samples_consumed=streams.shape[1],
            buffer_depth=self.buffers[0].depth,
        )

    # ------------------------------------------------------------------
    def replay_lts(self, report: RxFrontEndReport, total_ingested: int) -> np.ndarray:
        """Replay the buffered LTS slots for FFT processing.

        Returns an array of shape ``(n_rx, n_lts_slots * lts_slot_length)``
        read back out of the circular buffers — the samples the FFTs would
        receive in hardware.  ``total_ingested`` is the number of samples
        pushed so far (needed to convert absolute indices into
        "samples-ago" positions inside the circular buffers).
        """
        slot_len = self.layout.lts_slot_length
        n_slots = self.layout.n_lts_slots
        lts_length = n_slots * slot_len
        end_index = report.lts_start + lts_length
        if end_index > total_ingested:
            raise ConfigurationError("the LTS section has not been fully ingested yet")
        newest_needed = total_ingested - report.lts_start
        replayed = np.zeros(
            (self.config.n_antennas, lts_length), dtype=np.complex128
        )
        for antenna, buffer in enumerate(self.buffers):
            if newest_needed > len(buffer):
                raise ConfigurationError("circular buffer too shallow to replay the LTS")
            window = buffer.latest(newest_needed)
            replayed[antenna] = window[:lts_length]
        return replayed
