"""Cycle-latency models of the receive datapath.

The paper gives two hard latency numbers — every CORDIC element is pipelined
20 clock cycles deep, and the QR-decomposition datapath has a total latency
of 440 cycles — and describes qualitatively that "the entire channel
estimation process has a massive latency", which is why OFDM data frames are
buffered in FIFOs until the channel estimates are ready.  This module turns
those statements into a model of a
:class:`~repro.core.config.TransceiverConfig`, so the buffering requirements
and processing delays can be computed for any configuration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.dsp.cordic import CORDIC_PIPELINE_LATENCY
from repro.exceptions import ConfigurationError
from repro.hardware.estimator import config_or_paper_build

if TYPE_CHECKING:
    from repro.core.config import TransceiverConfig

#: QRD datapath latency reported in the paper for the 4x4 array (cycles).
PAPER_QRD_LATENCY_CYCLES = 440

#: Pipeline registers per FFT butterfly stage.
FFT_PIPELINE_PER_STAGE = 4

#: Pipeline depth of the back-substitution R-inverse block.
R_INVERSE_PIPELINE = 24


def qrd_critical_path_cordics(n_antennas: int) -> int:
    """Number of CORDIC stages on the QRD array's critical path.

    Calibrated to the paper: each of the ``n`` rows of the combined R/Q
    systolic array contributes one boundary cell (2 CORDICs) and one internal
    cell (3 CORDICs) to the critical path, plus a final 2-CORDIC output
    stage, giving ``5 n + 2`` stages — 22 for the 4x4 array, i.e. the
    reported 440 cycles at 20 cycles per CORDIC.
    """
    if n_antennas <= 0:
        raise ConfigurationError("n_antennas must be positive")
    return 5 * n_antennas + 2


class LatencyModel:
    """Latency model of the MIMO receiver of ``config``.

    The antenna count, FFT length, cyclic prefix and clock come from
    ``config`` (the paper's build by default); the correlator window is
    :attr:`repro.sync.time_sync.TimeSynchronizer.window_length` and every
    CORDIC is :data:`repro.dsp.cordic.CORDIC_PIPELINE_LATENCY` cycles deep.
    """

    def __init__(self, config: Optional[TransceiverConfig] = None) -> None:
        self.config = config_or_paper_build(config)

    @property
    def time_sync_cycles(self) -> int:
        """Correlator window fill + adder tree + CORDIC magnitude + compare."""
        # Imported on use for the reason given in config_or_paper_build.
        from repro.sync.time_sync import TimeSynchronizer

        window = TimeSynchronizer.window_length
        adder_tree = max(1, (window - 1).bit_length())
        return window + adder_tree + CORDIC_PIPELINE_LATENCY + 1

    @property
    def fft_cycles(self) -> int:
        """Streaming FFT latency: ingest the symbol then flush the stages."""
        fft_size = self.config.fft_size
        stages = fft_size.bit_length() - 1
        return fft_size + stages * FFT_PIPELINE_PER_STAGE

    @property
    def qrd_cycles(self) -> int:
        """QR decomposition datapath latency (440 cycles for the 4x4 array)."""
        return qrd_critical_path_cordics(self.config.n_antennas) * CORDIC_PIPELINE_LATENCY

    @property
    def r_inverse_cycles(self) -> int:
        """Back-substitution pipeline latency."""
        # Each column of R^-1 beyond the diagonal needs the previous column's
        # results; the pipeline is therefore traversed once per column.
        return self.config.n_antennas * R_INVERSE_PIPELINE

    @property
    def matrix_multiply_cycles(self) -> int:
        """Q^T x R^-1 multiply latency for one subcarrier."""
        return self.config.n_antennas**2 + CORDIC_PIPELINE_LATENCY // 2

    @property
    def channel_estimation_cycles(self) -> int:
        """Latency from LTS reception to all subcarrier inverses stored.

        The channel-matrix memories are streamed through the QRD array one
        matrix entry per cycle (``fft_size * n²`` reads), then the pipeline
        flushes through the QRD, R-inverse and matrix-multiply stages.
        """
        streaming = self.config.fft_size * self.config.n_antennas**2
        return (
            streaming
            + self.qrd_cycles
            + self.r_inverse_cycles
            + self.matrix_multiply_cycles
        )

    @property
    def total_cycles(self) -> int:
        """Latency from burst arrival to the first equalised OFDM symbol."""
        lts_ingest = 2 * self.config.fft_size + self.config.cyclic_prefix_length
        return (
            self.time_sync_cycles
            + lts_ingest
            + self.fft_cycles
            + self.channel_estimation_cycles
        )

    def breakdown(self) -> Dict[str, int]:
        """Latency (clock cycles) of each stage of the receive pipeline."""
        return {
            "time_sync_cycles": self.time_sync_cycles,
            "fft_cycles": self.fft_cycles,
            "qrd_cycles": self.qrd_cycles,
            "r_inverse_cycles": self.r_inverse_cycles,
            "matrix_multiply_cycles": self.matrix_multiply_cycles,
            "channel_estimation_cycles": self.channel_estimation_cycles,
            "total_cycles": self.total_cycles,
        }

    def required_data_fifo_depth(self) -> int:
        """OFDM data samples that must be buffered while estimation completes.

        The receiver stores FFT output in FIFOs until the channel estimates
        are ready; the required depth is the number of data samples arriving
        during the channel-estimation latency.
        """
        return self.channel_estimation_cycles

    def latency_seconds(self) -> float:
        """Total receive-pipeline latency in seconds at the config's clock."""
        return self.total_cycles / self.config.clock_hz
