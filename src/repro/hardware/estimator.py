"""Parametric FPGA resource-estimation models (the synthesis substitute).

The paper's evaluation is a synthesis report of the 4x4, 16-QAM, 64-point
OFDM build on a large Altera FPGA:

* Table 1 — transmitter totals (ALUTs 33,423; registers 12,320; memory bits
  265,408; 18-bit DSP blocks 32);
* Table 2 — transmitter per-entity breakdown;
* Table 3 — receiver totals (ALUTs 183,957; registers 173,335; memory bits
  367,060; DSP 896);
* Table 4 — receiver per-entity breakdown, with the observation that the
  channel-estimation/equalisation blocks account for 86 % of ALUTs and 77 %
  of the DSP multipliers.

We have no FPGA toolchain, so the substitute is a *calibrated parametric
model* of a :class:`~repro.core.config.TransceiverConfig`: each entity's
cost is the paper's reported value scaled by how its dominant size driver
changes relative to the paper's build, ``TransceiverConfig()``.  At the
paper's configuration the model reproduces the tables exactly; away from it,
it scales the way Section V argues (e.g. IFFT/interleaver resources and
buffer memory grow ~8x for 512-point OFDM while the channel-estimation
blocks stay constant).

The per-entity scaling drivers are:

========================  =============================================
Entity                    Scaling driver
========================  =============================================
conv encoder              number of channels
block (de)interleaver     channels x coded bits per OFDM symbol
IFFT / FFT                channels x FFT length
cyclic prefix             number of channels
time synchroniser         none: the transceiver's fixed 32-tap correlator
Viterbi decoder           number of channels (the trellis is the fixed
                          K=7 code's 64 states)
R matrix inverse          antenna count squared (vs. 16)
MIMO decoder              antenna count squared
QR decomposition          CORDIC cell count of the systolic arrays
QR multiplier             antenna count squared
glue logic                number of channels
glue memory (buffers)     channels x FFT length (of 16-bit samples)
========================  =============================================

The glue is the paper's table total minus the sum of its entities.  It is
negative for the receiver's ALUTs: Table 4's entities sum above Table 3's
total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.hardware.resources import ResourceReport, ResourceUsage

if TYPE_CHECKING:
    from repro.core.config import TransceiverConfig


@dataclass(frozen=True)
class FpgaDevice:
    """Capacities of the target FPGA (the "Available" column of Tables 1/3)."""

    name: str
    aluts: int
    registers: int
    memory_bits: int
    dsp_blocks: int


#: The device whose "available" numbers appear in the paper's tables.
STRATIX_IV_DEVICE = FpgaDevice(
    name="Altera Stratix IV class (as reported in the paper)",
    aluts=424_960,
    registers=424_960,
    memory_bits=21_233_664,
    dsp_blocks=1_024,
)


def qrd_cordic_cell_count(n_antennas: int) -> int:
    """Total CORDIC count of the R and Q systolic arrays for an NxN matrix.

    The R array (Fig. 6) has ``n`` boundary cells of 2 CORDICs and
    ``n (n-1) / 2`` internal cells of 3 CORDICs; the Q array (Fig. 7) is an
    ``n x n`` grid of 3-CORDIC internal cells.
    """
    if n_antennas <= 0:
        raise ConfigurationError("n_antennas must be positive")
    boundary = 2 * n_antennas
    r_internal = 3 * (n_antennas * (n_antennas - 1) // 2)
    q_internal = 3 * n_antennas * n_antennas
    return boundary + r_internal + q_internal


def config_or_paper_build(config: Optional[TransceiverConfig]) -> TransceiverConfig:
    """``config``, or the paper's synthesised build when it is ``None``.

    Imported on use: :mod:`repro.core.config` reads
    :mod:`repro.hardware.clock`, so importing it while this package loads
    would be circular.
    """
    from repro.core.config import TransceiverConfig

    return TransceiverConfig() if config is None else config


class _CalibratedModel:
    """The scaling routine of both models: paper figures times driver ratios.

    A subclass gives the paper's per-entity figures, each entity's driver (a
    key of :meth:`_driver_ratios`) and the table totals.
    """

    NAME: str
    #: Per-entity (ALUTs, registers, memory bits, DSP) at the paper's build.
    REFERENCE_ENTITIES: Dict[str, Tuple[int, int, int, int]]
    ENTITY_DRIVERS: Dict[str, str]
    REFERENCE_TOTALS: ResourceUsage

    def __init__(self, config: Optional[TransceiverConfig] = None) -> None:
        self.config = config_or_paper_build(config)
        self._ratios = self._driver_ratios(self.config, config_or_paper_build(None))

    @staticmethod
    def _driver_ratios(config: TransceiverConfig, paper: TransceiverConfig) -> Dict[str, float]:
        """Each size driver at ``config`` over its value at ``paper``."""
        channels = config.n_antennas / paper.n_antennas
        return {
            "fixed": 1.0,
            "channels": channels,
            "coded_bits": channels * (config.coded_bits_per_symbol / paper.coded_bits_per_symbol),
            "fft_length": channels * (config.fft_size / paper.fft_size),
            "antenna_pairs": config.n_antennas**2 / paper.n_antennas**2,
            "qrd_cordics": (
                qrd_cordic_cell_count(config.n_antennas)
                / qrd_cordic_cell_count(paper.n_antennas)
            ),
        }

    def entity_usage(self, entity: str) -> ResourceUsage:
        """Estimated usage of one entity (all channels combined)."""
        figures = self.REFERENCE_ENTITIES[entity]
        ratio = self._ratios[self.ENTITY_DRIVERS[entity]]
        return ResourceUsage(*(int(round(value * ratio)) for value in figures))

    def entity_report(self) -> ResourceReport:
        """Per-entity report (Table 2 or 4) whose total is Table 1 or 3.

        The glue scales with the channel count for logic and with channels
        x FFT length for memory, which reproduces the "approximately eight
        times as many memory bits" claim for 512-point OFDM.
        """
        reference_sum = sum(
            (ResourceUsage(*figures) for figures in self.REFERENCE_ENTITIES.values()),
            ResourceUsage(),
        ).as_dict()
        glue = {
            resource: int(round(
                (total - reference_sum[resource])
                * self._ratios["fft_length" if resource == "memory_bits" else "channels"]
            ))
            for resource, total in self.REFERENCE_TOTALS.as_dict().items()
        }
        report = ResourceReport(name=self.NAME, glue=glue)
        for entity in self.REFERENCE_ENTITIES:
            report.add_entity(entity, self.entity_usage(entity))
        return report

    def system_totals(self) -> ResourceUsage:
        """System totals (Table 1 or 3)."""
        return self.entity_report().total()

    def utilization(self, device: FpgaDevice = STRATIX_IV_DEVICE) -> Dict[str, float]:
        """Percentage utilisation of the target device (Table 1/3 "% Used")."""
        return self.entity_report().utilization(device)


class TransmitterResourceModel(_CalibratedModel):
    """Resource model of the MIMO transmitter (Tables 1 and 2)."""

    NAME = "MIMO transmitter"
    #: Table 2.
    REFERENCE_ENTITIES = {
        "conv_encoder": (32, 136, 0, 0),
        "block_interleaver": (28_016, 1_730, 0, 0),
        "ifft": (3_854, 9_152, 8_896, 32),
        "cyclic_prefix": (40, 128, 0, 0),
    }
    ENTITY_DRIVERS = {
        "conv_encoder": "channels",
        "block_interleaver": "coded_bits",
        "ifft": "fft_length",
        "cyclic_prefix": "channels",
    }
    #: Table 1.
    REFERENCE_TOTALS = ResourceUsage(
        aluts=33_423, registers=12_320, memory_bits=265_408, dsp_blocks=32
    )


class ReceiverResourceModel(_CalibratedModel):
    """Resource model of the MIMO receiver (Tables 3 and 4)."""

    NAME = "MIMO receiver"
    #: Table 4.
    REFERENCE_ENTITIES = {
        "block_deinterleaver": (13_772, 1_772, 0, 0),
        "fft": (3_196, 9_650, 10_736, 64),
        "time_synchroniser": (3_557, 8_983, 0, 128),
        "viterbi_decoder": (5_028, 2_848, 18_460, 0),
        "r_matrix_inverse": (55_431, 31_711, 6_226, 56),
        "mimo_decoder": (1_036, 768, 0, 128),
        "qr_decomposition": (101_697, 109_447, 322, 248),
        "qr_multiplier": (1_368, 1_169, 0, 256),
    }
    ENTITY_DRIVERS = {
        "block_deinterleaver": "coded_bits",
        "fft": "fft_length",
        "time_synchroniser": "fixed",
        "viterbi_decoder": "channels",
        "r_matrix_inverse": "antenna_pairs",
        "mimo_decoder": "antenna_pairs",
        "qr_decomposition": "qrd_cordics",
        "qr_multiplier": "antenna_pairs",
    }
    #: Table 3.
    REFERENCE_TOTALS = ResourceUsage(
        aluts=183_957, registers=173_335, memory_bits=367_060, dsp_blocks=896
    )

    #: Entities the paper groups as "channel estimation and equalisation".
    CHANNEL_ESTIMATION_ENTITIES = (
        "r_matrix_inverse",
        "mimo_decoder",
        "qr_decomposition",
        "qr_multiplier",
    )

    def channel_estimation_share(self) -> Dict[str, float]:
        """Fraction of each system total used by channel estimation and
        equalisation: the paper's "86 % of the ALUTs and 77 % of the DSP
        multipliers"."""
        return self.entity_report().entity_share(self.CHANNEL_ESTIMATION_ENTITIES)
