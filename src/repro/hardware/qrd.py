"""The CORDIC systolic QR-decomposition array (Figs. 6-8), stated once.

The receiver decomposes each subcarrier's channel matrix with two connected
systolic arrays:

* a triangular **R array** of ``n`` boundary cells (2 vectoring CORDICs
  each) on the diagonal and ``n (n-1) / 2`` internal cells (3 rotation
  CORDICs each) above it, which leaves R in the cells;
* a square **Q array** of ``n x n`` internal cells which applies the same
  rotation stream to an identity matrix, producing Q^H.

Each CORDIC element is pipelined
:data:`~repro.dsp.cordic.CORDIC_PIPELINE_LATENCY` (20) cycles deep, and the
paper reports a 440-cycle datapath latency for the 4x4 array.  One array is
shared by every subcarrier: the scheduler streams the ``n x n`` channel-matrix
memories into it one entry per clock, so each matrix takes ``n²`` cycles to
enter.  :class:`QrdArray` holds these facts; the resource model, the latency
model and the QRD claims and ablation all read them from here.  The array's
numbers are :func:`repro.mimo.qr.qr_decompose_givens` in CORDIC arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dsp.cordic import CORDIC_PIPELINE_LATENCY
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class QrdArray:
    """Cell counts, critical path and streaming rule of the n x n array."""

    n: int = 4

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError("matrix dimension must be positive")

    @property
    def boundary_cells(self) -> int:
        """Boundary (vectoring) cells on the R array's diagonal."""
        return self.n

    @property
    def r_internal_cells(self) -> int:
        """Internal (rotation) cells above the R array's diagonal."""
        return self.n * (self.n - 1) // 2

    @property
    def q_internal_cells(self) -> int:
        """Internal cells of the square Q array."""
        return self.n * self.n

    @property
    def cordic_count(self) -> int:
        """CORDIC elements across both arrays (74 for the 4x4 array)."""
        return 2 * self.boundary_cells + 3 * (self.r_internal_cells + self.q_internal_cells)

    @property
    def critical_path_cordics(self) -> int:
        """CORDIC stages on the critical path.

        Calibrated to the paper: each of the ``n`` rows contributes one
        boundary cell (2 CORDICs) and one internal cell (3 CORDICs), plus a
        final 2-CORDIC output stage, giving ``5 n + 2`` stages — 22 for the
        4x4 array.
        """
        return 5 * self.n + 2

    @property
    def latency_cycles(self) -> int:
        """Datapath latency from first entry in to last result out (440 at n = 4)."""
        return self.critical_path_cordics * CORDIC_PIPELINE_LATENCY

    def streaming_cycles(self, n_matrices: int) -> int:
        """Cycles to stream ``n_matrices`` channel matrices into the array.

        Every input column walks all ``n²`` channel-matrix memories, one
        entry per clock, so each matrix takes ``n²`` cycles.
        """
        return n_matrices * self.n * self.n
