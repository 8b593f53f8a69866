"""Structural model of the QR-decomposition systolic arrays (Figs. 6-8).

The hardware decomposes each subcarrier's channel matrix with two connected
systolic arrays:

* a triangular **R array** of boundary cells (2 vectoring CORDICs each) on
  the diagonal and internal cells (3 rotation CORDICs each) above it, which
  annihilates the sub-diagonal entries column by column and leaves R in the
  cells;
* a square **Q array** of internal cells which applies the same rotation
  stream to an identity matrix, producing Q^H.

Each CORDIC element is pipelined 20 clock cycles deep, and the paper reports
a total QRD datapath latency of 440 cycles for the 4x4 array.

:class:`SystolicQrdArray` models the array's structure and timing: it
enumerates the cells and their CORDIC counts and accounts for latency per
cell and for the whole array.  Its numbers come from the one Givens QR,
:func:`repro.mimo.qr.qr_decompose_givens`, run in the array's CORDIC
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

import numpy as np

from repro.dsp.cordic import CORDIC_PIPELINE_LATENCY, Cordic
from repro.exceptions import ConfigurationError
from repro.hardware.latency import qrd_critical_path_cordics
from repro.mimo.matrix import hermitian
from repro.mimo.qr import qr_decompose_givens


class QrdCellKind(str, Enum):
    """Cell types of the systolic array."""

    BOUNDARY = "boundary"
    INTERNAL = "internal"


@dataclass(frozen=True)
class QrdCell:
    """One cell of the systolic array.

    Attributes
    ----------
    kind:
        Boundary (vectoring) or internal (rotation) cell.
    row, col:
        Position in the array; for the Q array the column index continues
        past the R array's columns.
    array:
        ``"R"`` or ``"Q"``.
    cordic_count:
        CORDIC elements inside the cell (2 for boundary, 3 for internal).
    """

    kind: QrdCellKind
    row: int
    col: int
    array: str
    cordic_count: int


class SystolicQrdArray:
    """Cell-level model of the combined R/Q QRD systolic array.

    Parameters
    ----------
    n:
        Matrix dimension (4 in the paper).
    cordic_iterations:
        Micro-rotations per CORDIC used for the numerical result.

    Every CORDIC element is :data:`~repro.dsp.cordic.CORDIC_PIPELINE_LATENCY`
    (20) cycles deep.
    """

    def __init__(self, n: int = 4, cordic_iterations: int = 16) -> None:
        if n <= 0:
            raise ConfigurationError("matrix dimension must be positive")
        self.n = n
        self.cordic = Cordic(iterations=cordic_iterations)
        self.cells = self._build_cells()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _build_cells(self) -> List[QrdCell]:
        cells: List[QrdCell] = []
        # R array: triangular, boundary cells on the diagonal.
        for row in range(self.n):
            cells.append(
                QrdCell(
                    kind=QrdCellKind.BOUNDARY,
                    row=row,
                    col=row,
                    array="R",
                    cordic_count=2,
                )
            )
            for col in range(row + 1, self.n):
                cells.append(
                    QrdCell(
                        kind=QrdCellKind.INTERNAL,
                        row=row,
                        col=col,
                        array="R",
                        cordic_count=3,
                    )
                )
        # Q array: square grid of internal cells fed with the identity.
        for row in range(self.n):
            for col in range(self.n):
                cells.append(
                    QrdCell(
                        kind=QrdCellKind.INTERNAL,
                        row=row,
                        col=self.n + col,
                        array="Q",
                        cordic_count=3,
                    )
                )
        return cells

    @property
    def boundary_cell_count(self) -> int:
        """Boundary cells in the R array (4 for a 4x4 matrix)."""
        return sum(1 for c in self.cells if c.kind is QrdCellKind.BOUNDARY)

    @property
    def internal_cell_count(self) -> int:
        """Internal cells across both arrays (6 + 16 for a 4x4 matrix)."""
        return sum(1 for c in self.cells if c.kind is QrdCellKind.INTERNAL)

    @property
    def r_array_internal_cell_count(self) -> int:
        """Internal cells of the R array alone (6 for a 4x4 matrix)."""
        return sum(
            1
            for c in self.cells
            if c.kind is QrdCellKind.INTERNAL and c.array == "R"
        )

    @property
    def total_cordic_count(self) -> int:
        """Total CORDIC elements across both arrays."""
        return sum(c.cordic_count for c in self.cells)

    # ------------------------------------------------------------------
    # latency accounting
    # ------------------------------------------------------------------
    @property
    def datapath_latency_cycles(self) -> int:
        """Latency from first matrix entry in to last result out.

        Equal to the number of CORDIC stages on the critical path times the
        per-CORDIC pipeline depth — 22 x 20 = 440 cycles for the 4x4 array,
        the figure the paper reports.
        """
        return qrd_critical_path_cordics(self.n) * CORDIC_PIPELINE_LATENCY

    def throughput_matrices_per_cycle(self) -> float:
        """Matrices the pipelined array can accept per clock cycle.

        The scheduler feeds one matrix entry per cycle per column, so a new
        matrix can enter every ``n`` cycles once the pipeline is full.
        """
        return 1.0 / self.n

    # ------------------------------------------------------------------
    # numerical behaviour (the one Givens QR of repro.mimo.qr)
    # ------------------------------------------------------------------
    def process(self, channel_matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Run one channel matrix through the array.

        Returns ``(r, q_hermitian)`` — what the hardware's R and Q arrays
        hold after the matrix (and the identity) have been streamed
        through: ``channel_matrix ~= hermitian(q_hermitian) @ r``.  The
        numbers are :func:`~repro.mimo.qr.qr_decompose_givens` in this
        array's CORDIC arithmetic, which applies the cells' rotations in
        column-sweep order.
        """
        h = np.asarray(channel_matrix, dtype=np.complex128)
        if h.shape != (self.n, self.n):
            raise ConfigurationError(f"expected a {self.n}x{self.n} matrix")
        q, r = qr_decompose_givens(h, cordic=self.cordic)
        return r, hermitian(q)

    def reconstruct(self, channel_matrix: np.ndarray) -> np.ndarray:
        """Reconstruct the channel matrix from the array outputs (for tests)."""
        r, q_hermitian = self.process(channel_matrix)
        return hermitian(q_hermitian) @ r
