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

:class:`SystolicQrdArray` models the array at the cell level: it enumerates
the cells, computes the numerical result with the same per-cell operations as
the functional model in :mod:`repro.mimo.qr` (so results can be cross
checked), and accounts for latency per cell and for the whole array.
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
    # numerical behaviour (cross-checked against repro.mimo.qr)
    # ------------------------------------------------------------------
    def _boundary_cell(self, stored: float, incoming: complex) -> Tuple[float, float, float]:
        """Boundary cell: vectoring CORDICs produce theta_b, theta_1 and |r'|."""
        vec_b = self.cordic.vector(incoming.real, incoming.imag)
        theta_b = vec_b.angle
        magnitude = vec_b.magnitude
        vec_1 = self.cordic.vector(stored, magnitude)
        theta_1 = vec_1.angle
        new_stored = vec_1.magnitude
        return new_stored, theta_b, theta_1

    def _internal_cell(
        self, stored: complex, incoming: complex, theta_b: float, theta_1: float
    ) -> Tuple[complex, complex]:
        """Internal cell: de-phase the input then rotate it against the store."""
        rot = self.cordic.rotate(incoming.real, incoming.imag, -theta_b)
        dephased = complex(rot.x, rot.y)
        real = self.cordic.rotate(stored.real, dephased.real, -theta_1)
        imag = self.cordic.rotate(stored.imag, dephased.imag, -theta_1)
        new_stored = complex(real.x, imag.x)
        output = complex(real.y, imag.y)
        return new_stored, output

    def process(self, channel_matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Run one channel matrix through the array.

        Returns ``(r, q_hermitian)`` — exactly what the hardware's R and Q
        arrays hold after the matrix (and the identity) have been streamed
        through: ``channel_matrix ~= hermitian(q_hermitian) @ r``.
        """
        h = np.asarray(channel_matrix, dtype=np.complex128)
        if h.shape != (self.n, self.n):
            raise ConfigurationError(f"expected a {self.n}x{self.n} matrix")
        n = self.n
        # Cell state: R-array boundary cells store a real magnitude, internal
        # cells store a complex value; Q-array internal cells store complex.
        r_boundary = np.zeros(n, dtype=np.float64)
        r_internal = np.zeros((n, n), dtype=np.complex128)
        q_internal = np.zeros((n, n), dtype=np.complex128)

        # Rows of H enter from the top, one row at a time, followed by the
        # rows of the identity matrix into the Q array.
        for source_row in range(n):
            h_row = h[source_row].copy()
            identity_row = np.eye(n, dtype=np.complex128)[source_row].copy()
            for stage in range(n):
                if stage > source_row:
                    break
                incoming = h_row[stage]
                if stage == source_row:
                    # The row reaches the diagonal: it initialises the cells.
                    new_stored, theta_b, theta_1 = self._boundary_cell(0.0, incoming)
                    # Initialising a zeroed boundary cell is a pure phase
                    # annihilation: store the magnitude directly.
                    r_boundary[stage] = new_stored
                    for col in range(stage + 1, n):
                        rot = self.cordic.rotate(
                            h_row[col].real, h_row[col].imag, -theta_b
                        )
                        r_internal[stage, col] = complex(rot.x, rot.y)
                    for col in range(n):
                        rot = self.cordic.rotate(
                            identity_row[col].real, identity_row[col].imag, -theta_b
                        )
                        q_internal[stage, col] = complex(rot.x, rot.y)
                    break
                # Annihilate this row's element against the stage's cells.
                new_stored, theta_b, theta_1 = self._boundary_cell(
                    r_boundary[stage], h_row[stage]
                )
                r_boundary[stage] = new_stored
                for col in range(stage + 1, n):
                    new_cell, passed = self._internal_cell(
                        r_internal[stage, col], h_row[col], theta_b, theta_1
                    )
                    r_internal[stage, col] = new_cell
                    h_row[col] = passed
                for col in range(n):
                    new_cell, passed = self._internal_cell(
                        q_internal[stage, col], identity_row[col], theta_b, theta_1
                    )
                    q_internal[stage, col] = new_cell
                    identity_row[col] = passed

        r = np.zeros((n, n), dtype=np.complex128)
        for i in range(n):
            r[i, i] = r_boundary[i]
            for j in range(i + 1, n):
                r[i, j] = r_internal[i, j]
        q_hermitian = q_internal
        return r, q_hermitian

    def reconstruct(self, channel_matrix: np.ndarray) -> np.ndarray:
        """Reconstruct the channel matrix from the array outputs (for tests)."""
        r, q_hermitian = self.process(channel_matrix)
        return hermitian(q_hermitian) @ r
