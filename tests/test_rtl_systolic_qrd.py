"""Tests for repro.rtl.systolic_qrd — the structural QRD array model."""

import numpy as np
import pytest

from repro.dsp.cordic import Cordic
from repro.mimo.matrix import frobenius_error, hermitian, is_unitary, is_upper_triangular
from repro.mimo.qr import qr_decompose_givens
from repro.mimo.rinv import invert_upper_triangular
from repro.rtl.systolic_qrd import QrdCellKind, SystolicQrdArray


def _random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)


@pytest.fixture
def array() -> SystolicQrdArray:
    return SystolicQrdArray(n=4, cordic_iterations=24)


class TestArrayStructure:
    def test_cell_counts_match_paper(self, array):
        # "This array consists of four boundary cells and six internal cells"
        # (R array); the Q array adds a 4x4 grid of internal cells.
        assert array.boundary_cell_count == 4
        assert array.r_array_internal_cell_count == 6
        assert array.internal_cell_count == 6 + 16

    def test_cordic_counts_per_cell(self, array):
        for cell in array.cells:
            if cell.kind is QrdCellKind.BOUNDARY:
                assert cell.cordic_count == 2
            else:
                assert cell.cordic_count == 3

    def test_total_cordic_count(self, array):
        assert array.total_cordic_count == 4 * 2 + 6 * 3 + 16 * 3

    def test_datapath_latency_matches_paper(self, array):
        # "The QRD circuit therefore has a data-path latency of 440 clock cycles."
        assert array.datapath_latency_cycles == 440

    def test_throughput_one_matrix_per_n_cycles(self, array):
        assert array.throughput_matrices_per_cycle() == pytest.approx(0.25)

    def test_smaller_array(self):
        array2 = SystolicQrdArray(n=2)
        assert array2.boundary_cell_count == 2
        assert array2.r_array_internal_cell_count == 1
        assert array2.datapath_latency_cycles < 440

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SystolicQrdArray(n=0)


class TestArrayNumerics:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reconstruction(self, array, seed):
        h = _random_matrix(4, seed)
        assert frobenius_error(array.reconstruct(h), h) < 1e-5

    def test_outputs_are_r_and_q_hermitian(self, array):
        h = _random_matrix(4, 10)
        r, q_hermitian = array.process(h)
        assert is_upper_triangular(r, tolerance=1e-6)
        assert is_unitary(hermitian(q_hermitian), tolerance=1e-4)
        diag = np.diagonal(r)
        assert np.all(np.abs(diag.imag) < 1e-6)
        assert np.all(diag.real >= -1e-9)

    def test_agrees_with_functional_givens_qr(self, array):
        h = _random_matrix(4, 11)
        r_structural, qh_structural = array.process(h)
        q_functional, r_functional = qr_decompose_givens(h)
        assert frobenius_error(r_structural, r_functional) < 1e-4
        assert frobenius_error(hermitian(qh_structural), q_functional) < 1e-4

    def test_numbers_are_the_cordic_givens_qr(self, array):
        h = _random_matrix(4, 13)
        r, q_hermitian = array.process(h)
        q_sweep, r_sweep = qr_decompose_givens(h, cordic=Cordic(iterations=24))
        np.testing.assert_array_equal(r, r_sweep)
        np.testing.assert_array_equal(q_hermitian, hermitian(q_sweep))

    def test_feeds_matrix_inversion(self, array):
        h = _random_matrix(4, 12)
        r, q_hermitian = array.process(h)
        h_inverse = invert_upper_triangular(r) @ q_hermitian
        assert frobenius_error(h_inverse @ h, np.eye(4)) < 1e-4

    def test_wrong_shape_rejected(self, array):
        with pytest.raises(ValueError):
            array.process(np.ones((3, 3), dtype=complex))

    def test_identity_matrix(self, array):
        r, q_hermitian = array.process(np.eye(4, dtype=complex))
        assert frobenius_error(r, np.eye(4)) < 1e-5
        assert frobenius_error(q_hermitian, np.eye(4)) < 1e-5
