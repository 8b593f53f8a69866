"""Tests for repro.mimo.qr."""

import numpy as np
import pytest

from repro.dsp.cordic import Cordic
from repro.mimo.matrix import frobenius_error, is_unitary, is_upper_triangular
from repro.mimo.qr import qr_decompose_givens


def _random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)


class TestGivensQr:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_reconstruction(self, n):
        h = _random_matrix(n, n)
        q, r = qr_decompose_givens(h)
        assert frobenius_error(q @ r, h) < 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_q_unitary_r_triangular(self, n):
        h = _random_matrix(n, n + 10)
        q, r = qr_decompose_givens(h)
        assert is_unitary(q)
        assert is_upper_triangular(r)

    def test_r_diagonal_real_non_negative(self):
        h = _random_matrix(4, 99)
        _, r = qr_decompose_givens(h)
        diag = np.diagonal(r)
        assert np.all(np.abs(diag.imag) < 1e-12)
        assert np.all(diag.real >= 0)

    def test_matches_numpy_r_up_to_phase(self):
        h = _random_matrix(4, 5)
        _, r = qr_decompose_givens(h)
        _, r_np = np.linalg.qr(h)
        # numpy's R diagonal can carry arbitrary phases; compare magnitudes.
        np.testing.assert_allclose(np.abs(r), np.abs(r_np), atol=1e-10)

    def test_identity_input(self):
        q, r = qr_decompose_givens(np.eye(4, dtype=complex))
        np.testing.assert_allclose(q, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(r, np.eye(4), atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            qr_decompose_givens(np.ones((3, 4), dtype=complex))


class TestCordicQr:
    def test_reconstruction_close_to_exact(self):
        h = _random_matrix(4, 7)
        q, r = qr_decompose_givens(h, cordic=Cordic(iterations=20))
        assert is_upper_triangular(r, tolerance=1e-6)
        assert frobenius_error(q @ r, h) < 1e-4

    def test_accuracy_improves_with_iterations(self):
        h = _random_matrix(4, 8)
        errors = []
        for iterations in (8, 12, 16, 24):
            q, r = qr_decompose_givens(h, cordic=Cordic(iterations=iterations))
            errors.append(frobenius_error(q @ r, h))
        assert errors[0] > errors[-1]

    def test_custom_cordic_engine(self):
        h = _random_matrix(3, 10)
        q, r = qr_decompose_givens(h, cordic=Cordic(iterations=22))
        assert frobenius_error(q @ r, h) < 1e-4

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            qr_decompose_givens(np.ones((2, 3), dtype=complex), cordic=Cordic())

    def test_agrees_with_float_givens(self):
        h = _random_matrix(4, 11)
        q_float, r_float = qr_decompose_givens(h)
        q_cordic, r_cordic = qr_decompose_givens(h, cordic=Cordic(iterations=24))
        assert frobenius_error(r_cordic, r_float) < 1e-4
        assert frobenius_error(q_cordic, q_float) < 1e-4
