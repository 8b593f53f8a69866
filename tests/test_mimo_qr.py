"""Tests for repro.mimo.qr."""

import numpy as np
import pytest

from repro.dsp.cordic import Cordic
from repro.mimo.matrix import frobenius_error, hermitian
from repro.mimo.qr import qr_decompose_givens
from repro.mimo.rinv import invert_upper_triangular


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
        np.testing.assert_allclose(hermitian(q) @ q, np.eye(len(q)), atol=1e-8)
        np.testing.assert_allclose(np.tril(r, k=-1), 0, atol=1e-9)

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
        np.testing.assert_allclose(np.tril(r, k=-1), 0, atol=1e-6)
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


class TestCordicQrAsTheHardwareArray:
    """The 4x4 decomposition in 24-iteration CORDIC arithmetic: the numbers
    the systolic array of Figs. 6-8 leaves in its R and Q cells."""

    @staticmethod
    def _decompose(h):
        return qr_decompose_givens(h, cordic=Cordic(iterations=24))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reconstruction(self, seed):
        h = _random_matrix(4, seed)
        q, r = self._decompose(h)
        assert frobenius_error(q @ r, h) < 1e-5

    # The array is stated for any n (repro.hardware.qrd); the 4x4 paper
    # build and the sizes the latency model sweeps all decompose alike.
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_unitary_q_and_real_non_negative_r_diagonal(self, n):
        q, r = self._decompose(_random_matrix(n, 10))
        np.testing.assert_allclose(np.tril(r, k=-1), 0, atol=1e-6)
        np.testing.assert_allclose(hermitian(q) @ q, np.eye(len(q)), atol=1e-4)
        diag = np.diagonal(r)
        assert np.all(np.abs(diag.imag) < 1e-6)
        assert np.all(diag.real >= -1e-9)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_feeds_matrix_inversion(self, n):
        h = _random_matrix(n, 12)
        q, r = self._decompose(h)
        h_inverse = invert_upper_triangular(r) @ hermitian(q)
        assert frobenius_error(h_inverse @ h, np.eye(n)) < 1e-4

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_identity_matrix(self, n):
        q, r = self._decompose(np.eye(n, dtype=complex))
        assert frobenius_error(r, np.eye(n)) < 1e-5
        assert frobenius_error(q, np.eye(n)) < 1e-5
