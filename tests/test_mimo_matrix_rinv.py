"""Tests for repro.mimo.matrix and repro.mimo.rinv."""

import numpy as np
import pytest

from repro.exceptions import ChannelEstimationError
from repro.mimo.matrix import frobenius_error, hermitian
from repro.mimo.rinv import invert_upper_triangular

from reference.mimo import r_inverse_4x4_paper_equations


def _random_upper_triangular(n, rng, min_diag=0.5):
    r = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    for i in range(n):
        r[i, i] = min_diag + abs(r[i, i])
    return r


class TestMatrixHelpers:
    def test_hermitian(self):
        m = np.array([[1 + 1j, 2], [3j, 4 - 1j]])
        np.testing.assert_allclose(hermitian(m), np.conj(m).T)

    def test_frobenius_error(self):
        a = np.eye(3)
        b = np.eye(3)
        assert frobenius_error(a, b) == 0.0
        assert frobenius_error(2 * a, a) == pytest.approx(1.0)

    def test_frobenius_error_shape_check(self):
        with pytest.raises(ValueError):
            frobenius_error(np.eye(2), np.eye(3))


class TestUpperTriangularInverse:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_inverse_correct(self, n):
        rng = np.random.default_rng(n)
        r = _random_upper_triangular(n, rng)
        inv = invert_upper_triangular(r)
        np.testing.assert_allclose(r @ inv, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(np.tril(inv, k=-1), 0, atol=1e-10)

    def test_diagonal_matrix(self):
        r = np.diag([1.0, 2.0, 4.0]).astype(complex)
        np.testing.assert_allclose(
            invert_upper_triangular(r), np.diag([1.0, 0.5, 0.25]), atol=1e-12
        )

    def test_singular_matrix_raises(self):
        r = np.triu(np.ones((4, 4), dtype=complex))
        r[2, 2] = 0.0
        with pytest.raises(ChannelEstimationError):
            invert_upper_triangular(r)

    def test_non_triangular_rejected(self):
        with pytest.raises(ValueError):
            invert_upper_triangular(np.ones((3, 3), dtype=complex))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            invert_upper_triangular(np.ones((2, 3), dtype=complex))


class TestPaperEquations:
    def test_matches_general_back_substitution(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r = _random_upper_triangular(4, rng)
            np.testing.assert_allclose(
                r_inverse_4x4_paper_equations(r), invert_upper_triangular(r), atol=1e-12
            )

    def test_produces_actual_inverse(self):
        rng = np.random.default_rng(8)
        r = _random_upper_triangular(4, rng)
        np.testing.assert_allclose(
            r @ r_inverse_4x4_paper_equations(r), np.eye(4), atol=1e-10
        )

    def test_requires_4x4(self):
        with pytest.raises(ValueError):
            r_inverse_4x4_paper_equations(np.eye(3, dtype=complex))

    def test_singular_rejected(self):
        r = np.triu(np.ones((4, 4), dtype=complex))
        r[0, 0] = 0.0
        with pytest.raises(ChannelEstimationError):
            r_inverse_4x4_paper_equations(r)
