"""Float hazards of batching scalar code with numpy, pinned one test each.

The stacked Givens QR and R-inverse (:mod:`repro.mimo`) must round every
element exactly like the per-matrix scalar code they replaced, or every
pinned BER result shifts.  Measured with numpy 2.4.6 on an AVX-512 x86-64
host, over unit-normal inputs:

* ``np.arctan2`` differs from ``math.atan2`` on ~7.5% of inputs, so the
  QR takes its angles from ``math.atan2`` elementwise;
* ``np.abs`` of a complex array differs from the scalar ``abs`` on ~35% of
  inputs, while ``np.hypot(re, im)`` matches, so the QR uses ``hypot``;
* a complex array multiply differs from the scalar complex multiply on
  ~30% of inputs (the SIMD loop appears to fuse multiply-adds), so the
  R-inverse spells its products out in real arithmetic — while the QR's
  phase rotation, a complex array multiply in the scalar code too, stays
  one;
* ``np.cos``, ``np.sin``, complex ``np.exp``, complex division and stacked
  ``@`` match their scalar or per-matrix forms;
* the stacked receive front end also relies on a stacked
  ``np.linalg.solve`` matching the per-matrix solve and on the
  burst-stacked detection einsum matching the per-burst one;
* the per-axis demapper (:mod:`repro.modulation.demapper`) relies on
  complex ``np.abs`` being sign-symmetric, independent of an element's
  array offset and stride, and within 4 eps of exact when squared — not
  on it being monotone, which it is not to the last ulp.

Each test below pins one fact the production code relies on, so a numpy
upgrade or a new host that breaks one fails here, loudly, rather than
silently moving the benchmark pins.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.mimo.qr import _angles
from repro.mimo.rinv import _multiply

N_SAMPLES = 20_000


@pytest.fixture
def complex_pair():
    rng = np.random.default_rng(2024)
    a = rng.normal(size=N_SAMPLES) + 1j * rng.normal(size=N_SAMPLES)
    b = rng.normal(size=N_SAMPLES) + 1j * rng.normal(size=N_SAMPLES)
    return a, b


def test_qr_angles_equal_math_atan2(complex_pair):
    a, b = complex_pair
    expected = [math.atan2(y, x) for y, x in zip(a.real.tolist(), b.real.tolist())]
    np.testing.assert_array_equal(_angles(a.real, b.real), expected)


def test_hypot_equals_scalar_complex_abs(complex_pair):
    a, _ = complex_pair
    np.testing.assert_array_equal(np.hypot(a.real, a.imag), [abs(value) for value in a])


def test_real_arithmetic_product_equals_scalar_multiply(complex_pair):
    a, b = complex_pair
    np.testing.assert_array_equal(_multiply(a, b), [x * y for x, y in zip(a, b)])


def test_broadcast_phase_multiply_equals_row_times_scalar(complex_pair):
    # Stacked QR: one row of every matrix, (m, k) with the matrix index
    # innermost, times one phase per matrix in place, against the
    # per-matrix row times a numpy complex scalar.
    a, b = complex_pair
    rows = a.reshape(8, -1).copy()
    phases = b[: rows.shape[1]]
    expected = np.array([row * phase for row, phase in zip(rows.T, phases)]).T
    rows *= phases
    np.testing.assert_array_equal(rows, expected)


def test_cos_and_sin_equal_math(complex_pair):
    angles = np.angle(complex_pair[0])
    np.testing.assert_array_equal(np.cos(angles), [math.cos(t) for t in angles.tolist()])
    np.testing.assert_array_equal(np.sin(angles), [math.sin(t) for t in angles.tolist()])


def test_complex_exp_array_equals_scalar(complex_pair):
    angles = np.angle(complex_pair[0])
    np.testing.assert_array_equal(
        np.exp(-1j * angles), [np.exp(-1j * t) for t in angles.tolist()]
    )


def test_complex_division_array_equals_scalar(complex_pair):
    a, b = complex_pair
    np.testing.assert_array_equal(a / b, [x / y for x, y in zip(a, b)])
    np.testing.assert_array_equal(1.0 / b, [1.0 / y for y in b])


def test_stacked_matmul_equals_per_matrix(complex_pair):
    a, b = complex_pair
    left = a[:4000].reshape(-1, 4, 4)
    right = b[:4000].reshape(-1, 4, 4)
    stacked = left @ np.conj(right).swapaxes(-1, -2)
    for k in range(left.shape[0]):
        np.testing.assert_array_equal(stacked[k], left[k] @ np.conj(right[k]).T)


def test_stacked_solve_equals_per_matrix(complex_pair):
    # Stacked MMSE weights: one solve over (items, subcarriers, n, n).
    a, b = complex_pair
    gram = a[:4000].reshape(-1, 5, 4, 4) + 4.0 * np.eye(4)
    rhs = b[:4000].reshape(-1, 5, 4, 4)
    stacked = np.linalg.solve(gram, rhs)
    for index in np.ndindex(gram.shape[:2]):
        np.testing.assert_array_equal(stacked[index], np.linalg.solve(gram[index], rhs[index]))


def test_burst_stacked_einsum_equals_per_burst(complex_pair):
    # Stacked detection: one einsum over (items, ...) against the per-burst one.
    a, b = complex_pair
    weights = a[:3 * 64 * 4].reshape(3, 64, 2, 2)
    received = b[:3 * 2 * 16 * 64].reshape(3, 2, 16, 64)
    stacked = np.einsum("mkij,mjnk->mink", weights, received)
    for item in range(3):
        np.testing.assert_array_equal(
            stacked[item], np.einsum("kij,jnk->ink", weights[item], received[item])
        )


@pytest.fixture
def axis_offsets():
    # Offsets the demapper feeds complex abs: spread over 20 decades, with
    # exact zeros and equal-magnitude components mixed in.
    rng = np.random.default_rng(47)
    re = rng.normal(size=4000) * 10.0 ** rng.integers(-10, 10, size=4000)
    im = rng.normal(size=4000) * 10.0 ** rng.integers(-10, 10, size=4000)
    re[::50] = 0.0
    im[1::50] = re[1::50]
    return re, im


def test_complex_abs_is_sign_symmetric(axis_offsets):
    re, im = axis_offsets
    expected = np.abs(re + 1j * im)
    for flipped in (-re + 1j * im, re - 1j * im, -re - 1j * im, np.abs(re) + 1j * np.abs(im)):
        np.testing.assert_array_equal(np.abs(flipped), expected)


def test_complex_abs_ignores_offset_and_stride(axis_offsets):
    # Any offset, length and positive stride takes one loop.  A negative
    # stride takes another (``np.hypot``'s rounding on ~35% of inputs); the
    # demapper never hands complex abs one.
    re, im = axis_offsets
    values = re + 1j * im
    expected = np.abs(values)
    for offset in range(1, 9):
        padded = np.concatenate([np.zeros(offset, dtype=complex), values])
        np.testing.assert_array_equal(np.abs(padded)[offset:], expected)
        np.testing.assert_array_equal(np.abs(padded[offset:]), expected)
    for stride in (2, 3, 7):
        spread = np.zeros(values.size * stride, dtype=complex)
        spread[::stride] = values
        np.testing.assert_array_equal(np.abs(spread[::stride]), expected)
    np.testing.assert_array_equal(np.abs(values.reshape(-1, 8).T).T.ravel(), expected)
    np.testing.assert_array_equal(
        np.abs(values.reshape(-1, 8).T.copy()).T.ravel(), expected
    )
    np.testing.assert_array_equal([np.abs(value) for value in values], expected)
    np.testing.assert_array_equal(
        np.concatenate([np.abs(values[i : i + 3]) for i in range(0, values.size, 3)]),
        expected,
    )


def test_squared_complex_abs_is_within_4_eps(axis_offsets):
    re, im = axis_offsets
    squared = np.square(np.abs(re + 1j * im))
    worst = Fraction(0)
    for x, y, value in zip(re.tolist(), im.tolist(), squared.tolist()):
        exact = Fraction(x) ** 2 + Fraction(y) ** 2
        if exact:
            worst = max(worst, abs(Fraction(value) - exact) / exact)
    assert worst <= 4 * Fraction(np.finfo(np.float64).eps)
