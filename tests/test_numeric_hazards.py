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
  ``@`` match their scalar or per-matrix forms.

Each test below pins one fact the production code relies on, so a numpy
upgrade or a new host that breaks one fails here, loudly, rather than
silently moving the benchmark pins.
"""

import math

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
    # Stacked QR: rows (k, m) times one phase per matrix, against the
    # per-matrix row times a numpy complex scalar.
    a, b = complex_pair
    rows = a.reshape(-1, 8)
    phases = b[: rows.shape[0]]
    expected = np.array([row * phase for row, phase in zip(rows, phases)])
    np.testing.assert_array_equal(rows * phases[:, None], expected)


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
