"""Ablation A2 — CORDIC iteration count / word length vs accuracy.

The hardware fixes each CORDIC at 20 pipeline cycles; the number of
micro-rotations and the datapath word length determine the accuracy of the
QR decomposition and therefore of the zero-forcing equalisation.  This
ablation sweeps both and reports the reconstruction error, justifying the
~16-iteration / 18-bit operating point the resource model assumes.
"""

import numpy as np

from repro.dsp.cordic import Cordic
from repro.dsp.fixedpoint import FixedPointFormat
from repro.mimo.matrix import frobenius_error
from repro.mimo.qr import qr_decompose_givens

ITERATION_SWEEP = [6, 8, 10, 12, 16, 20, 24]
WORD_LENGTH_SWEEP = [10, 12, 14, 16, 18, 22]


def _test_matrices(count=6, seed=600):
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / np.sqrt(2)
            for _ in range(count)
        ]
    )


def _mean_error(matrices, cordic):
    """Mean reconstruction error of one stacked CORDIC QR of ``matrices``."""
    q, r = qr_decompose_givens(matrices, cordic=cordic)
    return float(
        np.mean([frobenius_error(q[k] @ r[k], h) for k, h in enumerate(matrices)])
    )


def _iteration_errors():
    matrices = _test_matrices()
    return {
        iterations: _mean_error(matrices, Cordic(iterations=iterations))
        for iterations in ITERATION_SWEEP
    }


def test_ablation_cordic_iterations(table_printer):
    errors = _iteration_errors()
    table_printer(
        "Ablation A2: CORDIC micro-rotations vs QR reconstruction error",
        ["iterations", "mean relative error"],
        [(k, f"{v:.2e}") for k, v in errors.items()],
    )
    values = list(errors.values())
    # Accuracy improves monotonically (within noise) and reaches <1e-4 by 16
    # iterations — the accuracy the 20-cycle hardware CORDIC targets.
    assert values[0] > values[-1]
    assert errors[16] < 1e-4
    assert errors[6] > errors[16]


def _word_length_errors():
    matrices = _test_matrices(count=4, seed=601)
    errors = {}
    for word_length in WORD_LENGTH_SWEEP:
        fmt = FixedPointFormat(word_length=word_length, frac_bits=word_length - 4)
        errors[word_length] = _mean_error(matrices, Cordic(iterations=16, fixed_format=fmt))
    return errors


def test_ablation_cordic_word_length(table_printer):
    errors = _word_length_errors()
    table_printer(
        "Ablation A2: CORDIC datapath word length vs QR reconstruction error",
        ["word length (bits)", "mean relative error"],
        [(k, f"{v:.2e}") for k, v in errors.items()],
    )
    # The paper's 18-bit multipliers sit comfortably below 0.5 % error, while
    # 10-bit datapaths are an order of magnitude worse.
    assert errors[18] < 5e-3
    assert errors[10] > errors[18]
    assert errors[22] <= errors[12]
