"""Ablation A1 — the paper's QRD/back-substitution inversion pipeline vs a
direct floating-point inversion.

The paper inverts every subcarrier's channel matrix via QR decomposition
("Matrix inversion is a computationally intensive calculation and in order
to implement this efficiently, QR decomposition is performed").  This
ablation quantifies what that pipeline costs and buys in the reproduction:
accuracy of the Givens/CORDIC path against numpy's inverse, and the cycle
cost the hardware pays (440-cycle pipeline, one matrix accepted every 4
cycles) versus an idealised direct inversion with no such structure.
"""

import numpy as np
import pytest

from repro.dsp.cordic import Cordic
from repro.mimo.channel_estimation import invert_channel_stack
from repro.mimo.matrix import frobenius_error
from repro.rtl.systolic_qrd import SystolicQrdArray

N_SUBCARRIERS = 52


def _random_channels(seed=500):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N_SUBCARRIERS, 4, 4)) + 1j * rng.normal(size=(N_SUBCARRIERS, 4, 4))


def test_ablation_qrd_vs_direct_accuracy(table_printer):
    channels = _random_channels()
    qrd_inverses, singular = invert_channel_stack(channels)
    assert not singular.any()
    direct_inverses = np.array([np.linalg.inv(channels[k]) for k in range(N_SUBCARRIERS)])

    errors = [
        frobenius_error(qrd_inverses[k], direct_inverses[k]) for k in range(N_SUBCARRIERS)
    ]
    identity_errors = [
        frobenius_error(qrd_inverses[k] @ channels[k], np.eye(4)) for k in range(N_SUBCARRIERS)
    ]
    cordic_inverses, singular = invert_channel_stack(channels[:8], cordic=Cordic(16))
    assert not singular.any()
    cordic_errors = [
        frobenius_error(cordic_inverses[k] @ channels[k], np.eye(4)) for k in range(8)
    ]

    table_printer(
        "Ablation A1: QRD-based inversion accuracy (52 subcarriers, 4x4)",
        ["metric", "value"],
        [
            ("max |QRD - direct| (relative)", f"{max(errors):.2e}"),
            ("max |QRD_inv @ H - I|", f"{max(identity_errors):.2e}"),
            ("max |CORDIC_inv @ H - I| (16 iterations)", f"{max(cordic_errors):.2e}"),
        ],
    )
    assert max(errors) < 1e-10
    assert max(identity_errors) < 1e-10
    assert max(cordic_errors) < 1e-3


def test_ablation_qrd_cycle_cost(table_printer):
    array = SystolicQrdArray(n=4)
    channels = _random_channels(seed=501)

    def _hardware_cost():
        # Pipeline: one matrix enters every n cycles, plus one pipeline flush.
        fill = array.datapath_latency_cycles
        streaming = N_SUBCARRIERS * array.n
        return fill + streaming

    cycles = _hardware_cost()
    per_matrix_direct = 16  # an idealised fully-parallel direct inverter
    table_printer(
        "Ablation A1: cycle cost of the QRD pipeline (52 subcarriers)",
        ["approach", "cycles", "us @ 100 MHz"],
        [
            ("QRD systolic pipeline", cycles, f"{cycles * 0.01:.2f}"),
            (
                "idealised direct inversion (no pipeline reuse)",
                N_SUBCARRIERS * per_matrix_direct,
                f"{N_SUBCARRIERS * per_matrix_direct * 0.01:.2f}",
            ),
        ],
    )
    # The pipelined QRD amortises its 440-cycle latency across subcarriers:
    # the marginal cost per additional subcarrier is only n cycles.
    assert cycles == 440 + N_SUBCARRIERS * 4
    # Sanity: numerical QRD on all subcarriers matches direct inversion
    # (already asserted above); here we only check the structural claim that
    # throughput is one matrix per n cycles.
    assert array.throughput_matrices_per_cycle() == pytest.approx(1 / 4)
    assert channels.shape[0] == N_SUBCARRIERS
