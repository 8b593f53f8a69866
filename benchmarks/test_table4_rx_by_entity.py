"""Table 4 — receiver resource utilisation by entity, plus the paper's
observation that channel estimation and equalisation (R matrix inverse,
MIMO decoder, QR decomposition, QR multiplier) account for 86 % of the
ALUTs and 77 % of the DSP multipliers.
"""

import pytest

from repro.hardware.estimator import ReceiverResourceModel

PAPER_TABLE4 = {
    "block_deinterleaver": (13_772, 1_772, 0, 0),
    "fft": (3_196, 9_650, 10_736, 64),
    "time_synchroniser": (3_557, 8_983, 0, 128),
    "viterbi_decoder": (5_028, 2_848, 18_460, 0),
    "r_matrix_inverse": (55_431, 31_711, 6_226, 56),
    "mimo_decoder": (1_036, 768, 0, 128),
    "qr_decomposition": (101_697, 109_447, 322, 248),
    "qr_multiplier": (1_368, 1_169, 0, 256),
}

PAPER_CHANNEL_ESTIMATION_ALUT_SHARE = 0.86
PAPER_CHANNEL_ESTIMATION_DSP_SHARE = 0.77


def _generate_table4():
    model = ReceiverResourceModel()
    usages = {entity: model.entity_usage(entity) for entity in PAPER_TABLE4}
    return usages, model.channel_estimation_share()


def test_table4_rx_by_entity(table_printer):
    usages, share = _generate_table4()

    rows = []
    for entity, paper in PAPER_TABLE4.items():
        measured = usages[entity]
        rows.append(
            (
                entity,
                measured.aluts,
                paper[0],
                measured.registers,
                paper[1],
                measured.memory_bits,
                paper[2],
                measured.dsp_blocks,
                paper[3],
            )
        )
    table_printer(
        "Table 4: RX Resource Utilization By Entity (measured vs paper)",
        [
            "entity",
            "ALUTs",
            "paper",
            "regs",
            "paper",
            "mem bits",
            "paper",
            "DSP",
            "paper",
        ],
        rows,
    )
    table_printer(
        "Channel estimation / equalisation share of the receiver",
        ["resource", "measured share", "paper share"],
        [
            ("aluts", f"{share['aluts']:.3f}", PAPER_CHANNEL_ESTIMATION_ALUT_SHARE),
            ("dsp_blocks", f"{share['dsp_blocks']:.3f}", PAPER_CHANNEL_ESTIMATION_DSP_SHARE),
        ],
    )

    for entity, (aluts, registers, memory_bits, dsp) in PAPER_TABLE4.items():
        measured = usages[entity]
        assert measured.aluts == aluts
        assert measured.registers == registers
        assert measured.memory_bits == memory_bits
        assert measured.dsp_blocks == dsp

    assert share["aluts"] == pytest.approx(PAPER_CHANNEL_ESTIMATION_ALUT_SHARE, abs=0.01)
    assert share["dsp_blocks"] == pytest.approx(PAPER_CHANNEL_ESTIMATION_DSP_SHARE, abs=0.01)
