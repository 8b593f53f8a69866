"""Table 2 — transmitter resource utilisation by entity.

Paper rows (4 channels combined): convolutional encoder 32/136/0/0,
block interleaver 28,016/1,730/0/0, IFFT 3,854/9,152/8,896/32,
cyclic prefix 40/128/0/0 (ALUTs / registers / memory bits / DSP).
"""

from repro.hardware.estimator import TransmitterResourceModel

PAPER_TABLE2 = {
    "conv_encoder": (32, 136, 0, 0),
    "block_interleaver": (28_016, 1_730, 0, 0),
    "ifft": (3_854, 9_152, 8_896, 32),
    "cyclic_prefix": (40, 128, 0, 0),
}


def _generate_table2():
    model = TransmitterResourceModel()
    return {entity: model.entity_usage(entity) for entity in PAPER_TABLE2}


def test_table2_tx_by_entity(table_printer):
    usages = _generate_table2()

    rows = []
    for entity, paper in PAPER_TABLE2.items():
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
        "Table 2: TX Resource Utilization By Entity (measured vs paper)",
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

    for entity, (aluts, registers, memory_bits, dsp) in PAPER_TABLE2.items():
        measured = usages[entity]
        assert measured.aluts == aluts
        assert measured.registers == registers
        assert measured.memory_bits == memory_bits
        assert measured.dsp_blocks == dsp
