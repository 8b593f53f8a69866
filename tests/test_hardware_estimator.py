"""Tests for repro.hardware.estimator — the Tables 1-4 resource model."""

import pytest

from repro.core.config import TransceiverConfig
from repro.exceptions import ConfigurationError
from repro.hardware.estimator import (
    ReceiverResourceModel,
    STRATIX_IV_DEVICE,
    TransmitterResourceModel,
    qrd_cordic_cell_count,
)

CONFIG_512 = TransceiverConfig(fft_size=512)


def _models(config):
    return TransmitterResourceModel(config), ReceiverResourceModel(config)


class TestConfigValidation:
    def test_defaults_are_paper_configuration(self):
        for model in _models(None):
            config = model.config
            assert config == TransceiverConfig()
            assert config.n_antennas == 4
            assert config.fft_size == 64
            assert config.bits_per_subcarrier == 4
            assert config.coded_bits_per_symbol == 192

    def test_invalid_values_rejected(self):
        # The models take the link's TransceiverConfig, which rejects the
        # inconsistent sizes a model could otherwise be asked to cost.
        with pytest.raises(ConfigurationError):
            TransmitterResourceModel(TransceiverConfig(n_antennas=0))
        with pytest.raises(ConfigurationError):
            ReceiverResourceModel(TransceiverConfig(fft_size=100))
        with pytest.raises(ConfigurationError):
            ReceiverResourceModel(TransceiverConfig(fft_size=32))
        with pytest.raises(ConfigurationError):
            ReceiverResourceModel(TransceiverConfig(modulation="8psk"))


class TestQrdCellCount:
    def test_paper_array_composition(self):
        # 4 boundary cells x 2 CORDICs + 6 R internal x 3 + 16 Q internal x 3.
        assert qrd_cordic_cell_count(4) == 8 + 18 + 48

    def test_grows_quadratically(self):
        assert qrd_cordic_cell_count(8) > 3 * qrd_cordic_cell_count(4)


class TestTransmitterTable1:
    def test_totals_match_paper(self):
        totals = TransmitterResourceModel().system_totals()
        assert totals.aluts == 33_423
        assert totals.registers == 12_320
        assert totals.memory_bits == 265_408
        assert totals.dsp_blocks == 32

    def test_utilization_matches_paper_percentages(self):
        utilization = TransmitterResourceModel().utilization(STRATIX_IV_DEVICE)
        assert utilization["aluts"] == pytest.approx(7.8, abs=0.1)
        assert utilization["registers"] == pytest.approx(2.9, abs=0.1)
        assert utilization["memory_bits"] == pytest.approx(1.2, abs=0.1)
        assert utilization["dsp_blocks"] == pytest.approx(3.1, abs=0.1)


class TestTransmitterTable2:
    def test_entity_values_match_paper(self):
        model = TransmitterResourceModel()
        assert model.entity_usage("conv_encoder").aluts == 32
        assert model.entity_usage("block_interleaver").aluts == 28_016
        assert model.entity_usage("ifft").as_dict() == {
            "aluts": 3_854,
            "registers": 9_152,
            "memory_bits": 8_896,
            "dsp_blocks": 32,
        }
        assert model.entity_usage("cyclic_prefix").registers == 128

    def test_unknown_entity_rejected(self):
        with pytest.raises(KeyError):
            TransmitterResourceModel().entity_usage("mystery")

    def test_report_totals_equal_table1(self):
        report = TransmitterResourceModel().entity_report()
        assert report.total().aluts == 33_423


class TestTransmitterScaling:
    def test_512_point_ifft_and_interleaver_grow_8x(self):
        model = TransmitterResourceModel(CONFIG_512)
        reference = TransmitterResourceModel()
        assert model.entity_usage("ifft").aluts == 8 * reference.entity_usage("ifft").aluts
        assert (
            model.entity_usage("block_interleaver").aluts
            == 8 * reference.entity_usage("block_interleaver").aluts
        )

    def test_512_point_memory_grows_about_8x(self):
        ratio = (
            TransmitterResourceModel(CONFIG_512).system_totals().memory_bits
            / TransmitterResourceModel().system_totals().memory_bits
        )
        assert ratio == pytest.approx(8.0, rel=0.05)

    def test_single_channel_encoder_quarter_size(self):
        config = TransceiverConfig(n_antennas=1)
        assert TransmitterResourceModel(config).entity_usage("conv_encoder").aluts == 8

    def test_64qam_interleaver_grows_with_block_size(self):
        config = TransceiverConfig(modulation="64qam")
        model = TransmitterResourceModel(config)
        assert (
            model.entity_usage("block_interleaver").aluts
            == round(28_016 * 288 / 192)
        )


class TestReceiverTable3:
    def test_totals_match_paper(self):
        totals = ReceiverResourceModel().system_totals()
        assert totals.aluts == 183_957
        assert totals.registers == 173_335
        assert totals.memory_bits == 367_060
        assert totals.dsp_blocks == 896

    def test_utilization_matches_paper_percentages(self):
        utilization = ReceiverResourceModel().utilization(STRATIX_IV_DEVICE)
        assert utilization["aluts"] == pytest.approx(43.2, abs=0.2)
        assert utilization["registers"] == pytest.approx(40.7, abs=0.2)
        assert utilization["memory_bits"] == pytest.approx(1.72, abs=0.05)
        assert utilization["dsp_blocks"] == pytest.approx(87.5, abs=0.1)


class TestReceiverTable4:
    def test_entity_values_match_paper(self):
        model = ReceiverResourceModel()
        expected = {
            "block_deinterleaver": (13_772, 1_772, 0, 0),
            "fft": (3_196, 9_650, 10_736, 64),
            "time_synchroniser": (3_557, 8_983, 0, 128),
            "viterbi_decoder": (5_028, 2_848, 18_460, 0),
            "r_matrix_inverse": (55_431, 31_711, 6_226, 56),
            "mimo_decoder": (1_036, 768, 0, 128),
            "qr_decomposition": (101_697, 109_447, 322, 248),
            "qr_multiplier": (1_368, 1_169, 0, 256),
        }
        for entity, (aluts, registers, memory_bits, dsp) in expected.items():
            usage = model.entity_usage(entity)
            assert usage.aluts == aluts, entity
            assert usage.registers == registers, entity
            assert usage.memory_bits == memory_bits, entity
            assert usage.dsp_blocks == dsp, entity

    def test_channel_estimation_share_matches_paper_claim(self):
        share = ReceiverResourceModel().channel_estimation_share()
        # Paper: "account for 86% of the ALUTS and 77% of the DSP multipliers".
        assert share["aluts"] == pytest.approx(0.86, abs=0.01)
        assert share["dsp_blocks"] == pytest.approx(0.77, abs=0.01)

    def test_time_sync_dsp_count_is_128_multipliers(self):
        assert ReceiverResourceModel().entity_usage("time_synchroniser").dsp_blocks == 128

    def test_qr_multiplier_uses_256_multipliers(self):
        # 4x4 complex matrix multiply = 64 complex = 256 real multipliers.
        assert ReceiverResourceModel().entity_usage("qr_multiplier").dsp_blocks == 256


class TestReceiverScaling:
    def test_channel_estimation_constant_with_fft_size(self):
        model = ReceiverResourceModel(CONFIG_512)
        reference = ReceiverResourceModel()
        for entity in ReceiverResourceModel.CHANNEL_ESTIMATION_ENTITIES:
            assert model.entity_usage(entity) == reference.entity_usage(entity)

    def test_512_point_memory_grows_roughly_8x(self):
        ratio = (
            ReceiverResourceModel(CONFIG_512).system_totals().memory_bits
            / ReceiverResourceModel().system_totals().memory_bits
        )
        assert 7.0 <= ratio <= 8.5

    def test_2x2_system_needs_fewer_qrd_resources(self):
        model = ReceiverResourceModel(TransceiverConfig(n_antennas=2))
        assert (
            model.entity_usage("qr_decomposition").aluts
            < ReceiverResourceModel().entity_usage("qr_decomposition").aluts
        )

    def test_rx_fits_on_device_even_at_512(self):
        # The paper argues there is plenty of memory for the 512-point system.
        utilization = ReceiverResourceModel(CONFIG_512).utilization(STRATIX_IV_DEVICE)
        assert utilization["memory_bits"] < 100.0


#: System totals (ALUTs, registers, memory bits, DSP blocks) of the
#: transmitter and the receiver, and the receiver's channel-estimation ALUTs,
#: per transceiver configuration.  Only the 4x4 64-point row is in the paper;
#: the rest pin the model's scaling.
PINNED_TOTALS = [
    (
        {},
        (33_423, 12_320, 265_408, 32),
        (183_957, 173_335, 367_060, 896),
        159_532,
    ),
    (
        {"fft_size": 512},
        (256_513, 88_494, 2_123_264, 256),
        (302_733, 253_289, 2_761_424, 1_344),
        159_532,
    ),
    (
        {"n_antennas": 1},
        (8_356, 3_080, 66_352, 8),
        (19_260, 23_795, 90_539, 193),
        10_486,
    ),
    (
        {"n_antennas": 2},
        (16_711, 6_160, 132_704, 16),
        (54_561, 56_125, 181_895, 342),
        40_570,
    ),
    (
        {"modulation": "64qam"},
        (47_431, 13_185, 265_408, 32),
        (190_843, 174_221, 367_060, 896),
        159_532,
    ),
]


@pytest.mark.parametrize(
    "overrides, tx_totals, rx_totals, estimation_aluts",
    PINNED_TOTALS,
    ids=["4x4-64pt", "4x4-512pt", "1x1-64pt", "2x2-64pt", "4x4-64qam"],
)
def test_system_totals_pinned(overrides, tx_totals, rx_totals, estimation_aluts):
    tx, rx = _models(TransceiverConfig(**overrides))
    assert tuple(tx.system_totals().as_dict().values()) == tx_totals
    assert tuple(rx.system_totals().as_dict().values()) == rx_totals
    assert (
        sum(rx.entity_usage(e).aluts for e in ReceiverResourceModel.CHANNEL_ESTIMATION_ENTITIES)
        == estimation_aluts
    )
