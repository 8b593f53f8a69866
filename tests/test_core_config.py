"""Tests for repro.core.config."""

from dataclasses import fields

import numpy as np
import pytest

from repro.coding.convolutional import CodeRate
from repro.core.config import PAPER_CLOCK_HZ, OfdmNumerology, TransceiverConfig
from repro.dsp.fixedpoint import MULTIPLIER_FORMAT_18BIT
from repro.exceptions import ConfigurationError
from repro.modulation.constellations import Modulation


class TestOfdmNumerology64:
    def test_80211a_allocation(self):
        numerology = OfdmNumerology.for_fft_size(64)
        assert numerology.n_data_subcarriers == 48
        assert numerology.n_pilots == 4
        assert numerology.pilot_logical == (-21, -7, 7, 21)

    def test_pilot_bins_are_fft_indices(self):
        numerology = OfdmNumerology.for_fft_size(64)
        assert set(numerology.pilot_bins) == {64 - 21, 64 - 7, 7, 21}

    def test_dc_and_guards_unused(self):
        numerology = OfdmNumerology.for_fft_size(64)
        active = set(numerology.active_bins)
        assert 0 not in active  # DC null
        for guard in range(27, 38):
            assert guard not in active

    def test_active_mask(self):
        numerology = OfdmNumerology.for_fft_size(64)
        mask = numerology.active_mask()
        assert mask.sum() == 52
        assert not mask[0]

    def test_pilot_values_last_pilot_negative(self):
        numerology = OfdmNumerology.for_fft_size(64)
        assert numerology.pilot_values[-1] == -1
        assert all(v == 1 for v in numerology.pilot_values[:-1])


    def test_memoised_per_fft_size(self):
        first = OfdmNumerology.for_fft_size(64)
        assert OfdmNumerology.for_fft_size(64) is first
        assert TransceiverConfig().numerology is first
        fresh = OfdmNumerology.for_fft_size.__wrapped__(OfdmNumerology, 64)
        assert fresh is not first
        assert fresh == first


class TestOfdmNumerology512:
    def test_scaled_allocation(self):
        numerology = OfdmNumerology.for_fft_size(512)
        assert numerology.n_data_subcarriers == 384
        assert numerology.n_pilots == 32
        assert numerology.fft_size == 512

    def test_coded_bits_multiple_of_16_for_all_modulations(self):
        numerology = OfdmNumerology.for_fft_size(512)
        for modulation in Modulation:
            assert (numerology.n_data_subcarriers * modulation.bits_per_symbol) % 16 == 0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            OfdmNumerology.for_fft_size(48)
        with pytest.raises(ConfigurationError):
            OfdmNumerology.for_fft_size(96)


class TestTransceiverConfig:
    def test_paper_default(self):
        config = TransceiverConfig.paper_default()
        assert config.n_antennas == 4
        assert config.fft_size == 64
        assert config.modulation is Modulation.QAM16
        assert config.code_rate is CodeRate.RATE_1_2
        assert config.cyclic_prefix_length == 16
        assert config.samples_per_symbol == 80
        assert config.coded_bits_per_symbol == 192
        assert config.coded_bits_per_symbol * config.code_rate.fraction == 96

    def test_gigabit_configuration(self):
        config = TransceiverConfig.gigabit()
        assert config.modulation is Modulation.QAM64
        assert config.code_rate is CodeRate.RATE_3_4
        assert config.coded_bits_per_symbol == 288
        assert config.coded_bits_per_symbol * config.code_rate.fraction == 216

    def test_string_arguments_accepted(self):
        config = TransceiverConfig(modulation="64qam", code_rate="3/4")
        assert config.modulation is Modulation.QAM64
        assert config.code_rate is CodeRate.RATE_3_4

    def test_symbol_duration(self):
        assert TransceiverConfig().symbol_duration_s() == pytest.approx(800e-9)

    @pytest.mark.parametrize("fft_size", [64, 512])
    def test_burst_format_is_fixed(self, fft_size):
        # The paper's clock and quarter-length cyclic prefix are constants
        # of every configuration, not fields to vary.
        config = TransceiverConfig(fft_size=fft_size)
        assert config.clock_hz == 100e6
        assert config.cyclic_prefix_length == fft_size // 4
        names = {item.name for item in fields(TransceiverConfig)}
        assert not names & {"clock_hz", "cyclic_prefix_ratio", "scramble"}

    def test_every_config_runs_at_the_paper_clock(self):
        assert PAPER_CLOCK_HZ == 100e6
        assert TransceiverConfig().clock_hz == PAPER_CLOCK_HZ
        assert TransceiverConfig(fft_size=512, n_antennas=2).clock_hz == PAPER_CLOCK_HZ

    def test_512_point_configuration(self):
        config = TransceiverConfig(fft_size=512)
        assert config.cyclic_prefix_length == 128
        assert config.numerology.n_data_subcarriers == 384

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TransceiverConfig(n_antennas=0)
        with pytest.raises(ConfigurationError):
            TransceiverConfig(fft_size=100)
        # A power of two with no OFDM numerology is rejected at construction,
        # not on the first ``numerology`` access.
        with pytest.raises(ConfigurationError):
            TransceiverConfig(fft_size=32)
        with pytest.raises(ConfigurationError):
            TransceiverConfig(modulation="1024qam")
        with pytest.raises(ConfigurationError):
            TransceiverConfig(code_rate="5/6")

    def test_frozen(self):
        config = TransceiverConfig()
        with pytest.raises(AttributeError):
            config.fft_size = 128

    def test_air_group_is_everything_but_the_detector(self):
        zf = TransceiverConfig(n_antennas=2, soft_decision=True)
        mmse = TransceiverConfig(n_antennas=2, soft_decision=True, detector="mmse")
        assert zf.air_group() is zf
        assert mmse.air_group() == zf
        assert TransceiverConfig(n_antennas=2).air_group() != zf.air_group()
        fixed = TransceiverConfig(
            n_antennas=2,
            soft_decision=True,
            detector="mmse",
            rx_multiplier_format=MULTIPLIER_FORMAT_18BIT,
        )
        assert fixed.air_group() != zf
