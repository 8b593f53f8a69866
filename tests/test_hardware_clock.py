"""Tests for repro.hardware.clock."""

import pytest

from repro.hardware.clock import ClockDomain, PAPER_CLOCK_HZ, ThroughputModel


class TestClockDomain:
    def test_paper_clock(self):
        clock = ClockDomain()
        assert clock.frequency_hz == PAPER_CLOCK_HZ
        assert clock.period_s == pytest.approx(10e-9)

    def test_cycle_time_conversion(self):
        clock = ClockDomain(100e6)
        assert clock.cycles_to_seconds(440) == pytest.approx(4.4e-6)
        assert clock.seconds_to_cycles(1e-6) == 100

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            ClockDomain(0)

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            ClockDomain().cycles_to_seconds(-1)


class TestThroughputModel:
    def test_paper_synthesised_configuration_is_480mbps(self):
        # 16-QAM, rate 1/2: 4 streams x 48 carriers x 4 bits x 1/2 / 800 ns.
        model = ThroughputModel(bits_per_subcarrier=4, code_rate=0.5)
        assert model.info_bit_rate_bps == pytest.approx(480e6)

    def test_gigabit_configuration(self):
        # 64-QAM, rate 3/4 reaches 1.08 Gbps -- the paper's headline.
        model = ThroughputModel(bits_per_subcarrier=6, code_rate=0.75)
        assert model.info_bit_rate_bps == pytest.approx(1.08e9)
        assert model.meets_gigabit_target()

    def test_uncoded_rate(self):
        model = ThroughputModel(bits_per_subcarrier=6, code_rate=1.0)
        assert model.coded_bit_rate_bps == model.info_bit_rate_bps

    def test_symbol_duration(self):
        model = ThroughputModel()
        assert model.symbol_duration_s == pytest.approx(800e-9)
        assert model.samples_per_symbol == 80

    def test_preamble_overhead_reduces_rate(self):
        model = ThroughputModel(bits_per_subcarrier=6, code_rate=0.75)
        with_preamble = model.info_bit_rate_with_preamble_bps(
            symbols_per_burst=100, preamble_samples=800
        )
        assert with_preamble < model.info_bit_rate_bps
        assert with_preamble == pytest.approx(
            model.info_bit_rate_bps * (100 * 80) / (100 * 80 + 800)
        )

    def test_512_point_keeps_gigabit(self):
        model = ThroughputModel(
            bits_per_subcarrier=6,
            code_rate=0.75,
            fft_size=512,
            cyclic_prefix_length=128,
            n_data_subcarriers=384,
        )
        assert model.info_bit_rate_bps >= 1e9

    def test_validation(self):
        with pytest.raises(ValueError):
            ThroughputModel(n_streams=0)
        with pytest.raises(ValueError):
            ThroughputModel(n_data_subcarriers=0)
        with pytest.raises(ValueError):
            ThroughputModel(code_rate=0.0)
        with pytest.raises(ValueError):
            ThroughputModel(cyclic_prefix_length=-1)
        with pytest.raises(ValueError):
            ThroughputModel(n_data_subcarriers=100, fft_size=64)
