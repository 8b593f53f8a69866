"""Tests for repro.hardware.clock."""

import pytest

from repro.hardware.clock import ClockDomain, PAPER_CLOCK_HZ


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
