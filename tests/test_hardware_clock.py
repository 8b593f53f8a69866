"""Tests for repro.hardware.clock."""

from repro.core.config import TransceiverConfig
from repro.hardware.clock import PAPER_CLOCK_HZ


def test_every_config_runs_at_the_paper_clock():
    assert PAPER_CLOCK_HZ == 100e6
    assert TransceiverConfig().clock_hz == PAPER_CLOCK_HZ
    assert TransceiverConfig(fft_size=512, n_antennas=2).clock_hz == PAPER_CLOCK_HZ
