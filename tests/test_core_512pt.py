"""End-to-end tests of the 512-point OFDM variant discussed in Section V."""

import numpy as np
import pytest

from repro.channel.fading import FrequencySelectiveChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.preamble import PreambleGenerator, burst_layout
from repro.core.transmitter import MimoTransmitter
from repro.dsp.fft import fft

from reference.channel import rayleigh_taps


@pytest.fixture
def config512() -> TransceiverConfig:
    return TransceiverConfig(fft_size=512)


class TestNumerologyAndPreamble512:
    def test_symbol_dimensions(self, config512):
        assert config512.cyclic_prefix_length == 128
        assert config512.samples_per_symbol == 640
        assert config512.coded_bits_per_symbol == 384 * 4

    def test_preamble_lengths_scale(self):
        layout = burst_layout(TransceiverConfig(fft_size=512), 500)
        assert layout.sts_length == 10 * 128
        assert layout.lts_slot_length == 256 + 2 * 512
        assert layout.preamble_length == 1280 + 4 * 1280

    def test_sts_remains_periodic(self):
        preamble = PreambleGenerator(512)
        sts = preamble.sts_time()
        np.testing.assert_allclose(sts[:128], sts[128:256], atol=1e-9)

    def test_transmit_spectrum_occupies_scaled_band(self, config512):
        transmitter = MimoTransmitter(config512)
        burst = transmitter.transmit_random(500, rng=np.random.default_rng(0))
        start = burst.layout.data_start + config512.cyclic_prefix_length
        frequency = fft(burst.samples[0, start : start + 512])
        active = transmitter.numerology.active_mask()
        assert active.sum() == 416
        np.testing.assert_allclose(frequency[~active], 0, atol=1e-9)


class TestLink512:
    def test_frequency_selective_loopback(self, link_burst, config512):
        fading = FrequencySelectiveChannel(taps=rayleigh_taps(4, 4, 8, rng=1))
        channel = MimoChannel(fading, snr_db=35.0, rng=2)
        air, outcome = link_burst(config512, channel, 500, rng=3)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_ideal_loopback_64qam(self, link_burst):
        config = TransceiverConfig(fft_size=512, modulation="64qam", code_rate="3/4")
        air, outcome = link_burst(config, MimoChannel(), 600, rng=4)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_gigabit_rate_sustained(self):
        config = TransceiverConfig(fft_size=512, modulation="64qam", code_rate="3/4")
        assert config.info_bit_rate_bps >= 1e9
