"""Tests for repro.core.transmitter."""

import numpy as np
import pytest

from repro.coding.convolutional import ConvolutionalEncoder
from repro.coding.scrambler import Scrambler
from repro.core.config import TransceiverConfig
from repro.core.transmitter import MimoTransmitter
from repro.dsp.fft import fft
from repro.exceptions import ConfigurationError
from repro.modulation.demapper import SymbolDemapper

from reference.core import pilot_values, transmit_serial


@pytest.fixture
def transmitter(paper_config) -> MimoTransmitter:
    return MimoTransmitter(paper_config)


def _symbols_for(transmitter, n_info_bits):
    """OFDM symbols a burst of ``n_info_bits`` per stream occupies."""
    coded = transmitter.code.coded_length(n_info_bits)
    return -(-coded // transmitter.config.coded_bits_per_symbol)


class TestSizingHelpers:
    def test_coded_length_rate_half(self, transmitter):
        assert transmitter.code.coded_length(90) == 2 * (90 + 6)

    @pytest.mark.parametrize("n_info_bits, n_symbols", [(90, 1), (96, 2), (500, 6)])
    def test_burst_carries_whole_symbols(self, transmitter, n_info_bits, n_symbols):
        # 96 info bits -> 204 coded bits -> 2 symbols of 192 coded bits.
        burst = transmitter.transmit_random(n_info_bits, rng=np.random.default_rng(0))
        assert burst.layout.n_symbols == n_symbols


class TestBurstStructure:
    def test_output_shape(self, transmitter):
        rng = np.random.default_rng(0)
        burst = transmitter.transmit_random(200, rng=rng)
        n_symbols = _symbols_for(transmitter, 200)
        # preamble + data symbols + one-CP idle tail
        expected = 800 + n_symbols * 80 + 16
        assert burst.samples.shape == (4, expected)
        assert burst.layout.n_symbols == n_symbols
        assert burst.payload_bits == 4 * 200

    def test_preamble_region_matches_generator(self, transmitter):
        burst = transmitter.transmit_random(100, rng=np.random.default_rng(1))
        expected_preamble = transmitter.preamble.mimo_preamble(4)
        np.testing.assert_allclose(burst.samples[:, :800], expected_preamble)

    def test_cyclic_prefix_present_on_every_data_symbol(self, transmitter):
        burst = transmitter.transmit_random(150, rng=np.random.default_rng(2))
        sps = 80
        for n in range(burst.layout.n_symbols):
            start = 800 + n * sps
            symbol = burst.samples[0, start : start + sps]
            np.testing.assert_allclose(symbol[:16], symbol[64:80], atol=1e-12)

    def test_streams_carry_independent_data(self, transmitter):
        rng = np.random.default_rng(3)
        burst = transmitter.transmit_random(200, rng=rng)
        assert not np.allclose(burst.samples[0, 800:], burst.samples[1, 800:])

    def test_duration_at_100mhz(self, transmitter):
        burst = transmitter.transmit_random(96, rng=np.random.default_rng(4))
        assert burst.duration_s == pytest.approx(burst.n_samples * 10e-9)

    def test_stream_count_validation(self, transmitter):
        with pytest.raises(ConfigurationError):
            transmitter.transmit([np.array([1, 0])] * 3)

    def test_empty_stream_rejected(self, transmitter):
        with pytest.raises(ConfigurationError):
            transmitter.transmit([np.array([], dtype=np.uint8)] * 4)


class TestPayloadRule:
    @pytest.mark.parametrize("n_info_bits", [7, 48])
    def test_one_draw_per_stream_in_stream_order(self, transmitter, n_info_bits):
        # One (n_streams, n) draw is another bit stream when n % 4 != 0.
        payload = transmitter.random_payload(n_info_bits, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        expected = [rng.integers(0, 2, size=n_info_bits, dtype=np.uint8) for _ in range(4)]
        np.testing.assert_array_equal(payload, expected)

    def test_transmit_random_sends_the_payload_rule(self, transmitter):
        burst = transmitter.transmit_random(7, rng=np.random.default_rng(4))
        payload = transmitter.random_payload(7, np.random.default_rng(4))
        np.testing.assert_array_equal(np.array(burst.info_bits), payload)

    def test_a_stack_returns_one_burst_per_row(self, transmitter):
        stack = np.random.default_rng(5).integers(0, 2, size=(3, 4, 40), dtype=np.uint8)
        bursts = transmitter.transmit(stack)
        assert [burst.payload_bits for burst in bursts] == [4 * 40] * 3
        for burst, bits in zip(bursts, stack):
            np.testing.assert_array_equal(np.array(burst.info_bits), bits)


class TestBurstStructureAcrossFftSizes:
    """The burst layout scales with the numerology: every data symbol is a
    cyclic prefix of fft_size / 4 samples followed by fft_size samples that
    occupy only the active subcarriers."""

    @pytest.fixture(params=[64, 128, 256, 512, 1024])
    def scaled(self, request):
        transmitter = MimoTransmitter(TransceiverConfig(fft_size=request.param))
        burst = transmitter.transmit_random(400, rng=np.random.default_rng(request.param))
        return transmitter, burst

    def test_cyclic_prefix_copies_every_symbol_tail(self, scaled):
        transmitter, burst = scaled
        config = transmitter.config
        cp, sps = config.cyclic_prefix_length, config.samples_per_symbol
        assert cp == config.fft_size // 4
        start = burst.layout.data_start
        data = burst.samples[:, start : start + burst.layout.n_symbols * sps]
        symbols = data.reshape(4, burst.layout.n_symbols, sps)
        np.testing.assert_allclose(symbols[..., :cp], symbols[..., -cp:], atol=1e-12)

    def test_data_symbols_only_occupy_active_subcarriers(self, scaled):
        transmitter, burst = scaled
        config = transmitter.config
        start = burst.layout.data_start + config.cyclic_prefix_length
        frequency = fft(burst.samples[:, start : start + config.fft_size])
        active = transmitter.numerology.active_mask()
        np.testing.assert_allclose(frequency[:, ~active], 0, atol=1e-9)
        assert np.all(np.abs(frequency[:, active]) > 1e-6)


class TestSpectralStructure:
    def test_data_symbols_only_occupy_active_subcarriers(self, transmitter):
        burst = transmitter.transmit_random(96, rng=np.random.default_rng(9))
        start = 800 + 16  # first data symbol, after its cyclic prefix
        frequency = fft(burst.samples[0, start : start + 64])
        active = transmitter.numerology.active_mask()
        np.testing.assert_allclose(frequency[~active], 0, atol=1e-9)
        assert np.all(np.abs(frequency[active]) > 1e-6)

    def test_pilot_subcarriers_carry_expected_values(self, transmitter):
        burst = transmitter.transmit_random(96, rng=np.random.default_rng(10))
        start = 800 + 16
        frequency = fft(burst.samples[2, start : start + 64])
        pilots = frequency[list(transmitter.numerology.pilot_bins)]
        np.testing.assert_allclose(pilots, pilot_values(transmitter.pilots, 0), atol=1e-9)

    def test_data_subcarriers_are_constellation_points(self, transmitter):
        burst = transmitter.transmit_random(96, rng=np.random.default_rng(11))
        start = 800 + 16
        frequency = fft(burst.samples[1, start : start + 64])
        data = frequency[list(transmitter.numerology.data_bins)]
        demapper = SymbolDemapper(transmitter.config.modulation)
        points = demapper.constellation.points
        distances = np.min(np.abs(data[:, None] - points[None, :]), axis=1)
        np.testing.assert_allclose(distances, 0, atol=1e-9)

    def test_frequency_symbols_diagnostic_matches_waveform(self, transmitter):
        burst = transmitter.transmit_random(96, rng=np.random.default_rng(12))
        start = 800 + 16
        frequency = fft(burst.samples[3, start : start + 64])
        _, frequency_symbols, _ = transmit_serial(transmitter, burst.info_bits)
        np.testing.assert_allclose(frequency, frequency_symbols[3, 0], atol=1e-9)


class TestScramblingAndCoding:
    def test_payload_is_scrambled_before_encoding(self, transmitter):
        bits = np.zeros(96, dtype=np.uint8)
        burst = transmitter.transmit([bits] * 4)
        samples, _, coded_bits = transmit_serial(transmitter, burst.info_bits)
        np.testing.assert_array_equal(burst.samples, samples)
        encoder = ConvolutionalEncoder(transmitter.code)
        scrambled = encoder.encode(Scrambler().process(bits))
        for coded in coded_bits:
            np.testing.assert_array_equal(coded[: scrambled.size], scrambled)
        assert not np.array_equal(scrambled, encoder.encode(bits))

    def test_coded_bits_length_is_whole_symbols(self, transmitter):
        burst = transmitter.transmit_random(123, rng=np.random.default_rng(13))
        _, _, coded_bits = transmit_serial(transmitter, burst.info_bits)
        for coded in coded_bits:
            assert coded.size == burst.layout.n_symbols * 192

    def test_gigabit_config_uses_64qam(self, gigabit_config):
        transmitter = MimoTransmitter(gigabit_config)
        burst = transmitter.transmit_random(216, rng=np.random.default_rng(14))
        assert transmitter.config.coded_bits_per_symbol == 288
        assert burst.layout.n_symbols == _symbols_for(transmitter, 216)


class TestAirInterfaceDtype:
    @pytest.mark.parametrize("n_symbols", [0, 3])
    def test_modulate_block_is_complex128(self, transmitter, n_symbols):
        # The empty block must not fall back to another dtype either.
        config = transmitter.config
        block = np.ones((config.n_streams, n_symbols, config.fft_size), dtype=np.complex128)
        samples = transmitter._modulate_block(block)
        assert samples.dtype == np.complex128
        assert samples.shape == (config.n_streams, n_symbols * config.samples_per_symbol)

    def test_transmitted_burst_is_complex128(self, transmitter):
        bits = [np.ones(96, dtype=np.uint8)] * transmitter.config.n_streams
        assert transmitter.transmit(bits).samples.dtype == np.complex128
