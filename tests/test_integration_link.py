"""Integration tests: full transmit -> channel -> receive chains.

These tests exercise the complete system the way the benchmarks do, across
configurations and impairments, and cross-check the functional and
structural models against each other.
"""

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel, FrequencySelectiveChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import MimoTransceiver, simulate_link
from repro.core.transmitter import MimoTransmitter
from repro.hardware.jesd204 import Jesd204Framer
from repro.mimo.detector import MmseDetector
from repro.utils.metrics import error_vector_magnitude


class TestEndToEndConfigurations:
    @pytest.mark.parametrize(
        "modulation,code_rate",
        [("bpsk", "1/2"), ("qpsk", "3/4"), ("16qam", "2/3"), ("64qam", "3/4")],
    )
    def test_modulation_rate_matrix_over_fading(self, modulation, code_rate):
        config = TransceiverConfig(modulation=modulation, code_rate=code_rate)
        channel = MimoChannel(FlatRayleighChannel(rng=100), snr_db=40.0, rng=101)
        stats = simulate_link(config, channel, n_info_bits=150, n_bursts=1, rng=102)
        assert stats["bit_error_rate"] == 0.0

    def test_soft_decision_link_over_fading(self):
        config = TransceiverConfig(soft_decision=True)
        channel = MimoChannel(FlatRayleighChannel(rng=103), snr_db=30.0, rng=104)
        stats = simulate_link(config, channel, n_info_bits=150, n_bursts=1, rng=105)
        assert stats["bit_error_rate"] == 0.0

    def test_multiple_bursts_independent_payloads(self):
        config = TransceiverConfig()
        transceiver = MimoTransceiver(config)
        first = transceiver.run_burst(100, rng=1)
        second = transceiver.run_burst(100, rng=2)
        assert not np.array_equal(first.burst.info_bits[0], second.burst.info_bits[0])
        assert first.bit_errors == 0 and second.bit_errors == 0

    def test_cordic_channel_inversion_end_to_end(self):
        config = TransceiverConfig(use_cordic_channel_inversion=True)
        channel = MimoChannel(FlatRayleighChannel(rng=106), snr_db=35.0, rng=107)
        stats = simulate_link(config, channel, n_info_bits=100, n_bursts=1, rng=108)
        assert stats["bit_error_rate"] == 0.0


class TestImpairments:
    def test_combined_delay_and_fading(self):
        config = TransceiverConfig()
        channel = MimoChannel(
            FrequencySelectiveChannel(n_taps=3, rng=110), snr_db=35.0, rng=111, sample_delay=29
        )
        stats = simulate_link(config, channel, n_info_bits=150, n_bursts=1, rng=112)
        assert stats["bit_error_rate"] == 0.0

    def test_small_cfo_tolerated(self):
        # A small residual CFO is absorbed by the per-symbol pilot phase
        # correction.
        config = TransceiverConfig()
        channel = MimoChannel(snr_db=35.0, rng=113, cfo_normalized=2e-5)
        stats = simulate_link(config, channel, n_info_bits=150, n_bursts=1, rng=114)
        assert stats["bit_error_rate"] == 0.0

    def test_snr_degradation_monotone(self):
        # BER must not improve as SNR drops (coarse sanity of the whole chain).
        config = TransceiverConfig()
        bers = []
        for snr in (25.0, 10.0, 3.0):
            channel = MimoChannel(FlatRayleighChannel(rng=115), snr_db=snr, rng=116)
            stats = simulate_link(config, channel, n_info_bits=200, n_bursts=2, rng=117)
            bers.append(stats["bit_error_rate"])
        assert bers[0] <= bers[1] <= bers[2]
        assert bers[2] > 0


class TestEvmAndDetectors:
    def test_equalized_evm_small_at_high_snr(self):
        config = TransceiverConfig()
        transmitter = MimoTransmitter(config)
        receiver = MimoReceiver(config)
        burst = transmitter.transmit_random(200, rng=np.random.default_rng(200))
        channel = MimoChannel(FlatRayleighChannel(rng=201), snr_db=35.0, rng=202)
        received = channel.transmit(burst.samples).samples
        result = receiver.receive(received, n_info_bits=200)
        data_bins = list(receiver.numerology.data_bins)
        for stream in range(4):
            reference = burst.frequency_symbols[stream][:, data_bins]
            evm = error_vector_magnitude(reference, result.streams[stream].equalized_symbols)
            assert evm < 0.2

    def test_mmse_detector_usable_with_receiver_estimate(self):
        config = TransceiverConfig()
        transmitter = MimoTransmitter(config)
        receiver = MimoReceiver(config)
        burst = transmitter.transmit_random(100, rng=np.random.default_rng(203))
        channel = MimoChannel(FlatRayleighChannel(rng=204), snr_db=25.0, rng=205)
        received = channel.transmit(burst.samples).samples
        (front,) = receiver.front_end_stack([received], 100, [160])
        estimate = front.channel_estimate
        detector = MmseDetector(estimate, noise_variance=1e-2)
        # Equalise the first data symbol and confirm finite, bounded output.
        from repro.dsp.fft import fft

        start = 800 + 16 - receiver.timing_advance
        frequency = fft(received[:, start : start + 64])
        detected = detector.detect(frequency)
        assert detected.shape == (4, 64)
        assert np.all(np.isfinite(detected))


class TestJesdInterfaceIntegration:
    def test_burst_survives_converter_framing(self):
        # Pass the transmit burst through the JESD204A framing model (16-bit
        # quantisation) before the channel; the link must still close.
        config = TransceiverConfig()
        transmitter = MimoTransmitter(config)
        receiver = MimoReceiver(config)
        burst = transmitter.transmit_random(150, rng=np.random.default_rng(300))
        framer = Jesd204Framer(n_lanes=4)
        framed = framer.pack(burst.samples)
        quantised = framer.unpack(framed)[:, : burst.samples.shape[1]]
        channel = MimoChannel(FlatRayleighChannel(rng=301), snr_db=35.0, rng=302)
        received = channel.transmit(quantised).samples
        result = receiver.receive(received, n_info_bits=150)
        assert result.total_bit_errors(burst.info_bits) == 0
