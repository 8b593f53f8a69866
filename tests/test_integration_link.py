"""Integration tests: full transmit -> channel -> receive chains.

These tests exercise the complete system the way the benchmarks do, across
configurations and impairments.
"""

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel, FrequencySelectiveChannel
from repro.channel.impairments import ImpairmentSpec
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.receiver import TIMING_ADVANCE, MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.dsp.fixedpoint import FixedPointFormat
from repro.mimo.detector import MmseDetector
from repro.sim import SweepRunner, SweepSpec

from reference.channel import rayleigh_taps
from reference.core import transmit_serial


class TestEndToEndConfigurations:
    @pytest.mark.parametrize(
        "modulation,code_rate",
        [("bpsk", "1/2"), ("qpsk", "3/4"), ("16qam", "2/3"), ("64qam", "3/4")],
    )
    def test_modulation_rate_matrix_over_fading(self, link_burst, modulation, code_rate):
        config = TransceiverConfig(modulation=modulation, code_rate=code_rate)
        channel = MimoChannel(FlatRayleighChannel(rng=100), snr_db=40.0, rng=101)
        air, outcome = link_burst(config, channel, 150, rng=102)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_soft_decision_link_over_fading(self, link_burst):
        config = TransceiverConfig(soft_decision=True)
        channel = MimoChannel(FlatRayleighChannel(rng=103), snr_db=30.0, rng=104)
        air, outcome = link_burst(config, channel, 150, rng=105)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_multiple_bursts_independent_payloads(self, link_burst):
        config = TransceiverConfig()
        first, first_outcome = link_burst(config, MimoChannel(), 100, rng=1)
        second, second_outcome = link_burst(config, MimoChannel(), 100, rng=2)
        assert not np.array_equal(first.burst.info_bits[0], second.burst.info_bits[0])
        assert first_outcome.total_bit_errors(first.burst.info_bits) == 0
        assert second_outcome.total_bit_errors(second.burst.info_bits) == 0

    def test_cordic_channel_inversion_end_to_end(self, link_burst):
        config = TransceiverConfig(use_cordic_channel_inversion=True)
        channel = MimoChannel(FlatRayleighChannel(rng=106), snr_db=35.0, rng=107)
        air, outcome = link_burst(config, channel, 100, rng=108)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0


class TestImpairments:
    def test_combined_delay_and_fading(self, link_burst):
        config = TransceiverConfig()
        channel = MimoChannel(
            FrequencySelectiveChannel(taps=rayleigh_taps(4, 4, 3, rng=110)),
            snr_db=35.0,
            impairment=ImpairmentSpec(sample_delay=29),
            rng=111,
        )
        air, outcome = link_burst(config, channel, 150, rng=112)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_known_timing_bypasses_sync_over_a_delay(self, link_burst):
        channel = MimoChannel(impairment=ImpairmentSpec(sample_delay=40))
        air, outcome = link_burst(TransceiverConfig(), channel, 150, rng=2, known_timing=True)
        assert air.lts_start == air.burst.layout.sts_length + 40
        assert outcome.lts_start == air.lts_start
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_small_cfo_tolerated(self, link_burst):
        # A small residual CFO is absorbed by the per-symbol pilot phase
        # correction.
        config = TransceiverConfig()
        channel = MimoChannel(
            snr_db=35.0, impairment=ImpairmentSpec(cfo_normalized=2e-5), rng=113
        )
        air, outcome = link_burst(config, channel, 150, rng=114)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_snr_degradation_monotone(self):
        # BER must not improve as SNR drops (coarse sanity of the whole
        # chain), over one shared fading draw.
        spec = SweepSpec(
            snr_db=(25.0, 10.0, 3.0),
            n_info_bits=200,
            n_bursts=2,
            target_errors=None,
            fresh_fading_per_burst=False,
            base_seed=117,
        )
        ber = SweepRunner(spec, n_workers=1, cache=False).run().ber_curve()
        assert ber[25.0] <= ber[10.0] <= ber[3.0]
        assert ber[3.0] > 0


class TestEvmAndDetectors:
    def test_equalized_evm_small_at_high_snr(self):
        config = TransceiverConfig()
        transmitter = MimoTransmitter(config)
        receiver = MimoReceiver(config)
        burst = transmitter.transmit_random(200, rng=np.random.default_rng(200))
        _, frequency_symbols, _ = transmit_serial(transmitter, burst.info_bits)
        channel = MimoChannel(FlatRayleighChannel(rng=201), snr_db=35.0, rng=202)
        received = channel.transmit(burst.samples).samples
        result = receiver.receive(received, n_info_bits=200)
        data_bins = list(receiver.numerology.data_bins)
        for stream in range(4):
            reference = frequency_symbols[stream][:, data_bins]
            error = result.equalized[stream] - reference
            evm = np.sqrt(np.mean(np.abs(error) ** 2) / np.mean(np.abs(reference) ** 2))
            assert evm < 0.2

    def test_mmse_detector_usable_with_receiver_estimate(self):
        config = TransceiverConfig()
        transmitter = MimoTransmitter(config)
        receiver = MimoReceiver(config)
        burst = transmitter.transmit_random(100, rng=np.random.default_rng(203))
        channel = MimoChannel(FlatRayleighChannel(rng=204), snr_db=25.0, rng=205)
        received = channel.transmit(burst.samples).samples
        shared = receiver.demodulate_stack([received], 100, [160])
        detector = MmseDetector(shared.estimate, noise_variances=[1e-2])
        assert detector.singular_subcarriers == [None]
        # Equalise the first data symbol and confirm finite, bounded output.
        from repro.dsp.fft import fft

        start = 800 + 16 - TIMING_ADVANCE
        frequency = fft(received[:, start : start + 64])
        detected = detector.detect(frequency[None, :, None])
        assert detected.shape == (1, 4, 1, 64)
        assert np.all(np.isfinite(detected))


class TestJesdInterfaceIntegration:
    def test_burst_survives_converter_framing(self):
        # Quantise the transmit burst to the 16-bit converter words the
        # paper carries over JESD204 before the channel; the link must
        # still close.
        config = TransceiverConfig()
        transmitter = MimoTransmitter(config)
        receiver = MimoReceiver(config)
        burst = transmitter.transmit_random(150, rng=np.random.default_rng(300))
        quantised = FixedPointFormat(16, 14).quantize_complex(burst.samples)
        channel = MimoChannel(FlatRayleighChannel(rng=301), snr_db=35.0, rng=302)
        received = channel.transmit(quantised).samples
        result = receiver.receive(received, n_info_bits=150)
        assert result.total_bit_errors(burst.info_bits) == 0
