"""Tests for repro.core.receiver."""

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel, FrequencySelectiveChannel
from repro.channel.impairments import ImpairmentSpec
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.preamble import PreambleGenerator
from repro.core.receiver import TIMING_ADVANCE, MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.dsp.fixedpoint import (
    FixedPointFormat,
    MULTIPLIER_FORMAT_18BIT,
    SAMPLE_FORMAT_16BIT,
)
from repro.exceptions import ConfigurationError, DecodingError, SynchronizationError
from repro.stream import StreamingReceiver


def _loopback(random_burst, config, channel=None, n_info_bits=200, seed=0, **receive_kwargs):
    """Transmit a random burst, push it through a channel, and receive it."""
    transmitter = MimoTransmitter(config)
    receiver = MimoReceiver(config)
    burst = random_burst(transmitter, n_info_bits, np.random.default_rng(seed))
    samples = burst.samples
    if channel is not None:
        samples = channel.transmit(samples).samples
    result = receiver.receive(samples, n_info_bits=n_info_bits, **receive_kwargs)
    return burst, result


class TestIdealLoopback:
    def test_all_streams_decoded_without_errors(self, paper_config, random_burst):
        burst, result = _loopback(random_burst, paper_config)
        assert result.total_bit_errors(burst.info_bits) == 0
        for decoded, bits in zip(result.decoded_bits, burst.info_bits):
            np.testing.assert_array_equal(decoded, bits)

    def test_lts_found_at_expected_position(self, paper_config, random_burst):
        _, result = _loopback(random_burst, paper_config)
        assert result.lts_start == 160

    def test_channel_estimate_close_to_identity(self, paper_config, random_burst):
        # The receiver advances its FFT windows into the cyclic prefix by a
        # known amount, so the estimate is the true channel times the
        # corresponding per-subcarrier phase ramp.
        _, result = _loopback(random_burst, paper_config)
        estimate = result.channel_estimate
        active = np.nonzero(estimate.active_mask)[0]
        for k in active[:5]:
            ramp = np.exp(-2j * np.pi * k * TIMING_ADVANCE / 64)
            np.testing.assert_allclose(estimate.matrices[k], ramp * np.eye(4), atol=1e-6)

    def test_timing_advance_lies_within_the_shortest_cyclic_prefix(self):
        shortest = TransceiverConfig(fft_size=64)
        assert 0 < TIMING_ADVANCE <= shortest.cyclic_prefix_length
        assert TIMING_ADVANCE <= PreambleGenerator.for_fft_size(64).lts_cp_length

    def test_equalized_symbols_land_on_constellation(self, paper_config, random_burst):
        _, result = _loopback(random_burst, paper_config)
        symbols = result.equalized[0].ravel()
        # 16-QAM points have max magnitude 3*sqrt(2)/sqrt(10) ~ 1.342.
        assert np.max(np.abs(symbols)) < 1.5

    def test_record_fields_populated(self, paper_config, random_burst):
        burst, result = _loopback(random_burst, paper_config)
        assert result.equalized.shape[:2] == (4, burst.layout.n_symbols)
        assert result.decoded_bits.shape == (4, burst.info_bits[0].size)
        # CFO correction is off in the paper build; an ideal link leaves
        # no common pilot phase to speak of.
        assert result.estimated_cfo == 0.0
        assert abs(result.mean_pilot_phase) < 1e-6


class TestModulationAndRateSweep:
    @pytest.mark.parametrize("modulation", ["bpsk", "qpsk", "16qam", "64qam"])
    def test_all_modulations_error_free_on_ideal_channel(self, modulation, random_burst):
        config = TransceiverConfig(modulation=modulation)
        burst, result = _loopback(random_burst, config, n_info_bits=150, seed=1)
        assert result.total_bit_errors(burst.info_bits) == 0

    @pytest.mark.parametrize("rate", ["1/2", "2/3", "3/4"])
    def test_all_code_rates_error_free_on_ideal_channel(self, rate, random_burst):
        config = TransceiverConfig(code_rate=rate)
        burst, result = _loopback(random_burst, config, n_info_bits=150, seed=2)
        assert result.total_bit_errors(burst.info_bits) == 0

    def test_soft_decision_mode(self, random_burst):
        config = TransceiverConfig(soft_decision=True)
        burst, result = _loopback(random_burst, config, n_info_bits=150, seed=3)
        assert result.total_bit_errors(burst.info_bits) == 0


class TestFadingLoopback:
    def test_flat_rayleigh_high_snr_error_free(self, paper_config, random_burst):
        channel = MimoChannel(FlatRayleighChannel(rng=25), snr_db=35.0, rng=22)
        burst, result = _loopback(random_burst, paper_config, channel=channel, seed=5)
        assert result.total_bit_errors(burst.info_bits) == 0

    def test_badly_conditioned_channel_survives_with_coding_at_high_snr(
        self, paper_config, random_burst
    ):
        # Seed 21 draws a channel with condition number ~48; zero forcing
        # amplifies the noise heavily, but at 45 dB the coded link still
        # closes -- illustrating the ZF noise-enhancement cost.
        channel = MimoChannel(FlatRayleighChannel(rng=21), snr_db=45.0, rng=22)
        burst, result = _loopback(random_burst, paper_config, channel=channel, seed=5)
        assert result.total_bit_errors(burst.info_bits) == 0

    def test_frequency_selective_high_snr_error_free(self, paper_config, random_burst):
        channel = MimoChannel(
            FrequencySelectiveChannel(rng=23), snr_db=35.0, rng=24
        )
        burst, result = _loopback(random_burst, paper_config, channel=channel, seed=6)
        assert result.total_bit_errors(burst.info_bits) == 0

    def test_channel_estimate_matches_true_flat_channel(self, paper_config, random_burst):
        fading = FlatRayleighChannel(rng=25)
        channel = MimoChannel(fading)
        burst, result = _loopback(random_burst, paper_config, channel=channel, seed=7)
        estimate = result.channel_estimate
        active = np.nonzero(estimate.active_mask)[0]
        for k in active[::10]:
            ramp = np.exp(-2j * np.pi * k * TIMING_ADVANCE / 64)
            np.testing.assert_allclose(estimate.matrices[k], ramp * fading.matrix, atol=1e-6)
        assert result.total_bit_errors(burst.info_bits) == 0

    def test_sample_delay_is_absorbed_by_time_sync(self, paper_config, random_burst):
        channel = MimoChannel(
            FlatRayleighChannel(rng=26),
            snr_db=35.0,
            impairment=ImpairmentSpec(sample_delay=53),
            rng=27,
        )
        burst, result = _loopback(random_burst, paper_config, channel=channel, seed=8)
        assert result.lts_start == 160 + 53
        assert result.total_bit_errors(burst.info_bits) == 0

    def test_low_snr_produces_errors(self, paper_config, random_burst):
        channel = MimoChannel(FlatRayleighChannel(rng=28), snr_db=3.0, rng=29)
        burst, result = _loopback(random_burst, paper_config, channel=channel, seed=9)
        assert result.total_bit_errors(burst.info_bits) > 0


class TestSynchronizationAcrossNumerologies:
    """The front end locks on the LTS start of every numerology and antenna
    count, wherever the burst begins in the stream, and the window it
    locks on holds antenna 0's long training section sample for sample."""

    @pytest.mark.parametrize("delay", [0, 29])
    @pytest.mark.parametrize("n_antennas", [1, 2, 4])
    @pytest.mark.parametrize("fft_size", [64, 128, 256, 512])
    def test_synchronize_finds_the_lts_start(self, fft_size, n_antennas, delay, random_burst):
        config = TransceiverConfig(fft_size=fft_size, n_antennas=n_antennas)
        rng = np.random.default_rng(fft_size + n_antennas)
        burst = random_burst(MimoTransmitter(config), 100, rng)
        samples = np.pad(burst.samples, ((0, 0), (delay, 0)))
        receiver = MimoReceiver(config)
        lts_start = receiver.synchronize(samples)
        assert lts_start == burst.layout.sts_length + delay
        lts = receiver.preamble.lts_time()
        np.testing.assert_array_equal(samples[0, lts_start : lts_start + lts.size], lts)


class TestKnownTimingAndValidation:
    def test_known_lts_start_bypasses_sync(self, paper_config, random_burst):
        transmitter = MimoTransmitter(paper_config)
        receiver = MimoReceiver(paper_config)
        burst = random_burst(transmitter, 120, np.random.default_rng(10))
        result = receiver.receive(burst.samples, n_info_bits=120, lts_start=160)
        assert result.total_bit_errors(burst.info_bits) == 0

    def test_wrong_antenna_count_rejected(self, paper_config):
        receiver = MimoReceiver(paper_config)
        with pytest.raises(ConfigurationError):
            receiver.receive(np.zeros((2, 4000), dtype=complex), n_info_bits=100)

    def test_non_positive_info_bits_rejected(self, paper_config):
        receiver = MimoReceiver(paper_config)
        with pytest.raises(ConfigurationError):
            receiver.receive(np.zeros((4, 4000), dtype=complex), n_info_bits=0)

    def test_burst_too_short_raises(self, paper_config, random_burst):
        transmitter = MimoTransmitter(paper_config)
        receiver = MimoReceiver(paper_config)
        burst = random_burst(transmitter, 120, np.random.default_rng(11))
        truncated = burst.samples[:, :900]
        with pytest.raises(DecodingError):
            receiver.receive(truncated, n_info_bits=120, lts_start=160)

    def test_window_before_burst_start_raises(self, paper_config, random_burst):
        # Regression: a too-small LTS hypothesis used to be clamped with
        # max(start, 0), silently decoding garbage from a misaligned window;
        # it must raise DecodingError like every other decode failure.
        transmitter = MimoTransmitter(paper_config)
        receiver = MimoReceiver(paper_config)
        burst = random_burst(transmitter, 120, np.random.default_rng(11))
        with pytest.raises(DecodingError):
            receiver.receive(burst.samples, n_info_bits=120, lts_start=-200)

    def test_data_past_end_gets_its_slot(self, paper_config, random_burst):
        # The whole LTS fits but the data runs past the received samples:
        # the burst's slot holds the DecodingError, not a raw IndexError
        # from the gather.
        transmitter = MimoTransmitter(paper_config)
        receiver = MimoReceiver(paper_config)
        burst = random_burst(transmitter, 120, np.random.default_rng(11))
        truncated = burst.samples[:, : burst.layout.data_start + 1]
        (outcome,) = receiver.detect_stack(receiver.demodulate_stack([truncated], 120, [160]))
        assert isinstance(outcome, DecodingError)
        assert "too short for the requested number of OFDM symbols" in str(outcome)

    def test_lts_window_before_burst_start_gets_its_slot(self, paper_config, random_burst):
        transmitter = MimoTransmitter(paper_config)
        receiver = MimoReceiver(paper_config)
        burst = random_burst(transmitter, 120, np.random.default_rng(11))
        (outcome,) = receiver.detect_stack(receiver.demodulate_stack([burst.samples], 120, [-64]))
        assert isinstance(outcome, DecodingError)
        assert "lts_start too small" in str(outcome)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0)])
    def test_non_finite_samples_raise_synchronization_error(self, paper_config, value):
        # Regression: every antenna's peak compared False against the
        # initial best, leaving a bare `assert` (or, under -O, int(None)).
        receiver = MimoReceiver(paper_config)
        samples = np.full((4, 1200), value, dtype=np.complex128)
        with pytest.raises(SynchronizationError):
            receiver.receive(samples, n_info_bits=120)
        with pytest.raises(SynchronizationError):
            receiver.synchronize(samples)

    def test_one_finite_antenna_still_synchronizes(self, paper_config, random_burst):
        transmitter = MimoTransmitter(paper_config)
        receiver = MimoReceiver(paper_config)
        burst = random_burst(transmitter, 120, np.random.default_rng(14))
        samples = burst.samples.copy()
        samples[1:] = np.nan
        assert receiver.synchronize(samples) == 160

    def test_reference_length_mismatch_rejected(self, paper_config, random_burst):
        transmitter = MimoTransmitter(paper_config)
        receiver = MimoReceiver(paper_config)
        burst = random_burst(transmitter, 120, np.random.default_rng(12))
        result = receiver.receive(burst.samples, n_info_bits=120)
        with pytest.raises(ValueError):
            result.total_bit_errors([np.zeros(60, dtype=np.uint8)] * 4)


class TestNoiseVarianceValidation:
    """A noise variance the receiver cannot scale by is a caller error.

    Regression: soft ZF at 30 dB with ``inf`` silently decoded garbage
    bits, ``0`` and negative values escaped as bare ``ValueError`` from the
    demapper or the MMSE path, and soft MMSE with ``inf`` raised a numpy
    ``RuntimeWarning``.
    """

    @pytest.mark.parametrize("detector", ["zf", "mmse"])
    @pytest.mark.parametrize("variance", [0.0, -1e-3, np.inf, np.nan])
    def test_non_finite_or_non_positive_variance_raises(self, detector, variance, random_burst):
        config = TransceiverConfig(detector=detector, soft_decision=True)
        channel = MimoChannel(FlatRayleighChannel(rng=1), snr_db=30.0, rng=2)
        burst = random_burst(MimoTransmitter(config), 96, np.random.default_rng(3))
        samples = channel.transmit(burst.samples).samples
        receiver = MimoReceiver(config)
        with pytest.raises(ConfigurationError, match="noise variances"):
            receiver.receive_stack([samples, samples], 96, noise_variances=[1.0, variance])
        with pytest.raises(ConfigurationError, match="noise variances"):
            receiver.receive(samples, 96, noise_variance=variance)


class TestTypedCallerErrors:
    def test_code_rows_of_the_wrong_length_raise_configuration_error(self, paper_config):
        receiver = MimoReceiver(paper_config)
        coded = np.zeros((4, 500), dtype=np.float64)
        with pytest.raises(ConfigurationError, match="values but the block consumes"):
            receiver.decode(coded, n_info_bits=120)

    def test_stream_chunk_of_the_wrong_shape_raises_configuration_error(self, paper_config):
        pipeline = StreamingReceiver(MimoReceiver(paper_config), n_info_bits=120)
        with pytest.raises(ConfigurationError, match="chunk must have shape"):
            pipeline.push(np.zeros((3, 64), dtype=complex))


class TestNonFiniteSamples:
    """A non-finite sample in a burst's FFT windows gives that burst up.

    Regression: hard decisions sliced a NaN into silent garbage bits,
    while soft decisions only failed later, in the Viterbi.
    """

    N_INFO_BITS = 120

    @pytest.fixture(params=[False, True], ids=["hard", "soft"])
    def receiver(self, request):
        return MimoReceiver(TransceiverConfig(soft_decision=request.param))

    @pytest.fixture(params=[np.nan, np.inf, complex(np.nan, 1.0)], ids=["nan", "inf", "nan+1j"])
    def bursts(self, receiver, request, random_burst):
        """One burst with a non-finite data sample on every antenna, two good ones."""
        transmitter = MimoTransmitter(receiver.config)
        bad, *good = [
            random_burst(transmitter, self.N_INFO_BITS, np.random.default_rng(seed)).samples
            for seed in (1, 2, 3)
        ]
        bad[:, 900] = request.param
        return bad, good

    def test_receive_raises(self, receiver, bursts):
        bad, _ = bursts
        with pytest.raises(DecodingError, match="finite"):
            receiver.receive(bad, self.N_INFO_BITS, lts_start=160)

    def test_detect_stack_drops_only_the_bad_burst(self, receiver, bursts):
        bad, good = bursts
        outcomes = receiver.detect_stack(
            receiver.demodulate_stack([bad, *good], self.N_INFO_BITS, [160] * 3)
        )
        assert isinstance(outcomes[0], DecodingError)
        for samples, outcome in zip(good, outcomes[1:]):
            (alone,) = receiver.detect_stack(
                receiver.demodulate_stack([samples], self.N_INFO_BITS, [160])
            )
            np.testing.assert_array_equal(outcome.coded, alone.coded)
            np.testing.assert_array_equal(outcome.equalized, alone.equalized)

    def test_stream_reports_the_frame_lost(self, receiver, bursts):
        bad, good = bursts
        pipeline = StreamingReceiver(receiver, n_info_bits=self.N_INFO_BITS)
        stream = np.concatenate([good[0], bad, good[1]], axis=1)
        frames = pipeline.push(stream) + pipeline.flush()
        assert [frame.ok for frame in frames] == [True, False, True]
        assert pipeline.frames_lost == 1


class TestRxQuantization:
    """The paper's fixed-point RX interfaces (16-bit samples, 18-bit multipliers)."""

    def test_paper_word_lengths_decode_error_free(self, random_burst):
        config = TransceiverConfig(
            rx_sample_format=SAMPLE_FORMAT_16BIT,
            rx_multiplier_format=MULTIPLIER_FORMAT_18BIT,
        )
        burst, result = _loopback(random_burst, config)
        assert result.total_bit_errors(burst.info_bits) == 0

    def test_paper_word_lengths_survive_noise_on_a_faded_link(self, random_burst):
        config = TransceiverConfig(rx_sample_format=SAMPLE_FORMAT_16BIT)
        channel = MimoChannel(FlatRayleighChannel(rng=31), snr_db=35.0, rng=32)
        burst, result = _loopback(random_burst, config, channel=channel, seed=13)
        assert result.total_bit_errors(burst.info_bits) == 0

    def test_sample_format_quantizes_the_receiver_input(self, random_burst):
        # The ADC word length is the receiver's first stage: a 16-bit
        # receiver decodes noisy samples exactly as a floating-point one
        # decodes the same samples rounded onto the 16-bit grid.
        burst = random_burst(MimoTransmitter(TransceiverConfig()), 200, np.random.default_rng(8))
        samples = MimoChannel(snr_db=20.0, rng=7).transmit(burst.samples).samples
        (quantized,) = MimoReceiver(
            TransceiverConfig(rx_sample_format=SAMPLE_FORMAT_16BIT)
        ).receive_stack([samples], 200)
        (rounded,) = MimoReceiver(TransceiverConfig()).receive_stack(
            [SAMPLE_FORMAT_16BIT.quantize_complex(samples)], 200
        )
        np.testing.assert_array_equal(quantized.equalized, rounded.equalized)
        np.testing.assert_array_equal(quantized.decoded_bits, rounded.decoded_bits)

    def test_coarse_sample_format_destroys_the_link(self, random_burst):
        # Five bits per I/Q sample leaves the ~0.1-RMS baseband only a few
        # effective levels: the decoded payload must be garbage.
        config = TransceiverConfig(
            rx_sample_format=FixedPointFormat(word_length=5, frac_bits=3)
        )
        burst, result = _loopback(random_burst, config, lts_start=160)
        assert result.total_bit_errors(burst.info_bits) > 0

    def test_format_fields_validated(self):
        with pytest.raises(ConfigurationError):
            TransceiverConfig(rx_sample_format="16bit")
        with pytest.raises(ConfigurationError):
            TransceiverConfig(rx_multiplier_format=18)
