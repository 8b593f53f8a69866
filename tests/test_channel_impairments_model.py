"""Tests for repro.channel.impairments and repro.channel.model."""

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel
from repro.channel.impairments import (
    ImpairmentSpec,
    apply_carrier_frequency_offset,
    apply_iq_imbalance,
)
from repro.channel.model import ChannelOutput, IdealChannel, MimoChannel
from repro.dsp.fixedpoint import SAMPLE_FORMAT_16BIT, FixedPointFormat


class TestCarrierFrequencyOffset:
    def test_zero_offset_is_identity(self):
        x = np.ones(10, dtype=complex)
        np.testing.assert_allclose(apply_carrier_frequency_offset(x, 0.0), x)

    def test_quarter_cycle_per_sample(self):
        x = np.ones(4, dtype=complex)
        rotated = apply_carrier_frequency_offset(x, 0.25)
        np.testing.assert_allclose(rotated, [1, 1j, -1, -1j], atol=1e-12)

    def test_preserves_magnitude(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 50)) + 1j * rng.normal(size=(4, 50))
        rotated = apply_carrier_frequency_offset(x, 0.01)
        np.testing.assert_allclose(np.abs(rotated), np.abs(x))


class TestIqImbalance:
    def test_no_imbalance_is_identity(self):
        x = np.array([1 + 2j, -0.5 + 0.25j])
        np.testing.assert_allclose(apply_iq_imbalance(x), x)

    def test_gain_imbalance_changes_image(self):
        x = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        distorted = apply_iq_imbalance(x, amplitude_imbalance_db=1.0, phase_imbalance_deg=2.0)
        spectrum = np.fft.fft(distorted)
        # Energy appears at the image frequency (bin 63) when imbalance exists.
        assert np.abs(spectrum[63]) > 0.1

    @pytest.mark.parametrize("amplitude_db", [-3.0, 0.5, 1.0, 2.0])
    def test_amplitude_imbalance_is_an_amplitude_gain(self, amplitude_db):
        # With no phase error the quadrature rail is scaled by the
        # amplitude gain 10 ** (a / 20) (not the power ratio 10 ** (a / 10))
        # and the in-phase rail passes through.  At these amplitudes the
        # alpha/beta split rounds back to the gain exactly.
        gain = 10 ** (amplitude_db / 20)
        quadrature = apply_iq_imbalance(
            1j * np.ones(4), amplitude_imbalance_db=amplitude_db, phase_imbalance_deg=0
        )
        assert np.all(quadrature.imag == gain)
        assert np.all(quadrature.real == 0)
        in_phase = np.array([1.0, -2.5, 0.3, 7.0])
        passed = apply_iq_imbalance(
            in_phase, amplitude_imbalance_db=amplitude_db, phase_imbalance_deg=0
        )
        np.testing.assert_array_equal(passed, in_phase)


class TestIdealChannel:
    def test_passthrough(self):
        channel = IdealChannel()
        x = np.random.default_rng(1).normal(size=(4, 20)) + 0j
        np.testing.assert_allclose(channel.apply(x), x)

    def test_identity_frequency_response(self):
        response = IdealChannel().frequency_response(64)
        np.testing.assert_allclose(response[10], np.eye(4))


class TestMimoChannel:
    def test_noiseless_ideal_is_identity(self):
        channel = MimoChannel()
        x = np.random.default_rng(2).normal(size=(4, 30)) + 0j
        output = channel.transmit(x)
        assert isinstance(output, ChannelOutput)
        np.testing.assert_allclose(output.samples, x)

    def test_snr_noise_added(self):
        channel = MimoChannel(snr_db=20.0, rng=3)
        x = np.ones((4, 1000), dtype=complex)
        output = channel.transmit(x)
        assert not np.allclose(output.samples, x)
        noise_power = np.mean(np.abs(output.samples - x) ** 2)
        assert noise_power == pytest.approx(0.01, rel=0.2)

    def test_delay_shifts_burst(self):
        channel = MimoChannel(impairment=ImpairmentSpec(sample_delay=7))
        x = np.ones((4, 10), dtype=complex)
        output = channel.transmit(x)
        np.testing.assert_allclose(output.samples[:, :7], 0)

    def test_delay_extends_window_without_losing_the_tail(self):
        # The channel models a receiver that keeps listening while the burst
        # arrives late: the observation window grows by the delay and every
        # transmitted sample survives the shift.
        channel = MimoChannel(impairment=ImpairmentSpec(sample_delay=7))
        x = np.arange(1, 41, dtype=complex).reshape(4, 10)
        output = channel.transmit(x)
        assert output.samples.shape == (4, 17)
        np.testing.assert_allclose(output.samples[:, 7:], x)

    def test_iq_imbalance_stage_applied(self):
        channel = MimoChannel(
            impairment=ImpairmentSpec(iq_amplitude_db=1.0, iq_phase_deg=3.0)
        )
        x = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        x = np.broadcast_to(x, (4, 64))
        output = channel.transmit(x)
        np.testing.assert_allclose(
            output.samples, apply_iq_imbalance(x, 1.0, 3.0)
        )

    def test_tx_quantization_stage_applied(self):
        fmt = FixedPointFormat(word_length=6, frac_bits=4)
        channel = MimoChannel(impairment=ImpairmentSpec(tx_format=fmt))
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 32)) * 0.1 + 1j * rng.normal(size=(4, 32)) * 0.1
        output = channel.transmit(x)
        np.testing.assert_allclose(output.samples, fmt.quantize_complex(x))
        assert not np.allclose(output.samples, x)

    def test_16bit_quantization_is_transparent_at_link_scale(self):
        # The paper's 16-bit DAC interface is effectively lossless for the
        # baseband's ~0.1 RMS samples: quantisation error is bounded by half
        # an LSB and tiny against the signal.  (The ADC side is the
        # receiver's ``rx_sample_format``.)
        channel = MimoChannel(impairment=ImpairmentSpec(tx_format=SAMPLE_FORMAT_16BIT))
        x = np.random.default_rng(9).normal(size=(4, 128)) * 0.1 + 0j
        output = channel.transmit(x)
        assert np.max(np.abs(output.samples - x)) <= SAMPLE_FORMAT_16BIT.resolution

    def test_shape_validation(self):
        channel = MimoChannel()
        with pytest.raises(ValueError):
            channel.transmit(np.ones((3, 10), dtype=complex))

    def test_antenna_counts_exposed(self):
        channel = MimoChannel(FlatRayleighChannel(n_rx=4, n_tx=4, rng=5))
        assert channel.n_rx == 4
        assert channel.n_tx == 4


class TestNoiseCalibration:
    """Occupied-power SNR calibration and the reported noise variance."""

    def test_noise_variance_reported(self):
        x = np.ones((4, 1000), dtype=complex)
        output = MimoChannel(snr_db=20.0, rng=30).transmit(x)
        # Unit signal power, 20 dB -> variance 0.01, reported exactly.
        assert output.noise_variance == pytest.approx(0.01)
        assert MimoChannel(rng=31).transmit(x).noise_variance is None

    def test_delivered_snr_invariant_to_sample_delay(self):
        # Regression: the SNR used to be calibrated against the mean power
        # of the whole observation window, so the zero pad a sample_delay
        # prepends diluted the measurement and raised the delivered SNR.
        rng = np.random.default_rng(32)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 20_000)))

        def run(delay):
            channel = MimoChannel(
                snr_db=10.0, impairment=ImpairmentSpec(sample_delay=delay), rng=33
            )
            output = channel.transmit(x)
            noise = output.samples[:, delay:] - x
            return output.noise_variance, float(np.mean(np.abs(noise) ** 2))

        var_no_delay, measured_no_delay = run(0)
        var_delayed, measured_delayed = run(1_000)
        assert var_delayed == var_no_delay
        assert measured_delayed == pytest.approx(measured_no_delay, rel=0.05)
        achieved = 10 * np.log10(1.0 / measured_delayed)
        assert achieved == pytest.approx(10.0, abs=0.2)

    def test_silent_window_gets_no_noise(self):
        silent = np.zeros((4, 64), dtype=complex)
        output = MimoChannel(snr_db=10.0, rng=36).transmit(silent)
        assert output.noise_variance == 0.0
        np.testing.assert_array_equal(output.samples, silent)

    def test_same_seed_draws_the_same_noise(self):
        x = np.ones((4, 256), dtype=complex)
        first = MimoChannel(snr_db=10.0, rng=37).transmit(x).samples
        np.testing.assert_array_equal(MimoChannel(snr_db=10.0, rng=37).transmit(x).samples, first)
        assert not np.array_equal(MimoChannel(snr_db=10.0, rng=38).transmit(x).samples, first)

    @pytest.mark.parametrize("amplitude", [0.1, 2.0])
    def test_noise_variance_tracks_the_signal_power(self, amplitude):
        x = np.full((4, 100), amplitude, dtype=complex)
        output = MimoChannel(snr_db=20.0, rng=39).transmit(x)
        assert output.noise_variance == pytest.approx(0.01 * amplitude**2)

    def test_empty_window_stays_empty(self):
        output = MimoChannel(snr_db=10.0, rng=40).transmit(np.zeros((4, 0), dtype=complex))
        assert output.samples.shape == (4, 0)
        assert output.noise_variance == 0.0

    def test_iq_imbalance_distorts_the_noise_too(self):
        # The IQ imbalance models the *receive* mixer, so it must run after
        # noise injection: the output equals noise-then-IQ, not IQ-then-noise.
        rng = np.random.default_rng(34)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 5_000)))
        channel = MimoChannel(
            snr_db=15.0,
            impairment=ImpairmentSpec(iq_amplitude_db=1.0, iq_phase_deg=4.0),
            rng=35,
        )
        output = channel.transmit(x)

        from repro.channel.awgn import awgn_noise

        noisy = x + awgn_noise(x.shape, output.noise_variance, np.random.default_rng(35))
        expected = apply_iq_imbalance(noisy, 1.0, 4.0)
        np.testing.assert_allclose(output.samples, expected, atol=1e-12)
        wrong_order = apply_iq_imbalance(x, 1.0, 4.0) + awgn_noise(
            x.shape, output.noise_variance, np.random.default_rng(35)
        )
        assert not np.allclose(output.samples, wrong_order, atol=1e-6)
