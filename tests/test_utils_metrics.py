"""Tests for repro.utils.metrics."""

import numpy as np
import pytest

from repro.utils.metrics import (
    bit_error_rate,
    error_vector_magnitude,
    packet_error_rate,
    signal_to_noise_ratio_db,
    symbol_error_rate,
)


class TestBitErrorRate:
    def test_half_errors(self):
        assert bit_error_rate([0, 0, 1, 1], [0, 1, 1, 0]) == 0.5

    def test_zero_errors(self):
        assert bit_error_rate([1, 0, 1], [1, 0, 1]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bit_error_rate([], [])


class TestSymbolErrorRate:
    def test_counts_symbol_mismatches(self):
        assert symbol_error_rate([3, 1, 2], [3, 0, 2]) == pytest.approx(1 / 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            symbol_error_rate([1, 2], [1])


class TestPacketErrorRate:
    def test_fraction_of_true_flags(self):
        assert packet_error_rate([True, False, False, True]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            packet_error_rate([])


class TestEvm:
    def test_zero_for_identical_constellations(self):
        symbols = np.array([1 + 1j, -1 - 1j, 1 - 1j])
        assert error_vector_magnitude(symbols, symbols) == 0.0

    def test_known_offset(self):
        ref = np.array([1.0 + 0j, -1.0 + 0j])
        rec = ref + 0.1
        assert error_vector_magnitude(ref, rec) == pytest.approx(0.1)

    def test_zero_power_reference_rejected(self):
        with pytest.raises(ValueError):
            error_vector_magnitude(np.zeros(4, dtype=complex), np.ones(4, dtype=complex))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            error_vector_magnitude(np.ones(3, dtype=complex), np.ones(4, dtype=complex))


class TestSnrEstimate:
    def test_infinite_for_identical(self):
        signal = np.array([1 + 1j, 2 - 1j, -1 + 0.5j])
        assert signal_to_noise_ratio_db(signal, signal) == float("inf")

    def test_matches_known_snr(self):
        rng = np.random.default_rng(0)
        signal = np.exp(1j * rng.uniform(0, 2 * np.pi, 200_0))
        noise = (rng.normal(size=signal.size) + 1j * rng.normal(size=signal.size)) * np.sqrt(
            0.005
        )
        estimated = signal_to_noise_ratio_db(signal, signal + noise)
        assert estimated == pytest.approx(20.0, abs=0.5)

    @pytest.mark.parametrize("error, expected_db", [(1.0, 0.0), (0.1, 20.0), (0.01, 40.0)])
    def test_closed_form_for_a_constant_error(self, error, expected_db):
        # Unit-power signal, error power error**2: SNR = -20 log10(error) dB.
        signal = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
        assert signal_to_noise_ratio_db(signal, signal + error) == pytest.approx(
            expected_db, abs=1e-9
        )
