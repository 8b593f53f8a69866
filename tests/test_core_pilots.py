"""Tests for repro.core.pilots."""

import numpy as np
import pytest

from repro.coding.scrambler import pilot_polarity_sequence
from repro.core.config import OfdmNumerology
from repro.core.pilots import PilotProcessor

from reference.core import extract_pilots, pilot_polarity, pilot_values


@pytest.fixture
def processor() -> PilotProcessor:
    return PilotProcessor(OfdmNumerology.for_fft_size(64))


def _symbol_with_pilots(processor, symbol_index=0):
    """Burst symbol ``symbol_index``, carrying pilots and random data."""
    rng = np.random.default_rng(symbol_index + 1)
    block = np.zeros((symbol_index + 1, 64), dtype=np.complex128)
    data_bins = list(processor.numerology.data_bins)
    block[-1, data_bins] = np.exp(1j * rng.uniform(0, 2 * np.pi, len(data_bins)))
    return processor.insert_block(block)[-1]


def _correct(processor, symbol, symbol_index):
    """Correct ``symbol`` as burst symbol ``symbol_index`` (the last of a
    block whose other symbols are silent); diagnostics as scalars."""
    block = np.zeros((symbol_index + 1, 64), dtype=np.complex128)
    block[-1] = symbol
    corrected, diag = processor.correct_block(block)
    return corrected[-1], (diag.common_phase[-1], diag.tau[-1], diag.pilot_magnitude[-1])


class TestPilotInsertion:
    def test_pilot_polarity_follows_scrambler_sequence(self, processor):
        polarity = pilot_polarity_sequence(10)
        for n in range(10):
            assert pilot_polarity(processor, n) == polarity[n]

    def test_insert_writes_pilot_bins(self, processor):
        symbol = processor.insert_block(np.zeros((1, 64), dtype=complex))[0]
        pilots = symbol[list(processor.numerology.pilot_bins)]
        np.testing.assert_allclose(np.abs(pilots), 1.0)

    def test_insert_preserves_data_bins(self, processor):
        symbol = np.zeros(64, dtype=complex)
        symbol[1] = 0.5 + 0.5j
        inserted = processor.insert_block(symbol[None, :])[0]
        assert inserted[1] == 0.5 + 0.5j

    @pytest.mark.xfail(
        strict=True,
        reason="the pilot table tiles the 127-periodic polarity sequence to "
        "4,096 entries and wraps modulo 4,096, so symbols past 4,097 leave the "
        "sequence; one 127-entry period indexed modulo 127 mends it",
    )
    def test_polarity_stays_127_periodic_past_the_pilot_table(self, processor):
        n_symbols = 4350
        inserted = processor.insert_block(np.zeros((n_symbols, 64), dtype=complex))
        pilots = inserted[:, list(processor.numerology.pilot_bins)]
        period = pilot_polarity_sequence(127)
        base = np.array(processor.numerology.pilot_values)
        expected = base * period[np.arange(n_symbols) % 127, None]
        np.testing.assert_array_equal(pilots[4096:], expected[4096:])

    def test_insert_length_check(self, processor):
        with pytest.raises(ValueError):
            processor.insert_block(np.zeros((1, 32), dtype=complex))

    def test_extract_reads_pilot_bins(self, processor):
        symbol = _symbol_with_pilots(processor, 3)
        pilots = extract_pilots(processor, symbol)
        np.testing.assert_allclose(pilots, pilot_values(processor, 3))


class TestPhaseCorrection:
    def test_identity_when_no_impairment(self, processor):
        symbol = _symbol_with_pilots(processor, 0)
        corrected, (common_phase, tau, _) = _correct(processor, symbol, 0)
        np.testing.assert_allclose(corrected, symbol, atol=1e-9)
        assert common_phase == pytest.approx(0.0, abs=1e-9)
        assert tau == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("phase", [-1.2, -0.3, 0.4, 1.0, 2.5])
    def test_removes_common_phase(self, processor, phase):
        symbol = _symbol_with_pilots(processor, 1)
        rotated = symbol * np.exp(1j * phase)
        corrected, (common_phase, _, _) = _correct(processor, rotated, 1)
        np.testing.assert_allclose(corrected, symbol, atol=1e-6)
        assert common_phase == pytest.approx(phase, abs=1e-6)

    def test_removes_timing_phase_ramp(self, processor):
        symbol = _symbol_with_pilots(processor, 2)
        tau = 0.01
        logical = np.arange(64, dtype=float)
        logical[logical > 32] -= 64
        ramped = symbol * np.exp(1j * tau * logical)
        corrected, (_, estimated_tau, _) = _correct(processor, ramped, 2)
        np.testing.assert_allclose(corrected, symbol, atol=1e-3)
        assert estimated_tau == pytest.approx(tau, abs=1e-3)

    def test_combined_phase_and_timing(self, processor):
        symbol = _symbol_with_pilots(processor, 5)
        logical = np.arange(64, dtype=float)
        logical[logical > 32] -= 64
        impaired = symbol * np.exp(1j * (0.7 + 0.02 * logical))
        corrected, _ = _correct(processor, impaired, 5)
        np.testing.assert_allclose(corrected, symbol, atol=1e-2)

    def test_zero_pilots_returns_unchanged(self, processor):
        symbol = np.zeros(64, dtype=complex)
        corrected, diagnostics = _correct(processor, symbol, 0)
        np.testing.assert_array_equal(corrected, symbol)
        assert diagnostics == (0.0, 0.0, 0.0)
        # Data around silent pilots is passed through untouched too.
        symbol = _symbol_with_pilots(processor, 4) * np.exp(0.3j)
        symbol[list(processor.numerology.pilot_bins)] = 0.0
        corrected, diagnostics = _correct(processor, symbol, 4)
        np.testing.assert_array_equal(corrected, symbol)
        assert diagnostics == (0.0, 0.0, 0.0)

    def test_wrong_symbol_length_rejected(self, processor):
        with pytest.raises(ValueError):
            processor.correct_block(np.zeros((1, 32), dtype=complex))

    def test_polarity_scrambled_pilots_still_corrected(self, processor):
        # Symbol index with negative polarity must still correct properly.
        negative_indices = [n for n in range(20) if pilot_polarity(processor, n) < 0]
        index = negative_indices[0]
        symbol = _symbol_with_pilots(processor, index)
        rotated = symbol * np.exp(1j * 0.9)
        corrected, (common_phase, _, _) = _correct(processor, rotated, index)
        np.testing.assert_allclose(corrected, symbol, atol=1e-6)
        assert common_phase == pytest.approx(0.9, abs=1e-6)

    def test_tall_stack_corrects_each_burst_as_alone(self, processor):
        # 40 bursts of 4 streams x 3 symbols: 480 KiB, past the size from
        # which numpy reuses a temporary operand as the output.
        rng = np.random.default_rng(8)
        shape = (40, 4, 3, 64)
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        corrected, diag = processor.correct_block(stack)
        for burst in (0, 17, 39):
            alone, alone_diag = processor.correct_block(stack[burst : burst + 1])
            np.testing.assert_array_equal(corrected[burst], alone[0])
            np.testing.assert_array_equal(diag.tau[burst], alone_diag.tau[0])
