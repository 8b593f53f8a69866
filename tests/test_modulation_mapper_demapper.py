"""Tests for repro.modulation.mapper and repro.modulation.demapper."""

import numpy as np
import pytest

from repro.modulation.constellations import Modulation, get_constellation
from repro.modulation.demapper import SymbolDemapper
from repro.modulation.mapper import SymbolMapper


class TestSymbolMapper:
    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_map_demap_roundtrip(self, modulation):
        rng = np.random.default_rng(1)
        mapper = SymbolMapper(modulation)
        demapper = SymbolDemapper(modulation)
        bits = rng.integers(0, 2, size=mapper.bits_per_symbol * 50, dtype=np.uint8)
        symbols = mapper.map_bits(bits)
        np.testing.assert_array_equal(demapper.hard_decisions(symbols), bits)

    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_every_address_maps_to_its_lut_entry(self, modulation):
        # The bits of LUT address a, MSB first, map to points[a].
        mapper = SymbolMapper(modulation)
        constellation = get_constellation(modulation)
        symbols = mapper.map_bits(constellation.bit_table().ravel())
        np.testing.assert_array_equal(symbols, constellation.points)

    def test_map_bits_length_check(self):
        mapper = SymbolMapper(Modulation.QAM16)
        with pytest.raises(ValueError):
            mapper.map_bits(np.ones(5, dtype=np.uint8))

    def test_output_power_near_unity(self):
        rng = np.random.default_rng(2)
        mapper = SymbolMapper(Modulation.QAM64)
        bits = rng.integers(0, 2, size=6 * 4096, dtype=np.uint8)
        symbols = mapper.map_bits(bits)
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, rel=0.05)


class TestHardDemapping:
    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_small_noise_does_not_cause_errors(self, modulation):
        rng = np.random.default_rng(3)
        mapper = SymbolMapper(modulation)
        demapper = SymbolDemapper(modulation)
        bits = rng.integers(0, 2, size=mapper.bits_per_symbol * 200, dtype=np.uint8)
        symbols = mapper.map_bits(bits)
        noisy = symbols + 0.01 * (
            rng.normal(size=symbols.size) + 1j * rng.normal(size=symbols.size)
        )
        np.testing.assert_array_equal(demapper.hard_decisions(noisy), bits)

    def test_hard_addresses(self):
        demapper = SymbolDemapper(Modulation.QPSK)
        points = get_constellation(Modulation.QPSK).points
        np.testing.assert_array_equal(demapper.hard_addresses(points), [0, 1, 2, 3])


class TestSoftDemapping:
    def test_llr_sign_matches_hard_decision(self):
        rng = np.random.default_rng(4)
        mapper = SymbolMapper(Modulation.QAM16)
        demapper = SymbolDemapper(Modulation.QAM16)
        bits = rng.integers(0, 2, size=4 * 100, dtype=np.uint8)
        symbols = mapper.map_bits(bits)
        noisy = symbols + 0.05 * (
            rng.normal(size=symbols.size) + 1j * rng.normal(size=symbols.size)
        )
        llrs = demapper.soft_decisions(noisy, noise_variance=0.005)
        hard_from_soft = (llrs < 0).astype(np.uint8)
        np.testing.assert_array_equal(hard_from_soft, demapper.hard_decisions(noisy))

    def test_llr_magnitude_scales_with_noise_variance(self):
        demapper = SymbolDemapper(Modulation.QPSK)
        symbol = np.array([0.7 + 0.7j])
        llr_low_noise = demapper.soft_decisions(symbol, noise_variance=0.01)
        llr_high_noise = demapper.soft_decisions(symbol, noise_variance=1.0)
        assert np.all(np.abs(llr_low_noise) > np.abs(llr_high_noise))

    def test_confident_symbol_has_large_llr(self):
        demapper = SymbolDemapper(Modulation.BPSK)
        llr = demapper.soft_decisions(np.array([1.0 + 0j]), noise_variance=0.1)
        # Point +1 carries bit 1 in the BPSK table, so the LLR must be negative.
        assert llr[0] < -10

    def test_noise_variance_must_be_positive(self):
        demapper = SymbolDemapper(Modulation.BPSK)
        with pytest.raises(ValueError):
            demapper.soft_decisions(np.array([1.0 + 0j]), noise_variance=0.0)

    def test_demap_dispatches_soft_and_hard(self):
        demapper = SymbolDemapper(Modulation.QPSK)
        symbols = get_constellation(Modulation.QPSK).points
        hard = demapper.demap(symbols, soft=False)
        soft = demapper.demap(symbols, soft=True)
        assert hard.dtype == np.uint8
        assert soft.dtype == np.float64
        assert hard.size == soft.size
