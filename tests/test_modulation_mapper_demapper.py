"""Tests for repro.modulation.mapper and repro.modulation.demapper."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DecodingError
from repro.modulation.constellations import Modulation, get_constellation
from repro.modulation.demapper import SymbolDemapper
from repro.modulation.mapper import SymbolMapper
from reference.modulation import hard_decisions_serial, soft_decisions_serial


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

    @pytest.mark.parametrize("variance", [[0.5, np.nan], [0.5, np.inf]])
    def test_every_burst_noise_variance_must_be_finite(self, variance):
        demapper = SymbolDemapper(Modulation.QAM16)
        with pytest.raises(ConfigurationError):
            demapper.soft_decisions(np.zeros(2, dtype=complex), noise_variance=variance)

    def test_demap_dispatches_soft_and_hard(self):
        demapper = SymbolDemapper(Modulation.QPSK)
        symbols = get_constellation(Modulation.QPSK).points
        hard = demapper.demap(symbols, soft=False)
        soft = demapper.demap(symbols, soft=True)
        assert hard.dtype == np.uint8
        assert soft.dtype == np.float64
        assert hard.size == soft.size


def _axis_values(levels):
    """One axis's adversarial coordinates: its levels and half-grid points
    ``(l_a + l_b) / 2`` with their 1- and 2-ulp neighbours, signed zeros
    and far values (non-finite ones raise, see
    :func:`test_non_finite_symbols_raise_instead_of_slicing`)."""
    base = np.unique((levels[:, None] + levels[None, :]) / 2)
    up = np.nextafter(base, np.inf)
    down = np.nextafter(base, -np.inf)
    near = [base, up, down, np.nextafter(up, np.inf), np.nextafter(down, -np.inf)]
    far = [0.0, -0.0, 1e8, -1e8, 1e12, -1e12]
    return np.concatenate(near + [far])


def _adversarial_symbols(modulation):
    """Every pair of I and Q adversarial coordinates."""
    points = get_constellation(modulation).points
    values_i = _axis_values(np.unique(points.real))
    values_q = _axis_values(np.unique(points.imag))
    symbols = np.empty((values_i.size, values_q.size), dtype=complex)
    symbols.real = values_i[:, None]
    symbols.imag = values_q[None, :]
    return symbols.ravel()


class TestPerAxisExactness:
    """Per-axis demapping is byte-identical to the all-points table."""

    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_hard_bits_equal_table_on_adversarial_symbols(self, modulation):
        demapper = SymbolDemapper(modulation)
        symbols = _adversarial_symbols(modulation)
        expected = hard_decisions_serial(demapper, symbols)
        assert demapper.hard_decisions(symbols).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_soft_llrs_equal_table_on_adversarial_symbols(self, modulation):
        demapper = SymbolDemapper(modulation)
        symbols = _adversarial_symbols(modulation)
        variances = np.random.default_rng(47).uniform(0.01, 2.0, size=symbols.size)
        # At variance 1.0 the oracle's LLR is its distance difference.
        differences = soft_decisions_serial(demapper, symbols).reshape(symbols.size, -1)
        for variance in (0.3, variances):
            expected = differences / np.reshape(variance, (-1, 1))
            llrs = demapper.soft_decisions(symbols, noise_variance=variance)
            assert llrs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("modulation", list(Modulation))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
def test_non_finite_symbols_raise_instead_of_slicing(modulation, bad, soft):
    # A NaN or infinite coordinate fails every rounding certificate; the
    # table would slice it to address 0 (or inf - inf LLRs), so it raises.
    symbols = np.zeros(40, dtype=complex)
    symbols.real[17] = bad
    symbols.imag[31] = bad
    with pytest.raises(DecodingError, match="finite"):
        SymbolDemapper(modulation).demap(symbols, soft=soft, noise_variance=0.5)


def _table_llr_differences(constellation, symbols):
    """``d_one - d_zero`` per symbol and bit from the all-points table."""
    bit_table = constellation.bit_table()
    differences = []
    for start in range(0, symbols.size, 4096):
        distances = np.abs(symbols[start : start + 4096, None] - constellation.points) ** 2
        differences.append(
            np.stack(
                [
                    distances[:, column == 1].min(axis=1) - distances[:, column == 0].min(axis=1)
                    for column in bit_table.T
                ],
                axis=1,
            )
        )
    return np.concatenate(differences)


class TestPerAxisNearTies:
    """Where complex abs's last-ulp wobble could reorder two level distances."""

    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_soft_llrs_equal_table_next_to_half_grid_points(self, modulation):
        # Each symbol has one coordinate 0-3 ulps above a half-grid point,
        # where two level distances differ by a few ulps, and the other
        # anywhere; without the certificate ~1e-4 of them change an LLR.
        constellation = get_constellation(modulation)
        rng = np.random.default_rng(4713)
        n_symbols = 40_000
        levels = np.unique(constellation.points.real)
        half_grid = np.unique((levels[:, None] + levels[None, :]) / 2)
        near = half_grid[rng.integers(0, half_grid.size, n_symbols)]
        for _ in range(3):
            near = np.where(rng.random(n_symbols) < 0.5, np.nextafter(near, np.inf), near)
        anywhere = rng.uniform(-1.5, 1.5, n_symbols)
        symbols = np.empty(2 * n_symbols, dtype=complex)
        symbols.real = np.concatenate([near, anywhere])
        symbols.imag = np.concatenate([anywhere, near])
        expected = _table_llr_differences(constellation, symbols) / 0.5
        llrs = SymbolDemapper(modulation).soft_decisions(symbols, noise_variance=0.5)
        assert llrs.tobytes() == expected.tobytes()


class TestCertificateFallback:
    """Which symbols leave the per-axis path for the distance table."""

    @pytest.fixture
    def table_rows(self, monkeypatch):
        counts = {"hard": 0, "soft": 0}
        for mode, name in (("hard", "_table_addresses"), ("soft", "_table_llrs")):
            original = getattr(SymbolDemapper, name)

            def counted(self, received, *args, _mode=mode, _original=original):
                counts[_mode] += received.size
                return _original(self, received, *args)

            monkeypatch.setattr(SymbolDemapper, name, counted)
        return counts

    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_noisy_symbols_never_fall_back(self, modulation, table_rows):
        rng = np.random.default_rng(20)
        points = get_constellation(modulation).points
        n_symbols = 100_000
        # 20 dB: noise variance 0.01 per symbol against unit symbol energy.
        noise = rng.normal(size=n_symbols) + 1j * rng.normal(size=n_symbols)
        symbols = points[rng.integers(0, points.size, n_symbols)] + np.sqrt(0.005) * noise
        demapper = SymbolDemapper(modulation)
        demapper.hard_decisions(symbols)
        demapper.soft_decisions(symbols, noise_variance=0.01)
        assert table_rows == {"hard": 0, "soft": 0}

    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_near_ties_fall_back(self, modulation, table_rows):
        points = get_constellation(modulation).points
        levels = np.unique(points.real)
        midpoints = (levels[1:] + levels[:-1]) / 2
        boundary = np.nextafter(midpoints, np.inf) + 1j * points.imag.max()
        far_axis = points + 1e12j
        demapper = SymbolDemapper(modulation)
        for symbols in (boundary, far_axis):
            demapper.hard_decisions(symbols)
            demapper.soft_decisions(symbols)
        expected = boundary.size + far_axis.size
        assert table_rows == {"hard": expected, "soft": expected}

    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_exact_points_fall_back_only_when_soft_levels_tie(self, modulation, table_rows):
        # A point sits on no decision boundary, but an inner level is the
        # half-grid point of its two neighbours: equal distances to both.
        points = get_constellation(modulation).points
        demapper = SymbolDemapper(modulation)
        demapper.hard_decisions(points)
        demapper.soft_decisions(points)
        outer_i = np.abs(points.real) == np.abs(points.real).max()
        outer_q = np.abs(points.imag) == np.abs(points.imag).max()
        assert table_rows == {"hard": 0, "soft": int(np.sum(~(outer_i & outer_q)))}
