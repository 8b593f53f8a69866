"""Tests for repro.modulation.constellations."""

import math

import numpy as np
import pytest

from repro.modulation.constellations import Constellation, Modulation, get_constellation

#: The 802.11a Gray mapping of one axis's bit group (first bit as MSB) to
#: its level, by group width, and the normalisation factor K_MOD of every
#: modulation: the standard's literal mapping tables.
LEVELS_80211A = {
    0: {0: 0.0},
    1: {0: -1.0, 1: 1.0},
    2: {0b00: -3.0, 0b01: -1.0, 0b11: 1.0, 0b10: 3.0},
    3: {
        0b000: -7.0,
        0b001: -5.0,
        0b011: -3.0,
        0b010: -1.0,
        0b110: 1.0,
        0b111: 3.0,
        0b101: 5.0,
        0b100: 7.0,
    },
}
K_MOD_80211A = {
    Modulation.BPSK: 1.0,
    Modulation.QPSK: 1.0 / math.sqrt(2.0),
    Modulation.QAM16: 1.0 / math.sqrt(10.0),
    Modulation.QAM64: 1.0 / math.sqrt(42.0),
}


class TestModulationEnum:
    def test_bits_per_symbol(self):
        assert Modulation.BPSK.bits_per_symbol == 1
        assert Modulation.QPSK.bits_per_symbol == 2
        assert Modulation.QAM16.bits_per_symbol == 4
        assert Modulation.QAM64.bits_per_symbol == 6

    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("bpsk", Modulation.BPSK),
            ("QPSK", Modulation.QPSK),
            ("16-QAM", Modulation.QAM16),
            ("qam64", Modulation.QAM64),
            (Modulation.QAM16, Modulation.QAM16),
        ],
    )
    def test_from_any(self, alias, expected):
        assert Modulation.from_any(alias) is expected

    def test_from_any_rejects_unknown(self):
        with pytest.raises(ValueError):
            Modulation.from_any("256qam")


class TestConstellationTables:
    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_tables_are_byte_equal_to_the_80211a_literals(self, modulation):
        # I takes the address's top ceil(k/2) bits, Q its low floor(k/2).
        k = modulation.bits_per_symbol
        kq = k // 2
        norm = K_MOD_80211A[modulation]
        expected = np.array(
            [
                complex(
                    LEVELS_80211A[k - kq][address >> kq],
                    LEVELS_80211A[kq][address & ((1 << kq) - 1)],
                )
                * norm
                for address in range(1 << k)
            ]
        )
        constellation = get_constellation(modulation)
        assert constellation.normalization == norm
        assert constellation.points.dtype == np.complex128
        assert constellation.points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_unit_average_power(self, modulation):
        constellation = get_constellation(modulation)
        assert np.mean(np.abs(constellation.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_lut_size_matches_address_width(self, modulation):
        constellation = get_constellation(modulation)
        assert constellation.size == 2 ** constellation.bits_per_symbol

    @pytest.mark.parametrize("modulation", list(Modulation))
    def test_all_points_distinct(self, modulation):
        points = get_constellation(modulation).points
        assert len(set(np.round(points, 12))) == points.size

    def test_bpsk_points(self):
        points = get_constellation(Modulation.BPSK).points
        np.testing.assert_allclose(points, [-1.0, 1.0])

    def test_qpsk_normalisation(self):
        points = get_constellation(Modulation.QPSK).points
        np.testing.assert_allclose(np.abs(points), np.ones(4))

    def test_16qam_gray_mapping_adjacent_points_differ_by_one_bit(self):
        constellation = get_constellation(Modulation.QAM16)
        points = constellation.points
        bits = constellation.bit_table()
        # Find pairs of points at the minimum distance and check Hamming
        # distance of their labels is exactly 1 (Gray property).
        min_distance = np.inf
        for i in range(points.size):
            for j in range(i + 1, points.size):
                min_distance = min(min_distance, abs(points[i] - points[j]))
        for i in range(points.size):
            for j in range(i + 1, points.size):
                if abs(points[i] - points[j]) <= min_distance * 1.001:
                    hamming = int(np.sum(bits[i] != bits[j]))
                    assert hamming == 1

    def test_64qam_gray_mapping(self):
        constellation = get_constellation(Modulation.QAM64)
        points = constellation.points
        bits = constellation.bit_table()
        min_distance = 2.0 / np.sqrt(42.0)
        for i in range(points.size):
            for j in range(i + 1, points.size):
                if abs(points[i] - points[j]) <= min_distance * 1.001:
                    assert int(np.sum(bits[i] != bits[j])) == 1

    def test_normalization_factors(self):
        assert get_constellation(Modulation.QAM16).normalization == pytest.approx(
            1 / np.sqrt(10)
        )
        assert get_constellation(Modulation.QAM64).normalization == pytest.approx(
            1 / np.sqrt(42)
        )

    def test_bit_table_shape(self):
        table = get_constellation(Modulation.QAM64).bit_table()
        assert table.shape == (64, 6)
        assert table.max() == 1
