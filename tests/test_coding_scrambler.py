"""Tests for repro.coding.scrambler."""

import numpy as np
import pytest

from repro.coding.scrambler import Scrambler, pilot_polarity_sequence
from repro.exceptions import ConfigurationError


class TestScrambler:
    def test_scramble_descramble_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(1, 500), dtype=np.uint8)
        scrambler = Scrambler()
        scrambled = scrambler.process(bits)
        descrambled = Scrambler().process(scrambled)
        np.testing.assert_array_equal(descrambled, bits)

    def test_scrambling_changes_the_data(self):
        bits = np.zeros((1, 128), dtype=np.uint8)
        scrambled = Scrambler().process(bits)
        assert scrambled.sum() > 0

    def test_sequence_period_is_127(self):
        scrambler = Scrambler(seed=0b1111111)
        sequence = scrambler.sequence(254)
        np.testing.assert_array_equal(sequence[:127], sequence[127:])

    def test_sequence_is_balanced(self):
        # A maximal-length 7-bit LFSR produces 64 ones and 63 zeros per period.
        sequence = Scrambler(seed=0b1111111).sequence(127)
        assert int(sequence.sum()) == 64

    def test_different_seeds_differ(self):
        bits = np.zeros((1, 64), dtype=np.uint8)
        a = Scrambler(seed=0b1011101).process(bits)
        b = Scrambler(seed=0b0000001).process(bits)
        assert not np.array_equal(a, b)

    def test_invalid_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            Scrambler(seed=0)
        with pytest.raises(ConfigurationError):
            Scrambler(seed=200)

    def test_every_call_starts_from_the_seed(self):
        bits = np.random.default_rng(1).integers(0, 2, size=(1, 300), dtype=np.uint8)
        scrambler = Scrambler()
        first = scrambler.process(bits)
        np.testing.assert_array_equal(scrambler.process(bits), first)
        np.testing.assert_array_equal(scrambler.sequence(40), scrambler.sequence(40))

    def test_known_80211a_prefix(self):
        # With the all-ones seed the 802.11a scrambler starts 0000111011110010...
        sequence = Scrambler(seed=0b1111111).sequence(16)
        np.testing.assert_array_equal(
            sequence, [0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]
        )


class TestPilotPolarity:
    def test_values_are_plus_minus_one(self):
        polarity = pilot_polarity_sequence(127)
        assert set(np.unique(polarity)) == {-1.0, 1.0}

    def test_first_symbol_polarity_is_positive(self):
        # p_0 = +1 in 802.11a.
        assert pilot_polarity_sequence(1)[0] == 1.0

    def test_periodic_extension(self):
        long_sequence = pilot_polarity_sequence(300)
        np.testing.assert_array_equal(long_sequence[:127], long_sequence[127:254])

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            pilot_polarity_sequence(0)
