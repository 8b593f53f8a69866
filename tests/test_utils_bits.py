"""Tests for repro.utils.bits."""

import numpy as np
import pytest

from repro.utils.bits import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    count_bit_errors,
    int_to_bits,
    pack_bits,
    random_bits,
    unpack_bits,
)


class TestRandomBits:
    def test_length_and_alphabet(self):
        bits = random_bits(1000, np.random.default_rng(1))
        assert bits.size == 1000
        assert set(np.unique(bits)).issubset({0, 1})

    def test_zero_length(self):
        assert random_bits(0).size == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            random_bits(-1)

    def test_reproducible_with_seeded_generator(self):
        a = random_bits(64, np.random.default_rng(7))
        b = random_bits(64, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestIntBitConversion:
    def test_int_to_bits_msb_first(self):
        np.testing.assert_array_equal(int_to_bits(0b1011, 4), [1, 0, 1, 1])

    def test_int_to_bits_zero_padding(self):
        np.testing.assert_array_equal(int_to_bits(1, 4), [0, 0, 0, 1])

    def test_roundtrip(self):
        for value in (0, 1, 5, 63, 255, 1023):
            width = max(value.bit_length(), 1)
            assert bits_to_int(int_to_bits(value, width)) == value

    def test_value_too_large_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)


class TestPackUnpack:
    def test_pack_groups_msb_first(self):
        packed = pack_bits([1, 0, 1, 1, 0, 0], 3)
        np.testing.assert_array_equal(packed, [0b101, 0b100])

    def test_unpack_inverts_pack(self):
        bits = random_bits(96, np.random.default_rng(3))
        for group in (1, 2, 4, 6):
            if bits.size % group:
                continue
            np.testing.assert_array_equal(unpack_bits(pack_bits(bits, group), group), bits)

    def test_pack_rejects_mismatched_length(self):
        with pytest.raises(ValueError):
            pack_bits([1, 0, 1], 2)

    def test_unpack_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            unpack_bits([4], 2)

    def test_pack_rejects_non_positive_group(self):
        with pytest.raises(ValueError):
            pack_bits([1, 0], 0)


class TestByteConversion:
    def test_bytes_roundtrip(self):
        data = bytes(range(32))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_bytes_to_bits_msb_first(self):
        np.testing.assert_array_equal(
            bytes_to_bits(b"\x80"), [1, 0, 0, 0, 0, 0, 0, 0]
        )

    def test_bits_to_bytes_requires_multiple_of_eight(self):
        with pytest.raises(ValueError):
            bits_to_bytes([1, 0, 1])


class TestCountBitErrors:
    def test_counts_differences(self):
        assert count_bit_errors([1, 0, 1, 1], [1, 1, 1, 0]) == 2

    def test_zero_for_identical(self):
        bits = random_bits(50, np.random.default_rng(2))
        assert count_bit_errors(bits, bits) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_bit_errors([1, 0], [1])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            count_bit_errors([2, 0], [1, 0])

    def test_every_bit_flipped(self):
        bits = random_bits(40, np.random.default_rng(3))
        assert count_bit_errors(bits, 1 - bits) == 40

    def test_counts_over_equal_shape_stacks(self):
        reference = np.zeros((4, 10), dtype=np.uint8)
        received = reference.copy()
        received[1, 3] = received[3, ::2] = 1
        assert count_bit_errors(reference, received) == 6

    def test_shape_mismatch_rejected_at_equal_size(self):
        with pytest.raises(ValueError):
            count_bit_errors(np.zeros((2, 3), dtype=np.uint8), np.zeros(6, dtype=np.uint8))
