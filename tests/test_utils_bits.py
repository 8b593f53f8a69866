"""Tests for repro.utils.bits."""

import numpy as np
import pytest

from repro.utils.bits import count_bit_errors, pack_bits, unpack_bits


class TestPackUnpack:
    def test_pack_groups_msb_first(self):
        packed = pack_bits([1, 0, 1, 1, 0, 0], 3)
        np.testing.assert_array_equal(packed, [0b101, 0b100])

    def test_unpack_inverts_pack(self):
        bits = np.random.default_rng(3).integers(0, 2, size=96, dtype=np.uint8)
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


class TestCountBitErrors:
    def test_counts_differences(self):
        assert count_bit_errors([1, 0, 1, 1], [1, 1, 1, 0]) == 2

    def test_zero_for_identical(self):
        bits = np.random.default_rng(2).integers(0, 2, size=50, dtype=np.uint8)
        assert count_bit_errors(bits, bits) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            count_bit_errors([1, 0], [1])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            count_bit_errors([2, 0], [1, 0])

    def test_every_bit_flipped(self):
        bits = np.random.default_rng(3).integers(0, 2, size=40, dtype=np.uint8)
        assert count_bit_errors(bits, 1 - bits) == 40

    def test_counts_over_equal_shape_stacks(self):
        reference = np.zeros((4, 10), dtype=np.uint8)
        received = reference.copy()
        received[1, 3] = received[3, ::2] = 1
        assert count_bit_errors(reference, received) == 6

    def test_shape_mismatch_rejected_at_equal_size(self):
        with pytest.raises(ValueError):
            count_bit_errors(np.zeros((2, 3), dtype=np.uint8), np.zeros(6, dtype=np.uint8))
