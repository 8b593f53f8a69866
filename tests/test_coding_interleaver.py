"""Tests for repro.coding.interleaver."""

import numpy as np
import pytest

from repro.coding.interleaver import deinterleave, interleave, interleaver_permutation


class TestPermutation:
    @pytest.mark.parametrize(
        "n_cbps,n_bpsc", [(48, 1), (96, 2), (192, 4), (288, 6), (1536, 4)]
    )
    def test_is_a_permutation(self, n_cbps, n_bpsc):
        perm = interleaver_permutation(n_cbps, n_bpsc)
        assert sorted(perm.tolist()) == list(range(n_cbps))

    @pytest.mark.parametrize(
        "n_cbps,n_bpsc", [(48, 1), (96, 2), (192, 4), (288, 6), (1536, 4)]
    )
    def test_deinterleave_undoes_the_permutation(self, n_cbps, n_bpsc):
        # Bit k lands at perm[k], and deinterleaving brings it back to k.
        perm = interleaver_permutation(n_cbps, n_bpsc)
        positions = np.arange(n_cbps)
        interleaved = interleave(positions, n_cbps, n_bpsc)
        np.testing.assert_array_equal(interleaved[perm], positions)
        np.testing.assert_array_equal(deinterleave(interleaved, n_cbps, n_bpsc), positions)

    def test_known_80211a_first_entries(self):
        # For N_CBPS=48, BPSK: bit k goes to position (3*(k mod 16) + k//16).
        perm = interleaver_permutation(48, 1)
        expected_first = [3 * (k % 16) + k // 16 for k in range(48)]
        np.testing.assert_array_equal(perm, expected_first)

    def test_adjacent_bits_spread_apart(self):
        # Adjacent coded bits must not land on adjacent output positions
        # (the whole point of the interleaver).
        perm = interleaver_permutation(192, 4)
        gaps = np.abs(np.diff(perm.astype(int)))
        assert gaps.min() >= 4

    def test_permutation_is_memoised_and_read_only(self):
        perm = interleaver_permutation(192, 4)
        assert interleaver_permutation(192, 4) is perm
        assert not perm.flags.writeable
        with pytest.raises(ValueError):
            perm[0] = 1

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            interleaver_permutation(50, 1)
        with pytest.raises(ValueError):
            interleaver_permutation(0, 1)
        with pytest.raises(ValueError):
            interleaver_permutation(48, 0)


class TestBatchInterleaving:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=192 * 3, dtype=np.uint8)
        np.testing.assert_array_equal(
            deinterleave(interleave(bits, 192, 4), 192, 4), bits
        )

    def test_roundtrip_soft_values(self):
        rng = np.random.default_rng(1)
        llrs = rng.normal(size=288)
        np.testing.assert_allclose(
            deinterleave(interleave(llrs, 288, 6), 288, 6), llrs
        )

    def test_interleave_requires_whole_blocks(self):
        with pytest.raises(ValueError):
            interleave(np.zeros(100), 192, 4)
        with pytest.raises(ValueError):
            deinterleave(np.zeros(100), 192, 4)

    def test_single_block_is_permutation_of_input(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=96, dtype=np.uint8)
        out = interleave(bits, 96, 2)
        assert sorted(out.tolist()) == sorted(bits.tolist())
        assert not np.array_equal(out, bits)
