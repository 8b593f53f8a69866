"""Tests for repro.dsp.fft."""

import numpy as np
import pytest

from repro.dsp.fft import (
    FftPlan,
    bit_reverse_indices,
    fft,
    get_plan,
    ifft,
)

from reference.dsp import fft_concatenating, ifft_concatenating, ofdm_modulate


class TestBitReverse:
    def test_known_permutation_8(self):
        np.testing.assert_array_equal(
            bit_reverse_indices(8), [0, 4, 2, 6, 1, 5, 3, 7]
        )

    def test_is_a_permutation(self):
        for n in (16, 64, 256):
            indices = bit_reverse_indices(n)
            assert sorted(indices.tolist()) == list(range(n))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            bit_reverse_indices(12)


class TestFftCorrectness:
    @pytest.mark.parametrize("n", [4, 16, 64, 512])
    def test_matches_numpy_forward(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-9)

    @pytest.mark.parametrize("n", [4, 64, 256])
    def test_matches_numpy_inverse(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(ifft(x), np.fft.ifft(x), atol=1e-9)

    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        np.testing.assert_allclose(ifft(fft(x)), x, atol=1e-9)

    def test_multidimensional_input_last_axis(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
        np.testing.assert_allclose(fft(x), np.fft.fft(x, axis=-1), atol=1e-9)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fft(np.ones(10))

    def test_parseval(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=128) + 1j * rng.normal(size=128)
        freq = fft(x)
        assert np.sum(np.abs(x) ** 2) == pytest.approx(np.sum(np.abs(freq) ** 2) / 128)


class TestFftPlan:
    def test_get_plan_is_cached_per_size(self):
        assert get_plan(64) is get_plan(64)
        assert get_plan(64) is not get_plan(128)

    def test_plan_tables_cover_every_stage(self):
        plan = get_plan(64)
        assert plan.stages == 6
        assert len(plan.forward_twiddles) == 6
        for stage, twiddles in enumerate(plan.forward_twiddles, start=1):
            assert twiddles.size == (1 << stage) // 2
        np.testing.assert_array_equal(plan.bit_reverse, bit_reverse_indices(64))

    def test_plan_forward_matches_module_fft(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
        np.testing.assert_array_equal(FftPlan(64).forward(x), fft(x))
        np.testing.assert_array_equal(FftPlan(64).inverse(x), ifft(x))

    def test_plan_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            get_plan(64).forward(np.ones(32, dtype=complex))
        with pytest.raises(ValueError):
            FftPlan(12)

    def test_inverse_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            get_plan(64).inverse(np.ones(128, dtype=complex))

    @pytest.mark.parametrize("n,stages", [(8, 3), (64, 6), (512, 9)])
    def test_one_radix_2_stage_per_bit(self, n, stages):
        plan = get_plan(n)
        assert plan.stages == stages
        assert len(plan.forward_twiddles) == stages

    def test_plan_round_trip_on_an_antenna_stack(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(4, 512)) + 1j * rng.normal(size=(4, 512))
        plan = get_plan(512)
        np.testing.assert_allclose(plan.inverse(plan.forward(x)), x, atol=1e-9)


def _with_special_values(shape, seed):
    """Random complex samples with signed zeros, infinities and NaNs mixed in."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    flat = x.reshape(-1)
    specials = [
        complex(0.0, -0.0),
        complex(-0.0, 0.0),
        complex(-0.0, -0.0),
        complex(np.inf, -np.inf),
        complex(-np.inf, 1.0),
        complex(np.nan, 0.0),
        complex(2.0, -np.nan),
    ]
    picks = rng.choice(flat.size, size=min(flat.size, 3 * len(specials)), replace=False)
    for slot, position in enumerate(picks):
        flat[position] = specials[slot % len(specials)]
    return x


class TestInPlaceStages:
    """The ping-pong stages against the concatenating oracle, bit for bit
    (signed zeros and NaN payloads included)."""

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3), (2, 1, 3)])
    @pytest.mark.parametrize("special", [False, True], ids=["finite", "special"])
    def test_transforms_are_byte_identical(self, n, lead, special):
        shape = lead + (n,)
        seed = n * 100 + len(lead)
        if special:
            x = _with_special_values(shape, seed)
        else:
            rng = np.random.default_rng(seed)
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        with np.errstate(invalid="ignore"):
            pairs = [(fft(x), fft_concatenating(x)), (ifft(x), ifft_concatenating(x))]
        for got, expected in pairs:
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_strided_input_is_left_untouched(self):
        stack = _with_special_values((4, 3, 64), 7)
        view = stack.transpose(1, 0, 2)
        before = stack.copy()
        with np.errstate(invalid="ignore"):
            got = fft(view)
            expected = fft_concatenating(view)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        np.testing.assert_array_equal(stack.view(np.uint64), before.view(np.uint64))


class TestOfdmModulation:
    def test_cyclic_prefix_is_tail_copy(self):
        rng = np.random.default_rng(16)
        freq = rng.normal(size=64) + 1j * rng.normal(size=64)
        symbol = ofdm_modulate(freq, 16)
        assert symbol.size == 80
        np.testing.assert_allclose(symbol[:16], symbol[64:], atol=1e-12)

    def test_roundtrip_through_demodulation(self):
        rng = np.random.default_rng(17)
        freq = rng.normal(size=64) + 1j * rng.normal(size=64)
        symbol = ofdm_modulate(freq, 16)
        np.testing.assert_allclose(fft(symbol[16:]), freq, atol=1e-9)

    def test_zero_prefix(self):
        freq = np.ones(64, dtype=complex)
        assert ofdm_modulate(freq, 0).size == 64

    def test_invalid_prefix_length(self):
        with pytest.raises(ValueError):
            ofdm_modulate(np.ones(64, dtype=complex), 65)

