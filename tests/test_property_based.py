"""Property-based tests (hypothesis) on the core data structures and invariants."""

import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.convolutional import CodeRate, ConvolutionalCode, ConvolutionalEncoder
from repro.coding.interleaver import deinterleave, interleave, interleaver_permutation
from repro.coding.scrambler import Scrambler
from repro.coding.viterbi import ViterbiDecoder
from repro.dsp.cordic import Cordic
from repro.dsp.fft import fft, ifft
from repro.dsp.fixedpoint import FixedPointFormat
from repro.mimo.matrix import frobenius_error, hermitian, is_upper_triangular
from repro.mimo.qr import qr_decompose_givens
from repro.mimo.rinv import invert_upper_triangular
from repro.modulation.constellations import Modulation
from repro.modulation.demapper import SymbolDemapper
from repro.modulation.mapper import SymbolMapper
from repro.utils.bits import bits_to_int, int_to_bits, pack_bits, unpack_bits

# Shared strategies -----------------------------------------------------------

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=256)
small_bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=96)


class TestBitUtilityProperties:
    @given(st.integers(0, 2**24 - 1))
    def test_int_bits_roundtrip(self, value):
        width = max(value.bit_length(), 1)
        assert bits_to_int(int_to_bits(value, width)) == value

    @given(bit_lists, st.sampled_from([1, 2, 4, 6, 8]))
    def test_pack_unpack_roundtrip(self, bits, group):
        usable = (len(bits) // group) * group
        if usable == 0:
            return
        arr = np.array(bits[:usable], dtype=np.uint8)
        np.testing.assert_array_equal(unpack_bits(pack_bits(arr, group), group), arr)


class TestScramblerProperties:
    @given(bit_lists, st.integers(1, 127))
    def test_scramble_is_an_involution(self, bits, seed):
        data = np.array(bits, dtype=np.uint8)
        once = Scrambler(seed=seed).process(data)
        twice = Scrambler(seed=seed).process(once)
        np.testing.assert_array_equal(twice, data)


class TestInterleaverProperties:
    @given(
        st.sampled_from([(48, 1), (96, 2), (192, 4), (288, 6)]),
        st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_and_content_preservation(self, params, seed):
        n_cbps, n_bpsc = params
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n_cbps, dtype=np.uint8)
        interleaved = interleave(bits, n_cbps, n_bpsc)
        assert sorted(interleaved.tolist()) == sorted(bits.tolist())
        np.testing.assert_array_equal(deinterleave(interleaved, n_cbps, n_bpsc), bits)

    @given(st.sampled_from([(48, 1), (96, 2), (192, 4), (288, 6), (384, 4)]))
    def test_permutation_is_bijection(self, params):
        n_cbps, n_bpsc = params
        perm = interleaver_permutation(n_cbps, n_bpsc)
        assert np.unique(perm).size == n_cbps


class TestCodingProperties:
    @settings(deadline=None, max_examples=25)
    @given(small_bit_lists, st.sampled_from(list(CodeRate)))
    def test_encode_decode_roundtrip_error_free(self, bits, rate):
        data = np.array(bits, dtype=np.uint8)
        code = ConvolutionalCode.ieee80211a(rate)
        coded = ConvolutionalEncoder(code).encode(data)
        decoded = ViterbiDecoder(code).decode(coded, n_info_bits=data.size)
        np.testing.assert_array_equal(decoded, data)

    @settings(deadline=None, max_examples=25)
    @given(small_bit_lists)
    def test_single_coded_bit_error_always_corrected(self, bits):
        data = np.array(bits, dtype=np.uint8)
        coded = ConvolutionalEncoder().encode(data)
        corrupted = coded.copy()
        corrupted[len(corrupted) // 2] ^= 1
        decoded = ViterbiDecoder().decode(corrupted, n_info_bits=data.size)
        np.testing.assert_array_equal(decoded, data)

    @given(small_bit_lists)
    def test_coded_length_formula(self, bits):
        data = np.array(bits, dtype=np.uint8)
        encoder = ConvolutionalEncoder()
        coded = encoder.encode(data)
        assert coded.size == encoder.code.coded_length(data.size)


class TestModulationProperties:
    @settings(deadline=None)
    @given(st.sampled_from(list(Modulation)), st.integers(0, 2**32 - 1))
    def test_map_demap_roundtrip(self, modulation, seed):
        rng = np.random.default_rng(seed)
        mapper = SymbolMapper(modulation)
        bits = rng.integers(0, 2, mapper.bits_per_symbol * 16, dtype=np.uint8)
        symbols = mapper.map_bits(bits)
        recovered = SymbolDemapper(modulation).hard_decisions(symbols)
        np.testing.assert_array_equal(recovered, bits)

    @settings(deadline=None)
    @given(st.sampled_from(list(Modulation)), st.integers(0, 2**32 - 1))
    def test_soft_llr_signs_consistent_with_bits(self, modulation, seed):
        rng = np.random.default_rng(seed)
        mapper = SymbolMapper(modulation)
        bits = rng.integers(0, 2, mapper.bits_per_symbol * 8, dtype=np.uint8)
        symbols = mapper.map_bits(bits)
        llrs = SymbolDemapper(modulation).soft_decisions(symbols, noise_variance=0.1)
        np.testing.assert_array_equal((llrs < 0).astype(np.uint8), bits)


class TestDspProperties:
    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([16, 64, 128]))
    def test_fft_ifft_inverse(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(ifft(fft(x)), x, atol=1e-8)

    @settings(deadline=None)
    @given(
        st.floats(-0.99, 0.99, allow_nan=False),
        st.floats(-0.99, 0.99, allow_nan=False),
    )
    def test_vectoring_mode_matches_hypot(self, x, y):
        result = Cordic(iterations=20).vector(x, y)
        assert result.magnitude == pytest.approx(np.hypot(x, y), abs=1e-4)

    @settings(deadline=None)
    @given(
        st.floats(-0.9, 0.9, allow_nan=False),
        st.floats(-0.9, 0.9, allow_nan=False),
        st.floats(-3.1, 3.1, allow_nan=False),
    )
    def test_cordic_rotation_preserves_magnitude(self, x, y, angle):
        result = Cordic(iterations=20).rotate(x, y, angle)
        assert np.hypot(result.x, result.y) == pytest.approx(np.hypot(x, y), abs=1e-3)

    @given(
        st.floats(-100.0, 100.0, allow_nan=False),
        st.integers(4, 24),
        st.integers(0, 12),
    )
    def test_fixed_point_error_bounded(self, value, word_length, frac_bits):
        frac_bits = min(frac_bits, word_length - 1)
        fmt = FixedPointFormat(word_length=word_length, frac_bits=frac_bits)
        quantised = float(fmt.quantize(value))
        if fmt.min_value <= value <= fmt.max_value:
            assert abs(quantised - value) <= fmt.resolution / 2 + 1e-12
        else:
            assert quantised in (fmt.min_value, fmt.max_value)


class TestResultStoreProperties:
    store_keys = st.text(
        alphabet=string.ascii_lowercase + string.digits + "-_", min_size=1, max_size=40
    )
    payloads = st.dictionaries(
        st.text(string.ascii_lowercase, min_size=1, max_size=8),
        st.one_of(st.integers(-(2**40), 2**40), st.floats(allow_nan=False), st.text(max_size=16), st.booleans(), st.none()),
        max_size=5,
    )

    @settings(deadline=None, max_examples=30)
    @given(records=st.dictionaries(store_keys, payloads, min_size=1, max_size=20))
    def test_store_roundtrips_arbitrary_records(self, tmp_path_factory, records):
        from repro.sim.store import ResultStore

        store = ResultStore(tmp_path_factory.mktemp("store"))
        for key, payload in records.items():
            store.put(key, payload)
        assert store.keys() == set(records)
        for key, payload in records.items():
            assert store.get(key) == payload
        assert store.get_many(records) == records

    @settings(deadline=None, max_examples=30)
    @given(
        records=st.dictionaries(store_keys, payloads, min_size=1, max_size=10),
        rnd=st.randoms(use_true_random=False),
    )
    def test_last_record_wins_in_any_put_order(self, tmp_path_factory, records, rnd):
        from repro.sim.store import ResultStore

        store = ResultStore(tmp_path_factory.mktemp("store"))
        # Interleave stale puts with the final ones; only the final value
        # per key may survive, regardless of append order.
        puts = [(key, {"stale": True}) for key in records]
        puts += [(key, payload) for key, payload in records.items()]
        rnd.shuffle(puts)
        final = {}
        for key, payload in puts:
            store.put(key, payload)
            final[key] = payload
        for key, payload in final.items():
            assert store.get(key) == payload


class TestPointKeyProperties:
    spec_kwargs = st.fixed_dictionaries(
        {
            "snr_db": st.lists(
                st.sampled_from([0.0, 5.0, 10.0, 15.0, 20.0, 30.0]),
                min_size=1,
                max_size=4,
                unique=True,
            ),
            "modulations": st.lists(
                st.sampled_from(["bpsk", "qpsk", "16qam", "64qam"]),
                min_size=1,
                max_size=3,
                unique=True,
            ),
            "detectors": st.lists(
                st.sampled_from(["zf", "mmse"]), min_size=1, max_size=2, unique=True
            ),
            "base_seed": st.integers(0, 2**16),
            "n_bursts": st.integers(1, 64),
        }
    )

    @settings(deadline=None, max_examples=50)
    @given(spec_kwargs)
    def test_point_keys_are_unique_within_a_grid(self, kwargs):
        # Every grid cell — including cells differing only in detector,
        # which share a seed payload — must get a distinct store key.
        from repro.sim import SweepSpec

        spec = SweepSpec(**kwargs)
        keys = [point.content_key(spec) for point in spec.points()]
        assert len(set(keys)) == len(keys) == spec.n_points

    @settings(deadline=None, max_examples=50)
    @given(spec_kwargs)
    def test_point_keys_invariant_under_axis_reordering(self, kwargs):
        # Reversing every axis permutes the grid but must hash each cell
        # to the same key: keys are content, not position.
        from repro.sim import SweepSpec

        spec = SweepSpec(**kwargs)
        reordered = spec.subset(
            snr_db=tuple(reversed(spec.snr_db)),
            modulations=tuple(reversed(spec.modulations)),
            detectors=tuple(reversed(spec.detectors)),
        )
        forward = {point.content_key(spec) for point in spec.points()}
        backward = {point.content_key(reordered) for point in reordered.points()}
        assert forward == backward

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(st.sampled_from([0.0, 4.0, 8.0, 12.0, 16.0, 20.0]), min_size=1, max_size=5, unique=True),
        st.lists(st.sampled_from([0.0, 4.0, 8.0, 12.0, 16.0, 20.0]), min_size=1, max_size=5, unique=True),
        st.integers(0, 2**16),
    )
    def test_overlapping_grids_share_exactly_the_intersection(
        self, snrs_a, snrs_b, base_seed
    ):
        # Two grids differing only in their SNR axis share a store record
        # exactly for the SNRs they have in common.
        from repro.sim import SweepSpec

        spec_a = SweepSpec(snr_db=tuple(snrs_a), base_seed=base_seed)
        spec_b = SweepSpec(snr_db=tuple(snrs_b), base_seed=base_seed)
        keys_a = {p.snr_db: p.content_key(spec_a) for p in spec_a.points()}
        keys_b = {p.snr_db: p.content_key(spec_b) for p in spec_b.points()}
        shared = set(keys_a.values()) & set(keys_b.values())
        expected = {keys_a[snr] for snr in set(snrs_a) & set(snrs_b)}
        assert shared == expected

    @settings(deadline=None, max_examples=50)
    @given(spec_kwargs, st.integers(1, 100))
    def test_extra_bursts_key_is_distinct_and_deterministic(self, kwargs, extra):
        from repro.sim import SweepSpec

        spec = SweepSpec(**kwargs)
        point = spec.points()[0]
        base = point.content_key(spec)
        refined = point.content_key(spec, extra_bursts=extra)
        assert refined != base
        assert refined == point.content_key(spec, extra_bursts=extra)


class TestQrProperties:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_qr_invariants(self, seed, n):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = qr_decompose_givens(h)
        assert frobenius_error(q @ r, h) < 1e-9
        assert is_upper_triangular(r, tolerance=1e-9)
        np.testing.assert_allclose(hermitian(q) @ q, np.eye(n), atol=1e-9)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_triangular_inverse_invariant(self, seed, n):
        rng = np.random.default_rng(seed)
        r = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        for i in range(n):
            r[i, i] = 0.5 + abs(r[i, i])
        inverse = invert_upper_triangular(r)
        np.testing.assert_allclose(r @ inverse, np.eye(n), atol=1e-9)
        assert is_upper_triangular(inverse, tolerance=1e-9)
