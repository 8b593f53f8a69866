"""Bit-exact agreement between the vectorised hot paths and their serial oracles.

The :mod:`repro.sim` engine leans on the vectorised inner loops — the
batched Viterbi add-compare-select in :mod:`repro.coding.viterbi`, the
GF(2)-convolution encoder and cached-keystream scrambler, the stacked
Givens QR and back substitution in :mod:`repro.mimo`, the batched
symbol demapper in :mod:`repro.modulation.demapper`, the whole-burst
receive chain in :mod:`repro.core.receiver` (planned FFT gather, batched
ZF/MMSE detection and block pilot correction) and the whole-burst transmit
chain in :mod:`repro.core.transmitter` (block interleave/map, block pilot
insertion, one planned IFFT, strided cyclic-prefix gather).  Each is
checked against a frozen one-unit-at-a-time oracle in ``tests/reference``:
``coding`` (serial encoder, scrambler, per-branch Viterbi), ``dsp``
(scalar CORDIC engine), ``mimo`` (per-matrix float and CORDIC QR, back
substitution), ``modulation`` (per-symbol hard and soft demapper) and
``core`` (per-symbol transmit loop, per-slot LTS FFTs, per-symbol
equalise loop, one-symbol pilot correction, fully serial
receive).  These property-style tests assert exact equality across random
codewords, constellations, noise levels, puncturing patterns, antenna
counts, channel impairments and full transceiver configurations.  The
oracles must also decode each other error-free, and the channel model,
which has no reference twin, must equal its public stage helpers composed
in physical order.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.awgn import awgn_noise, noise_variance_for_snr, occupied_power
from repro.channel.fading import FlatRayleighChannel, FrequencySelectiveChannel
from repro.channel.impairments import apply_carrier_frequency_offset, apply_iq_imbalance
from repro.channel.model import IdealChannel, MimoChannel
from repro.coding.convolutional import (
    PUNCTURE_PATTERNS,
    CodeRate,
    ConvolutionalCode,
    ConvolutionalEncoder,
)
from repro.coding.interleaver import deinterleave
from repro.coding.scrambler import Scrambler
from repro.coding.viterbi import ViterbiDecoder
from repro.core.config import TransceiverConfig
from repro.core.frame import FrontEndResult
from repro.core.pilots import PilotProcessor
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.dsp.cordic import Cordic
from repro.dsp.fixedpoint import (
    MULTIPLIER_FORMAT_18BIT,
    SAMPLE_FORMAT_16BIT,
    FixedPointFormat,
)
from repro.exceptions import (
    ChannelEstimationError,
    ConfigurationError,
    DecodingError,
    SynchronizationError,
)
from repro.mimo.channel_estimation import (
    ChannelEstimate,
    estimate_channel_from_lts,
    invert_channel_stack,
)
from repro.mimo.detector import MmseDetector, zf_detect
from repro.mimo.qr import qr_decompose_givens
from repro.mimo.rinv import invert_upper_triangular
from repro.modulation.constellations import Modulation
from repro.modulation.demapper import SymbolDemapper
from reference.coding import encode_serial, scramble_serial, viterbi_decode_serial
from reference.core import (
    correct_pilots_serial,
    estimate_channel_serial,
    receive_serial,
    transmit_serial,
)
from reference.dsp import Cordic as CordicSerial
from reference.mimo import (
    estimate_channel_from_lts_serial,
    invert_channel_serial,
    invert_upper_triangular_serial,
    mmse_weights_serial,
    qr_cordic_serial,
    qr_givens_serial,
)
from reference.modulation import hard_decisions_serial, soft_decisions_serial

ALL_RATES = [CodeRate.RATE_1_2, CodeRate.RATE_2_3, CodeRate.RATE_3_4]
ALL_MODULATIONS = [
    Modulation.BPSK,
    Modulation.QPSK,
    Modulation.QAM16,
    Modulation.QAM64,
]


#: Information bits per block: ``short`` blocks reach the empty block, whose
#: trellis is the tail alone; ``long`` ones run several ACS gather chunks.
BLOCK_LENGTHS = {"short": (0, 16), "long": (16, 240)}


class TestViterbiAcsAgreement:
    """Batched butterfly add-compare-select vs the per-branch reference."""

    @staticmethod
    def _received_stack(code, decision, n_blocks, n_bits, rng):
        encoder = ConvolutionalEncoder(code)
        rows = []
        for _ in range(n_blocks):
            info = rng.integers(0, 2, n_bits).astype(np.uint8)
            coded = encoder.encode(info).astype(np.float64)
            if decision == "hard":
                # Flip a random fraction of the coded bits.
                flips = rng.random(coded.size) < rng.uniform(0.0, 0.12)
                rows.append(np.where(flips, 1.0 - coded, coded))
            else:
                # Noisy LLRs around the +-1 antipodal mapping (0 -> +1).
                rows.append(
                    (1.0 - 2.0 * coded) + rng.normal(0.0, rng.uniform(0.3, 1.2), coded.size)
                )
        return np.array(rows)

    @pytest.mark.parametrize("n_blocks", [1, 2, 4])
    @pytest.mark.parametrize("length", sorted(BLOCK_LENGTHS))
    @pytest.mark.parametrize("decision", ["hard", "soft"])
    @pytest.mark.parametrize("rate", ALL_RATES)
    def test_stack_decodes_like_each_row_alone(self, rate, decision, length, n_blocks):
        seed = (
            10 * ALL_RATES.index(rate) + 4 * (decision == "soft") + 2 * (length == "long")
            + n_blocks
        )
        rng = np.random.default_rng(seed)
        code = ConvolutionalCode.ieee80211a(rate)
        decoder = ViterbiDecoder(code, decision=decision)
        for _ in range(3):
            n_bits = int(rng.integers(*BLOCK_LENGTHS[length]))
            stack = self._received_stack(code, decision, n_blocks, n_bits, rng)
            decoded = decoder.decode(stack, n_info_bits=n_bits)
            assert decoded.shape == (n_blocks, n_bits)
            for row, bits in zip(stack, decoded):
                expected = viterbi_decode_serial(code, decision, row, n_bits)
                np.testing.assert_array_equal(bits, expected)
                np.testing.assert_array_equal(decoder.decode(row, n_info_bits=n_bits), expected)

    @pytest.mark.parametrize("decision", ["hard", "soft"])
    def test_tie_break_matches_on_degenerate_input(self, decision):
        # An all-zero received block produces many equal path metrics; the
        # butterfly compare must resolve every tie exactly like the
        # reference's stable sort does.
        code = ConvolutionalCode.ieee80211a()
        decoder = ViterbiDecoder(code, decision=decision)
        stack = np.zeros((3, 2 * 40), dtype=np.float64)
        expected = viterbi_decode_serial(code, decision, stack[0], 34)
        for bits in decoder.decode(stack, n_info_bits=34):
            np.testing.assert_array_equal(bits, expected)

    def test_non_802_11a_code_decodes_like_the_reference(self):
        # K=3 (5, 7): four states against the 802.11a code's 64.
        code = ConvolutionalCode(constraint_length=3, generators=(0o5, 0o7))
        rng = np.random.default_rng(12)
        decoder = ViterbiDecoder(code)
        stack = self._received_stack(code, "hard", 2, 50, rng)
        for row, bits in zip(stack, decoder.decode(stack, n_info_bits=50)):
            np.testing.assert_array_equal(bits, viterbi_decode_serial(code, "hard", row, 50))

    @pytest.mark.parametrize("decision", ["hard", "soft"])
    def test_128_state_code_decodes_like_the_reference(self, decision):
        # K=8 (247, 371): 128 states, still a one-byte predecessor table.
        code = ConvolutionalCode(constraint_length=8, generators=(0o247, 0o371))
        rng = np.random.default_rng(13)
        decoder = ViterbiDecoder(code, decision=decision)
        for n_bits in (40, 3):
            stack = self._received_stack(code, decision, 3, n_bits, rng)
            decoded = decoder.decode(stack, n_info_bits=n_bits)
            for row, bits in zip(stack, decoded):
                np.testing.assert_array_equal(
                    bits, viterbi_decode_serial(code, decision, row, n_bits)
                )

    @pytest.mark.parametrize("rate", ALL_RATES)
    def test_depuncture_matches_serial_reference(self, rate):
        decoder = ViterbiDecoder(ConvolutionalCode.ieee80211a(rate))
        code = decoder.code
        rng = np.random.default_rng(7)
        for _ in range(5):
            n_steps = int(rng.integers(code.puncture_period, 60))
            # Serial reference: walk the puncture pattern bit by bit.
            kept = [
                (step, out)
                for step in range(n_steps)
                for out in range(code.n_outputs)
                if code.puncture_pattern[out, step % code.puncture_period]
            ]
            values = rng.normal(size=len(kept))
            expected_full = np.zeros((n_steps, code.n_outputs))
            expected_mask = np.zeros((n_steps, code.n_outputs))
            for value, (step, out) in zip(values, kept):
                expected_full[step, out] = value
                expected_mask[step, out] = 1.0
            full, mask = decoder.depuncture(values, n_steps)
            np.testing.assert_array_equal(full, expected_full)
            np.testing.assert_array_equal(mask, expected_mask)

    def test_depuncture_length_validation(self):
        decoder = ViterbiDecoder(ConvolutionalCode.ieee80211a(CodeRate.RATE_3_4))
        with pytest.raises(ValueError):
            decoder.depuncture(np.zeros(3), 6)
        with pytest.raises(ValueError):
            decoder.depuncture(np.zeros(100), 6)


CODING_LENGTHS = [0, 1, 126, 127, 128, 1000]


#: Mother codes the encoder is checked on: the 802.11a K=7 (133, 171) code
#: and a K=3 (5, 7) one, each under every 802.11a puncture pattern.
ENCODER_CODES = {"ieee80211a": (7, (0o133, 0o171)), "k3": (3, (0o5, 0o7))}


class TestEncoderScramblerAgreement:
    """GF(2)-convolution encoder and cached-keystream scrambler vs serial loops."""

    @pytest.mark.parametrize("mother", sorted(ENCODER_CODES))
    @pytest.mark.parametrize("rate", ALL_RATES)
    def test_encoder_matches_serial_loop(self, rate, mother):
        rng = np.random.default_rng(30 + ALL_RATES.index(rate))
        constraint_length, generators = ENCODER_CODES[mother]
        code = ConvolutionalCode(constraint_length, generators, PUNCTURE_PATTERNS[rate])
        for length in CODING_LENGTHS:
            bits = rng.integers(0, 2, length).astype(np.uint8)
            coded = ConvolutionalEncoder(code).encode(bits)
            np.testing.assert_array_equal(coded, encode_serial(code, bits))
            assert coded.size == code.coded_length(length)

    @pytest.mark.parametrize("rate", ALL_RATES)
    def test_every_encode_call_is_one_independent_block(self, rate):
        # One encoder, many calls, odd and empty lengths among them: each
        # call starts from the zero state and the first puncture column.
        rng = np.random.default_rng(40 + ALL_RATES.index(rate))
        code = ConvolutionalCode.ieee80211a(rate)
        encoder = ConvolutionalEncoder(code)
        for length in CODING_LENGTHS:
            bits = rng.integers(0, 2, length).astype(np.uint8)
            np.testing.assert_array_equal(encoder.encode(bits), encode_serial(code, bits))

    @pytest.mark.parametrize("seed", [0b1011101, 0b0000001, 0b1111111])
    def test_scrambler_matches_serial_lfsr(self, seed):
        rng = np.random.default_rng(seed)
        for length in CODING_LENGTHS:
            bits = rng.integers(0, 2, length).astype(np.uint8)
            np.testing.assert_array_equal(
                Scrambler(seed).process(bits), scramble_serial(Scrambler(seed), bits)
            )

    def test_every_process_call_starts_from_the_seed(self):
        rng = np.random.default_rng(50)
        scrambler = Scrambler()
        for length in CODING_LENGTHS:
            bits = rng.integers(0, 2, length).astype(np.uint8)
            np.testing.assert_array_equal(
                scrambler.process(bits), scramble_serial(Scrambler(), bits)
            )

    def test_scrambler_stack_scrambles_every_row_from_the_seed(self):
        rng = np.random.default_rng(51)
        stack = rng.integers(0, 2, (4, 300)).astype(np.uint8)
        scrambled = Scrambler().process(stack)
        for row, out in zip(stack, scrambled):
            np.testing.assert_array_equal(out, scramble_serial(Scrambler(), row))


def _random_stack(k, n, rng):
    scale = rng.uniform(0.01, 100.0, size=(k, 1, 1))
    return scale * (rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))


class TestStackedQrAgreement:
    """Stacked Givens QR and back substitution vs the per-matrix reference."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_stacked_qr_equals_per_matrix_reference(self, n):
        rng = np.random.default_rng(60 + n)
        stack = _random_stack(200, n, rng)
        q, r = qr_decompose_givens(stack)
        for k in range(stack.shape[0]):
            q_ref, r_ref = qr_givens_serial(stack[k])
            np.testing.assert_array_equal(q[k], q_ref)
            np.testing.assert_array_equal(r[k], r_ref)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_single_matrix_equals_reference(self, n):
        matrix = _random_stack(1, n, np.random.default_rng(70 + n))[0]
        q, r = qr_decompose_givens(matrix)
        q_ref, r_ref = qr_givens_serial(matrix)
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(r, r_ref)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_stacked_r_inverse_equals_per_matrix_reference(self, n):
        rng = np.random.default_rng(80 + n)
        _, r = qr_decompose_givens(_random_stack(200, n, rng))
        inverse = invert_upper_triangular(r)
        for k in range(r.shape[0]):
            np.testing.assert_array_equal(inverse[k], invert_upper_triangular_serial(r[k]))

    def test_channel_inversion_equals_per_subcarrier_reference(self):
        rng = np.random.default_rng(90)
        channel = _random_stack(64, 4, rng)
        active = np.ones(64, dtype=bool)
        active[[0, 27, 28, 29]] = False
        inverses, singular = invert_channel_stack(channel, active)
        assert not singular.any()
        for k in range(64):
            expected = invert_channel_serial(channel[k]) if active[k] else np.zeros((4, 4))
            np.testing.assert_array_equal(inverses[k], expected)

    def test_one_singular_subcarrier_is_flagged_alone(self):
        rng = np.random.default_rng(91)
        channel = _random_stack(52, 4, rng)
        channel[17] = np.ones((4, 4))  # rank one
        _, singular = invert_channel_stack(channel)
        assert np.flatnonzero(singular).tolist() == [17]
        channel[17] = np.nan
        _, singular = invert_channel_stack(channel)
        assert np.flatnonzero(singular).tolist() == [17]


CORDIC_ITERATIONS = [6, 16, 24]
CORDIC_FORMATS = [None, FixedPointFormat(18, 14), FixedPointFormat(10, 6)]
_coordinate = st.one_of(st.sampled_from([0.0, -0.0, -2.0, 2.0]), st.floats(-2.0, 2.0))
_turn = st.one_of(
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2]),
    st.floats(-np.pi, np.pi),
)


def _bits(values):
    """The float64 bit patterns of real or complex ``values``."""
    array = np.ascontiguousarray(values)
    if np.iscomplexobj(array):
        array = array.view(np.float64)
    return np.asarray(array, dtype=np.float64).view(np.uint64)


def _assert_same_bits(actual, expected):
    """Equal bit patterns, so -0.0 and +0.0 differ."""
    np.testing.assert_array_equal(_bits(actual), _bits(expected))


def _cordic_edge_stack(n, rng):
    """Random matrices plus a negative or imaginary diagonal, a zero first
    column and the identity."""
    mixed_diagonal = _random_stack(1, n, rng)[0]
    mixed_diagonal[np.diag_indices(n)] = [(-2.0, 1.5j)[i % 2] for i in range(n)]
    zero_column = _random_stack(1, n, rng)[0]
    zero_column[:, 0] = 0.0
    return np.stack(
        [_random_stack(1, n, rng)[0], mixed_diagonal, zero_column, np.eye(n)]
    )


class TestStackedCordicAgreement:
    """Array CORDIC engine and stacked CORDIC QR vs the scalar references."""

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(st.tuples(_coordinate, _coordinate, _turn), min_size=1, max_size=30),
        st.sampled_from(CORDIC_ITERATIONS),
        st.sampled_from(CORDIC_FORMATS),
    )
    def test_array_engine_equals_scalar_engine(self, triples, iterations, fmt):
        x, y, angle = (np.array(column) for column in zip(*triples))
        engine = Cordic(iterations, fixed_format=fmt)
        reference = CordicSerial(iterations, fixed_format=fmt)
        vectored = engine.vector(x, y)
        rotated = engine.rotate(x, y, angle)
        for k in range(len(triples)):
            expected = reference.vector(x[k], y[k])
            _assert_same_bits(
                [vectored.x[k], vectored.y[k], vectored.angle[k]],
                [expected.x, expected.y, expected.angle],
            )
            expected = reference.rotate(x[k], y[k], angle[k])
            _assert_same_bits(
                [rotated.x[k], rotated.y[k], rotated.angle[k]],
                [expected.x, expected.y, expected.angle],
            )

    @pytest.mark.parametrize("fmt", CORDIC_FORMATS)
    @pytest.mark.parametrize("iterations", CORDIC_ITERATIONS)
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_stacked_qr_equals_per_matrix_reference(self, n, iterations, fmt):
        stack = _cordic_edge_stack(n, np.random.default_rng(110 + n))
        q, r = qr_decompose_givens(stack, cordic=Cordic(iterations, fixed_format=fmt))
        for k in range(stack.shape[0]):
            q_ref, r_ref = qr_cordic_serial(
                stack[k], CordicSerial(iterations, fixed_format=fmt)
            )
            _assert_same_bits(q[k], q_ref)
            _assert_same_bits(r[k], r_ref)

    def test_channel_inversion_equals_per_subcarrier_reference(self):
        rng = np.random.default_rng(120)
        channel = _random_stack(64, 4, rng)
        channel[9, :, 1] = 0.0  # rank deficient: R[1, 1] comes out exactly zero
        active = np.ones(64, dtype=bool)
        active[[0, 27, 28, 29]] = False
        inverses, singular = invert_channel_stack(channel, active, cordic=Cordic())
        assert np.flatnonzero(singular).tolist() == [9]
        for k in range(64):
            expected = np.zeros((4, 4), dtype=np.complex128)
            if active[k] and k != 9:
                q, r = qr_cordic_serial(channel[k], CordicSerial())
                expected = invert_upper_triangular_serial(r) @ np.conj(q).T
            _assert_same_bits(inverses[k], expected)


class TestReceiverDecodeAgreement:
    """One batched decode pass vs decoding each stream on its own."""

    @pytest.mark.parametrize("soft_decision", [False, True])
    @pytest.mark.parametrize("rate", ALL_RATES)
    def test_streams_decode_like_the_serial_chain(self, rate, soft_decision):
        config = TransceiverConfig(code_rate=rate, soft_decision=soft_decision)
        seed = 100 + 10 * ALL_RATES.index(rate) + int(soft_decision)
        channel = MimoChannel(FlatRayleighChannel(rng=seed), snr_db=12.0, rng=seed + 1)
        burst = MimoTransmitter(config).transmit_random(300, rng=np.random.default_rng(seed))
        output = channel.transmit(burst.samples)
        receiver = MimoReceiver(config)
        result = receiver.receive(output.samples, 300, noise_variance=output.noise_variance)
        code = ConvolutionalCode.ieee80211a(rate)
        coded_length = code.coded_length(300)
        for stream in result.streams:
            demapped = receiver.demapper.demap(
                stream.equalized_symbols,
                soft=soft_decision,
                noise_variance=output.noise_variance,
            )
            received = deinterleave(
                demapped, config.coded_bits_per_symbol, config.bits_per_subcarrier
            )[:coded_length]
            decision = "soft" if soft_decision else "hard"
            decoded = viterbi_decode_serial(code, decision, received, 300)
            np.testing.assert_array_equal(
                stream.decoded_bits, scramble_serial(Scrambler(), decoded)
            )


REFERENCE_MODULES = ["coding", "core", "dsp", "mimo", "modulation"]


def test_src_never_imports_the_reference_oracles():
    # The guard must know every oracle module, so a new one cannot slip in
    # unguarded.
    reference = Path(__file__).resolve().parent / "reference"
    assert sorted(
        path.stem for path in reference.glob("*.py") if path.stem != "__init__"
    ) == REFERENCE_MODULES
    src = Path(__file__).resolve().parents[1] / "src"
    pattern = re.compile(
        r"^\s*((from|import)\s+(tests\.)?reference\b|from\s+tests\s+import\s+reference\b)",
        re.MULTILINE,
    )
    for name in REFERENCE_MODULES:
        for line in (
            f"from reference.{name} import oracle",
            f"import tests.reference.{name}",
            f"from tests.reference import {name}",
        ):
            assert pattern.search(line), line
    offenders = [
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


class TestDemapperBatchAgreement:
    """Batched demapping vs the per-symbol reference."""

    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_hard_decisions_agree(self, modulation):
        rng = np.random.default_rng(modulation.bits_per_symbol)
        demapper = SymbolDemapper(modulation)
        for _ in range(8):
            n_symbols = int(rng.integers(1, 200))
            symbols = rng.normal(size=n_symbols) + 1j * rng.normal(size=n_symbols)
            np.testing.assert_array_equal(
                demapper.hard_decisions(symbols),
                hard_decisions_serial(demapper, symbols),
            )

    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_soft_decisions_agree(self, modulation):
        rng = np.random.default_rng(100 + modulation.bits_per_symbol)
        demapper = SymbolDemapper(modulation)
        for _ in range(8):
            n_symbols = int(rng.integers(1, 120))
            noise_variance = float(rng.uniform(0.05, 2.0))
            symbols = rng.normal(size=n_symbols) + 1j * rng.normal(size=n_symbols)
            np.testing.assert_array_equal(
                demapper.soft_decisions(symbols, noise_variance=noise_variance),
                soft_decisions_serial(demapper, symbols, noise_variance=noise_variance),
            )

    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_2d_block_demap_equals_per_symbol_loop(self, modulation):
        # The receiver hands the demapper a whole (n_symbols, n_subcarriers)
        # block; the result must equal demapping row by row and concatenating.
        rng = np.random.default_rng(17)
        demapper = SymbolDemapper(modulation)
        block = rng.normal(size=(5, 12)) + 1j * rng.normal(size=(5, 12))
        for soft in (False, True):
            batched = demapper.demap(block, soft=soft, noise_variance=0.5)
            rowwise = np.concatenate(
                [demapper.demap(row, soft=soft, noise_variance=0.5) for row in block]
            )
            np.testing.assert_array_equal(batched, rowwise)

    def test_empty_input(self):
        demapper = SymbolDemapper("qpsk")
        assert demapper.hard_decisions(np.zeros(0)).size == 0
        assert hard_decisions_serial(demapper, np.zeros(0)).size == 0
        assert demapper.soft_decisions(np.zeros(0)).size == 0


def _receive_both_ways(config, channel, n_info_bits=360, seed=0, noise_variance=0.05):
    """Decode one faded burst with the receiver and with the serial oracle.

    Returns ``(batched, serial, burst)``.
    """
    transmitter = MimoTransmitter(config)
    burst = transmitter.transmit_random(n_info_bits, rng=np.random.default_rng(seed))
    samples = channel.transmit(burst.samples).samples if channel is not None else burst.samples
    receiver = MimoReceiver(config)
    batched = receiver.receive(samples, n_info_bits=n_info_bits, noise_variance=noise_variance)
    serial = receive_serial(receiver, samples, n_info_bits, noise_variance=noise_variance)
    return batched, serial, burst


def _assert_results_identical(batched, scalar):
    assert batched.lts_start == scalar.lts_start
    assert batched.diagnostics == scalar.diagnostics
    np.testing.assert_array_equal(
        batched.channel_estimate.matrices, scalar.channel_estimate.matrices
    )
    np.testing.assert_array_equal(
        batched.channel_estimate.inverses, scalar.channel_estimate.inverses
    )
    for stream_b, stream_s in zip(batched.streams, scalar.streams):
        np.testing.assert_array_equal(
            stream_b.equalized_symbols, stream_s.equalized_symbols
        )
        np.testing.assert_array_equal(stream_b.decoded_bits, stream_s.decoded_bits)


RX_IMPAIRMENT_CASES = [
    {"snr_db": 20.0, "sample_delay": 37},
    {"snr_db": 20.0, "cfo_normalized": 3e-4},
    {"snr_db": 20.0, "iq_amplitude_db": 0.4, "iq_phase_deg": 2.5},
    {"snr_db": 16.0, "cfo_normalized": -2e-4, "sample_delay": 9},
    {
        "snr_db": 18.0,
        "cfo_normalized": 1e-4,
        "sample_delay": 21,
        "iq_amplitude_db": 0.3,
        "iq_phase_deg": -2.0,
    },
]


class TestReceiverBatchAgreement:
    """Whole-burst receive chain vs the per-symbol, per-stream oracle.

    The full matrix the tentpole claims: hard and soft decisions, ZF and
    MMSE detection, with and without the 18-bit multiplier quantisation
    between the FFT and the detector — every decoded bit, equalised symbol,
    channel-estimate entry and diagnostic must be bit-identical.
    """

    @pytest.mark.parametrize("detector", ["zf", "mmse"])
    @pytest.mark.parametrize("soft_decision", [False, True])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_full_matrix_agrees_bit_exactly(self, detector, soft_decision, quantized):
        config = TransceiverConfig(
            detector=detector,
            soft_decision=soft_decision,
            rx_multiplier_format=MULTIPLIER_FORMAT_18BIT if quantized else None,
        )
        # Deterministic per-cell seed (hash() is randomised per process).
        seed = (
            400 * int(detector == "mmse")
            + 200 * int(soft_decision)
            + 100 * int(quantized)
            + 80
        )
        channel = MimoChannel(
            FlatRayleighChannel(rng=seed), snr_db=14.0, rng=seed + 1
        )
        batched, scalar, _ = _receive_both_ways(config, channel, seed=seed + 2)
        _assert_results_identical(batched, scalar)

    def test_frequency_selective_channel_agrees(self):
        config = TransceiverConfig(soft_decision=True)
        channel = MimoChannel(
            FrequencySelectiveChannel(n_taps=4, rng=50), snr_db=20.0, rng=51
        )
        batched, scalar, _ = _receive_both_ways(config, channel, seed=52)
        _assert_results_identical(batched, scalar)

    def test_ideal_channel_agrees(self):
        config = TransceiverConfig()
        batched, scalar, burst = _receive_both_ways(config, channel=None, seed=53)
        _assert_results_identical(batched, scalar)
        assert batched.total_bit_errors(burst.info_bits) == 0

    @pytest.mark.parametrize("case", RX_IMPAIRMENT_CASES)
    def test_impaired_channel_agrees(self, case):
        # Timing offset, CFO correction, IQ skew and the 16-bit ADC all sit
        # in front of the batched gathers; both paths must see them alike.
        config = TransceiverConfig(
            correct_cfo=True, soft_decision=True, rx_sample_format=SAMPLE_FORMAT_16BIT
        )
        seed = 700 + RX_IMPAIRMENT_CASES.index(case)
        channel = MimoChannel(FlatRayleighChannel(rng=seed), rng=seed + 1, **case)
        batched, scalar, _ = _receive_both_ways(config, channel, seed=seed + 2)
        _assert_results_identical(batched, scalar)

    @pytest.mark.parametrize("n_streams", [1, 2, 3, 4])
    def test_channel_estimation_agrees(self, n_streams):
        config = TransceiverConfig(n_antennas=n_streams)
        transmitter = MimoTransmitter(config)
        burst = transmitter.transmit_random(120, rng=np.random.default_rng(60))
        channel = MimoChannel(
            FlatRayleighChannel(n_streams, n_streams, rng=61), snr_db=25.0, rng=62
        )
        samples = channel.transmit(burst.samples).samples
        receiver = MimoReceiver(config)
        lts_start = receiver.synchronize(samples)
        (front,) = receiver.front_end_stack([samples], 120, [lts_start])
        est_b = front.channel_estimate
        est_s = estimate_channel_serial(receiver, samples, lts_start)
        np.testing.assert_array_equal(est_b.matrices, est_s.matrices)
        np.testing.assert_array_equal(est_b.inverses, est_s.inverses)


class TestVectorisedEstimationAgreement:
    """Broadcast LTS division and stacked MMSE solve vs per-subcarrier loops."""

    @pytest.mark.parametrize("fft_size", [64, 512])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lts_division_equals_per_subcarrier_loop(self, n, fft_size):
        rng = np.random.default_rng(300 + n + fft_size)
        reference = MimoReceiver(
            TransceiverConfig(n_antennas=n, fft_size=fft_size)
        ).channel_estimator.reference_lts
        active = np.abs(reference) > 0
        received = rng.normal(size=(3, n, n, fft_size)) + 1j * rng.normal(
            size=(3, n, n, fft_size)
        )
        stacked = estimate_channel_from_lts(received, reference, active)
        for item in range(3):
            expected = estimate_channel_from_lts_serial(received[item], reference, active)
            np.testing.assert_array_equal(
                estimate_channel_from_lts(received[item], reference, active), expected
            )
            np.testing.assert_array_equal(stacked[item], expected)

    def test_active_subcarrier_with_zero_reference_raises(self):
        reference = np.ones(64, dtype=np.complex128)
        reference[[0, 9]] = 0
        active = np.ones(64, dtype=bool)
        received = np.ones((2, 2, 64), dtype=np.complex128)
        with pytest.raises(ChannelEstimationError, match="subcarrier 0"):
            estimate_channel_from_lts(received, reference, active)
        with pytest.raises(ChannelEstimationError, match="subcarrier 0"):
            estimate_channel_from_lts_serial(received, reference, active)

    def test_mmse_weights_equal_per_subcarrier_solve(self):
        rng = np.random.default_rng(320)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            active = rng.random(64) < 0.8
            matrices = np.zeros((64, n, n), dtype=np.complex128)
            matrices[active] = _random_stack(int(active.sum()), n, rng)
            estimate = ChannelEstimate(matrices, np.zeros_like(matrices), active)
            variance = float(rng.uniform(1e-4, 2.0))
            np.testing.assert_array_equal(
                MmseDetector(estimate, variance)._weights,
                mmse_weights_serial(matrices, active, variance),
            )

    def test_stacked_mmse_weights_equal_each_burst_alone(self):
        rng = np.random.default_rng(321)
        active = np.ones(52, dtype=bool)
        matrices = _random_stack(5 * 52, 3, rng).reshape(5, 52, 3, 3)
        variances = rng.uniform(1e-3, 1.0, size=5)
        stacked = MmseDetector(
            ChannelEstimate(matrices, np.zeros_like(matrices), active), variances
        )
        for item in range(5):
            np.testing.assert_array_equal(
                stacked._weights[item],
                mmse_weights_serial(matrices[item], active, variances[item]),
            )

    def test_singular_gram_names_the_first_singular_subcarrier(self):
        rng = np.random.default_rng(322)
        matrices = _random_stack(16, 2, rng)
        for k in (5, 9):
            matrices[k, :, 1] = matrices[k, :, 0]  # two identical columns
        estimate = ChannelEstimate(matrices, np.zeros_like(matrices), np.ones(16, dtype=bool))
        with pytest.raises(DecodingError, match="subcarrier 5 "):
            MmseDetector(estimate, noise_variance=0.0)
        with pytest.raises(DecodingError, match="subcarrier 5$"):
            mmse_weights_serial(matrices, np.ones(16, dtype=bool), 0.0)


def _front_end_input(config, fading, seed, n_info_bits=96, **channel):
    """``(samples, true LTS start, noise variance)`` of one received burst."""
    transmitter = MimoTransmitter(config)
    burst = transmitter.transmit_random(n_info_bits, rng=np.random.default_rng(seed))
    output = MimoChannel(fading, rng=seed + 1, **channel).transmit(burst.samples)
    lts_start = burst.layout.sts_length + channel.get("sample_delay", 0)
    return output.samples, lts_start, output.noise_variance or 1.0


def _assert_front_ends_identical(stacked, alone):
    np.testing.assert_array_equal(stacked.coded, alone.coded)
    np.testing.assert_array_equal(stacked.equalized, alone.equalized)
    assert stacked.lts_start == alone.lts_start
    assert stacked.diagnostics == alone.diagnostics
    np.testing.assert_array_equal(
        stacked.channel_estimate.matrices, alone.channel_estimate.matrices
    )
    np.testing.assert_array_equal(
        stacked.channel_estimate.inverses, alone.channel_estimate.inverses
    )
    np.testing.assert_array_equal(
        stacked.channel_estimate.active_mask, alone.channel_estimate.active_mask
    )


STACK_CONFIGS = {
    "zf-hard": {},
    "zf-soft": {"soft_decision": True},
    "mmse-hard": {"detector": "mmse"},
    "mmse-soft": {"detector": "mmse", "soft_decision": True},
    "quantized": {
        "detector": "mmse",
        "soft_decision": True,
        "rx_sample_format": SAMPLE_FORMAT_16BIT,
        "rx_multiplier_format": MULTIPLIER_FORMAT_18BIT,
    },
    "cfo": {"correct_cfo": True, "soft_decision": True},
    "2x2-qpsk-r3/4": {"n_antennas": 2, "modulation": "qpsk", "code_rate": "3/4"},
    "512-point": {"fft_size": 512, "n_antennas": 2},
}


class TestStackedFrontEndAgreement:
    """``front_end_stack`` vs a stack of each burst alone.

    One stack mixes ideal, flat and frequency-selective channels, SNRs,
    sample delays and (with CFO correction on) carrier offsets, with some
    bursts synchronised and some handed their LTS start; every burst must
    come out bit for bit as it does on its own, and a burst the receiver
    gives up on must drop out alone, mid-stack, with the error its
    one-burst stack slots.
    """

    @staticmethod
    def _mixed_stack(config, seed):
        n = config.n_antennas
        cfo = config.correct_cfo
        cases = [
            (IdealChannel(n, n), {"snr_db": 30.0}),
            (FlatRayleighChannel(n, n, rng=seed), {"snr_db": 12.0, "sample_delay": 5}),
            (
                FrequencySelectiveChannel(n, n, n_taps=4, rng=seed + 2),
                {"snr_db": 20.0, "sample_delay": 17, "cfo_normalized": 2e-4 if cfo else 0.0},
            ),
            (
                FlatRayleighChannel(n, n, rng=seed + 4),
                {"snr_db": 3.0, "cfo_normalized": -1e-4 if cfo else 0.0},
            ),
        ]
        return [
            _front_end_input(config, fading, seed + 10 * index, **channel)
            for index, (fading, channel) in enumerate(cases)
        ]

    @staticmethod
    def _run(receiver, bursts, known_timing):
        samples = [burst[0] for burst in bursts]
        lts_starts = [
            burst[1] if known else None for burst, known in zip(bursts, known_timing)
        ]
        variances = [burst[2] for burst in bursts]
        stacked = receiver.front_end_stack(samples, 96, lts_starts, variances)
        assert len(stacked) == len(bursts)
        for outcome, (burst, lts_start, variance) in zip(
            stacked, zip(samples, lts_starts, variances)
        ):
            (alone,) = receiver.front_end_stack([burst], 96, [lts_start], [variance])
            if isinstance(outcome, DecodingError):
                assert type(alone) is type(outcome)
                assert str(alone) == str(outcome)
            else:
                _assert_front_ends_identical(outcome, alone)
        return stacked

    @pytest.mark.parametrize("name", list(STACK_CONFIGS))
    def test_every_burst_equals_its_one_burst_stack(self, name):
        config = TransceiverConfig(**STACK_CONFIGS[name])
        receiver = MimoReceiver(config)
        bursts = self._mixed_stack(config, seed=500 + 20 * list(STACK_CONFIGS).index(name))
        stacked = self._run(receiver, bursts, known_timing=[False, True, False, True])
        assert all(isinstance(outcome, FrontEndResult) for outcome in stacked)

    @pytest.mark.parametrize("detector", ["zf", "mmse"])
    def test_give_ups_drop_out_alone_mid_stack(self, detector):
        config = TransceiverConfig(n_antennas=2, modulation="qpsk", detector=detector)
        good = self._mixed_stack(config, seed=900)
        samples, lts_start, variance = good[1]
        no_signal = (np.full_like(samples, np.nan), None, variance)
        truncated = (samples[:, :600], None, variance)
        silent_antenna = samples.copy()
        silent_antenna[1] = 0.0  # rank-deficient estimate
        bursts = [
            good[0],
            no_signal,
            good[1],
            truncated,
            (silent_antenna, lts_start, variance),
            good[2],
        ]
        stacked = self._run(
            MimoReceiver(config), bursts, known_timing=[False, False, True, False, True, False]
        )
        assert isinstance(stacked[1], SynchronizationError)
        assert isinstance(stacked[3], DecodingError)
        assert isinstance(stacked[4], ChannelEstimationError)
        assert all(isinstance(stacked[i], FrontEndResult) for i in (0, 2, 5))
        # A kept traceback would hold the stack's samples in a frame cycle.
        assert stacked[1].__traceback__ is None and stacked[3].__traceback__ is None

    def test_singular_mmse_gram_drops_only_its_burst(self, monkeypatch):
        # A Gram matrix that is singular without a singular R: every
        # estimate gets two identical columns on subcarrier 7, and only the
        # burst whose noise variance vanishes in rounding against the Gram
        # diagonal (the receiver rejects an exact zero) loses its regulariser.
        config = TransceiverConfig(n_antennas=2, modulation="qpsk", detector="mmse")
        receiver = MimoReceiver(config)
        estimate = receiver.channel_estimator.estimate

        def duplicate_columns(received):
            outcomes = estimate(received)
            for outcome in outcomes:
                outcome.matrices[7, :, 1] = outcome.matrices[7, :, 0]
            return outcomes

        monkeypatch.setattr(receiver.channel_estimator, "estimate", duplicate_columns)
        bursts = self._mixed_stack(config, seed=950)[:3]
        bursts[1] = bursts[1][:2] + (1e-300,)
        stacked = self._run(receiver, bursts, known_timing=[True, True, True])
        assert isinstance(stacked[1], DecodingError)
        assert "subcarrier 7 " in str(stacked[1])
        assert isinstance(stacked[0], FrontEndResult)
        assert isinstance(stacked[2], FrontEndResult)

    def test_empty_and_malformed_stacks(self):
        receiver = MimoReceiver(TransceiverConfig(n_antennas=2))
        assert receiver.front_end_stack([], 96) == []
        with pytest.raises(ConfigurationError):
            receiver.front_end_stack([np.zeros((2, 2000))], 96, lts_starts=[None, None])
        with pytest.raises(ConfigurationError):
            receiver.front_end_stack([np.zeros((3, 2000))], 96)


class TestSharedStageAndDetectorStages:
    """``demodulate_stack`` once, ``detect_stack`` by every detector.

    The shared stage (sync, CFO, FFTs, channel estimate) knows nothing of
    the detector, so each detector's stage over rows of one shared result
    — in any order, repeated or not — must give exactly that detector's
    own ``front_end_stack``, give-ups included.
    """

    BASE = TransceiverConfig(n_antennas=2, modulation="qpsk", correct_cfo=True, soft_decision=True)

    def _stack(self):
        good = TestStackedFrontEndAgreement._mixed_stack(self.BASE, seed=1200)
        samples, _, variance = good[1]
        silent_antenna = samples.copy()
        silent_antenna[1] = 0.0  # rank-deficient estimate
        bursts = good + [(samples[:, :600], None, variance), (silent_antenna, None, variance)]
        return [burst[0] for burst in bursts], [burst[2] for burst in bursts]

    @pytest.mark.parametrize("detector", ["zf", "mmse"])
    def test_every_detector_reads_one_shared_stage(self, detector):
        samples, variances = self._stack()
        shared = MimoReceiver(self.BASE).demodulate_stack(samples, 96, None, variances)
        receiver = MimoReceiver(replace(self.BASE, detector=detector))
        own = receiver.front_end_stack(samples, 96, None, variances)
        rows = [5, 3, 0, 0, 2, 4, 1]
        detected = receiver.detect_stack(shared, rows)
        assert len(detected) == len(rows)
        for row, outcome in zip(rows, detected):
            if isinstance(own[row], DecodingError):
                assert type(outcome) is type(own[row])
                assert str(outcome) == str(own[row])
            else:
                _assert_front_ends_identical(outcome, own[row])
        assert sum(isinstance(outcome, FrontEndResult) for outcome in own) == 4
        # Reading it leaves the shared result as it was.
        again = receiver.detect_stack(shared)
        for outcome, alone in zip(again, own):
            if isinstance(alone, FrontEndResult):
                _assert_front_ends_identical(outcome, alone)

    @pytest.mark.parametrize(
        "changes",
        [{"modulation": "16qam"}, {"code_rate": "3/4"}, {"rx_multiplier_format": MULTIPLIER_FORMAT_18BIT}],
        ids=["modulation", "code-rate", "multiplier-format"],
    )
    def test_a_receiver_configured_otherwise_is_refused(self, changes):
        samples, variances = self._stack()
        shared = MimoReceiver(self.BASE).demodulate_stack(samples[:1], 96, None, variances[:1])
        other = MimoReceiver(replace(self.BASE, detector="mmse", **changes))
        with pytest.raises(ConfigurationError):
            other.detect_stack(shared)


class TestTransmitterBatchAgreement:
    """Stacked transmit chain vs the per-symbol oracle and bursts sent alone."""

    @pytest.mark.parametrize("rate", ALL_RATES)
    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_bursts_identical_across_the_code_grid(self, modulation, rate):
        config = TransceiverConfig(modulation=modulation, code_rate=rate)
        seed = 1000 + 10 * modulation.bits_per_symbol + ALL_RATES.index(rate)
        rng = np.random.default_rng(seed)
        bits = [
            rng.integers(0, 2, size=int(rng.integers(40, 700)), dtype=np.uint8)
            for _ in range(config.n_streams)
        ]
        transmitter = MimoTransmitter(config)
        batched = transmitter.transmit(bits)
        samples, frequency_symbols, coded_bits = transmit_serial(transmitter, bits)
        np.testing.assert_array_equal(batched.samples, samples)
        np.testing.assert_array_equal(batched.frequency_symbols, frequency_symbols)
        for coded_b, coded_s in zip(batched.coded_bits, coded_bits):
            np.testing.assert_array_equal(coded_b, coded_s)

    @pytest.mark.parametrize("n_streams", [1, 2, 3, 4])
    def test_antenna_counts_agree(self, n_streams):
        config = TransceiverConfig(n_antennas=n_streams)
        rng = np.random.default_rng(90 + n_streams)
        bits = [
            rng.integers(0, 2, size=300, dtype=np.uint8) for _ in range(n_streams)
        ]
        transmitter = MimoTransmitter(config)
        samples, _, _ = transmit_serial(transmitter, bits)
        np.testing.assert_array_equal(transmitter.transmit(bits).samples, samples)

    def test_pilot_insert_block_matches_per_symbol_insert(self):
        numerology = TransceiverConfig().numerology
        processor = PilotProcessor(numerology)
        rng = np.random.default_rng(91)
        block = rng.normal(size=(4, 7, 64)) + 1j * rng.normal(size=(4, 7, 64))
        inserted = processor.insert_block(block, start_index=3)
        for stream in range(4):
            for n in range(7):
                np.testing.assert_array_equal(
                    inserted[stream, n], processor.insert(block[stream, n], 3 + n)
                )

    @pytest.mark.parametrize("detector", ["zf", "mmse"])
    @pytest.mark.parametrize("soft_decision", [False, True])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_full_link_matrix_decodes_identically(
        self, detector, soft_decision, quantized
    ):
        # The transmit path is the only knob: the production and the
        # oracle burst cross the same channel realisation and the same
        # receiver, so every decoded bit and equalised symbol must be
        # bit-identical.
        config = TransceiverConfig(
            detector=detector,
            soft_decision=soft_decision,
            rx_multiplier_format=MULTIPLIER_FORMAT_18BIT if quantized else None,
        )
        seed = (
            800 * int(detector == "mmse")
            + 400 * int(soft_decision)
            + 200 * int(quantized)
            + 3000
        )
        rng = np.random.default_rng(seed)
        bits = [
            rng.integers(0, 2, size=360, dtype=np.uint8)
            for _ in range(config.n_streams)
        ]
        transmitter = MimoTransmitter(config)
        receiver = MimoReceiver(config)
        results = []
        for samples in (
            transmitter.transmit(bits).samples,
            transmit_serial(transmitter, bits)[0],
        ):
            channel = MimoChannel(
                FlatRayleighChannel(rng=seed + 1), snr_db=16.0, rng=seed + 2
            )
            output = channel.transmit(samples)
            results.append(
                receiver.receive(
                    output.samples,
                    n_info_bits=360,
                    noise_variance=output.noise_variance,
                )
            )
        _assert_results_identical(*results)

    def test_512_point_numerology_agrees(self):
        config = TransceiverConfig(fft_size=512)
        rng = np.random.default_rng(92)
        bits = [rng.integers(0, 2, size=2000, dtype=np.uint8) for _ in range(4)]
        transmitter = MimoTransmitter(config)
        samples, frequency_symbols, _ = transmit_serial(transmitter, bits)
        batched = transmitter.transmit(bits)
        np.testing.assert_array_equal(batched.samples, samples)
        np.testing.assert_array_equal(batched.frequency_symbols, frequency_symbols)

    @pytest.mark.parametrize("rate", ALL_RATES)
    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_a_stack_equals_each_burst_alone(self, modulation, rate):
        # One to six bursts, at lengths that are and are not a multiple of
        # the puncture period and of four.
        config = TransceiverConfig(modulation=modulation, code_rate=rate)
        index = 3 * ALL_MODULATIONS.index(modulation) + ALL_RATES.index(rate)
        n_bits = (7, 48, 121, 256, 333, 700)[index % 6]
        stack = np.random.default_rng(4000 + index).integers(
            0, 2, size=(1 + index % 6, config.n_streams, n_bits), dtype=np.uint8
        )
        _assert_stack_equals_each_burst_alone(MimoTransmitter(config), stack)

    def test_512_point_stack_equals_each_burst_alone(self):
        config = TransceiverConfig(fft_size=512)
        stack = np.random.default_rng(93).integers(0, 2, size=(3, 4, 2000), dtype=np.uint8)
        _assert_stack_equals_each_burst_alone(MimoTransmitter(config), stack)


def _assert_stack_equals_each_burst_alone(transmitter, stack):
    """Every burst of one stacked ``transmit`` equals that burst transmitted
    alone and the per-symbol oracle: samples, frequency symbols, coded bits."""
    bursts = transmitter.transmit(stack)
    assert len(bursts) == len(stack)
    for burst, bits in zip(bursts, stack):
        alone = transmitter.transmit(list(bits))
        samples, frequency_symbols, coded_bits = transmit_serial(transmitter, bits)
        for expected in (
            (alone.samples, alone.frequency_symbols, alone.coded_bits),
            (samples, frequency_symbols, coded_bits),
        ):
            np.testing.assert_array_equal(burst.samples, expected[0])
            np.testing.assert_array_equal(burst.frequency_symbols, expected[1])
            np.testing.assert_array_equal(np.array(burst.coded_bits), np.array(expected[2]))
        np.testing.assert_array_equal(np.array(burst.info_bits), bits)
        assert burst.n_ofdm_symbols == alone.n_ofdm_symbols


class TestOracleLoopback:
    """The serial oracles form a working link on their own.

    Agreement with a broken oracle proves nothing, so the per-symbol
    transmit and receive chains must decode each other error-free.
    """

    @pytest.mark.parametrize("modulation", ALL_MODULATIONS)
    def test_serial_chain_loopback_error_free(self, modulation):
        config = TransceiverConfig(modulation=modulation)
        rng = np.random.default_rng(40 + modulation.bits_per_symbol)
        bits = [rng.integers(0, 2, size=200, dtype=np.uint8) for _ in range(4)]
        samples, _, _ = transmit_serial(MimoTransmitter(config), bits)
        result = receive_serial(MimoReceiver(config), samples, 200)
        assert result.total_bit_errors(bits) == 0


CHANNEL_IMPAIRMENT_CASES = [
    {},
    {"snr_db": 12.0},
    {"cfo_normalized": 2e-4},
    {"sample_delay": 23},
    {"iq_amplitude_db": 0.5, "iq_phase_deg": 2.0},
    {"snr_db": 8.0, "sample_delay": 11, "iq_amplitude_db": 0.3, "iq_phase_deg": -3.0},
    {
        "snr_db": 15.0,
        "cfo_normalized": 1e-4,
        "sample_delay": 17,
        "iq_amplitude_db": 1.0,
        "iq_phase_deg": 4.0,
    },
]


def _channel_stage_by_stage(channel, x, rng):
    """The documented stage order of :class:`MimoChannel`, one helper per stage.

    DAC, fading, delay padding, CFO, AWGN calibrated on the occupied
    samples, receive-mixer IQ imbalance; a zero parameter disables its
    stage.
    """
    y = channel.tx_quantization.quantize_complex(x)
    y = channel.fading.apply(y)
    y = np.pad(y, ((0, 0), (channel.sample_delay, 0)))
    if channel.cfo_normalized:
        y = apply_carrier_frequency_offset(y, channel.cfo_normalized)
    noise_variance = None
    if channel.snr_db is not None:
        noise_variance = noise_variance_for_snr(channel.snr_db, occupied_power(y))
        y = y + awgn_noise(y.shape, noise_variance, rng)
    if channel.iq_amplitude_db or channel.iq_phase_deg:
        y = apply_iq_imbalance(y, channel.iq_amplitude_db, channel.iq_phase_deg)
    return y, noise_variance


class TestChannelStageComposition:
    """``MimoChannel.transmit`` is the composition of its public stage helpers.

    The channel has no reference twin; this pins its one pipeline to the
    tested helpers in physical order.  Noise consumes the generator, so
    each side gets a freshly seeded one — identical seeds, identical draws.
    """

    @pytest.mark.parametrize("case", CHANNEL_IMPAIRMENT_CASES)
    @pytest.mark.parametrize("fading", ["ideal", "flat", "selective"])
    def test_every_impairment_combination_composes(self, fading, case):
        rng = np.random.default_rng(5000)
        x = rng.normal(size=(4, 1500)) + 1j * rng.normal(size=(4, 1500))
        if fading == "flat":
            model = FlatRayleighChannel(4, 4, rng=np.random.default_rng(5001))
        elif fading == "selective":
            model = FrequencySelectiveChannel(4, 4, rng=np.random.default_rng(5001))
        else:
            model = None
        channel = MimoChannel(
            model,
            tx_quantization=SAMPLE_FORMAT_16BIT,
            rng=np.random.default_rng(5002),
            **case,
        )
        output = channel.transmit(x)
        expected, noise_variance = _channel_stage_by_stage(
            channel, x, np.random.default_rng(5002)
        )
        np.testing.assert_array_equal(output.samples, expected)
        assert output.noise_variance == noise_variance
        assert output.samples.shape == (4, 1500 + case.get("sample_delay", 0))


class TestPilotBlockAgreement:
    """PilotProcessor.correct_block vs the one-symbol oracle."""

    def test_random_blocks_agree(self):
        numerology = TransceiverConfig().numerology
        processor = PilotProcessor(numerology)
        rng = np.random.default_rng(70)
        block = rng.normal(size=(4, 9, 64)) + 1j * rng.normal(size=(4, 9, 64))
        corrected, diag = processor.correct_block(block)
        for stream in range(4):
            for n in range(9):
                expected, expected_diag = correct_pilots_serial(processor, block[stream, n], n)
                np.testing.assert_array_equal(corrected[stream, n], expected)
                assert diag.common_phase[stream, n] == expected_diag.common_phase
                assert diag.tau[stream, n] == expected_diag.tau
                assert diag.pilot_magnitude[stream, n] == expected_diag.pilot_magnitude

    def test_start_index_selects_polarity(self):
        numerology = TransceiverConfig().numerology
        processor = PilotProcessor(numerology)
        rng = np.random.default_rng(71)
        block = rng.normal(size=(2, 3, 64)) + 1j * rng.normal(size=(2, 3, 64))
        corrected, _ = processor.correct_block(block, start_index=5)
        for stream in range(2):
            for n in range(3):
                expected, _ = correct_pilots_serial(processor, block[stream, n], 5 + n)
                np.testing.assert_array_equal(corrected[stream, n], expected)

    def test_zero_pilot_symbol_left_untouched(self):
        # A symbol whose pilot correlation is exactly zero takes the
        # oracle's early return; the block path must reproduce it with zeroed
        # diagnostics and unchanged data values.
        numerology = TransceiverConfig().numerology
        processor = PilotProcessor(numerology)
        rng = np.random.default_rng(72)
        block = rng.normal(size=(1, 2, 64)) + 1j * rng.normal(size=(1, 2, 64))
        block[0, 1, list(numerology.pilot_bins)] = 0.0
        corrected, diag = processor.correct_block(block)
        expected, expected_diag = correct_pilots_serial(processor, block[0, 1], 1)
        np.testing.assert_array_equal(corrected[0, 1], expected)
        assert diag.common_phase[0, 1] == expected_diag.common_phase == 0.0
        assert diag.tau[0, 1] == expected_diag.tau == 0.0
        assert diag.pilot_magnitude[0, 1] == expected_diag.pilot_magnitude == 0.0

    def test_shape_validation(self):
        processor = PilotProcessor(TransceiverConfig().numerology)
        with pytest.raises(ValueError):
            processor.correct_block(np.zeros(64, dtype=complex))
        with pytest.raises(ValueError):
            processor.correct_block(np.zeros((3, 32), dtype=complex))


class TestShapeContractsOnTheHotPath:
    """The batched hot path rejects a burst whose axes are out of order.

    The agreement tests above prove the batched and per-symbol paths are
    bit-identical; this proves the detector's one shape check fires on a
    reordered burst, so a refactor that transposes burst axes fails here
    rather than in a sweep.
    """

    def test_zf_detect_rejects_a_transposed_burst(self):
        with pytest.raises(ConfigurationError, match="FFT axis"):
            # (n_rx, fft_size, n_symbols) where the detector demands
            # (n_rx, n_symbols, fft_size): the subcarrier axis no longer
            # matches the inverses' (fft_size, n_tx, n_rx).
            zf_detect(
                np.zeros((4, 64, 6), dtype=np.complex128),
                np.zeros((64, 4, 4), dtype=np.complex128),
            )
