"""Failure-injection tests: how the receiver behaves when things go wrong.

A reproduction that only exercises the happy path hides the error-handling
semantics a downstream user relies on; these tests pin them down: corrupted
or truncated bursts, mis-configured receivers, degenerate channels and
mis-timed synchronisation must either raise the documented exceptions or
degrade into bit errors — never return silently-wrong "successful" results.
"""

import warnings

import numpy as np
import pytest

from repro.channel.awgn import awgn_noise, noise_variance_for_snr
from repro.channel.fading import FlatRayleighChannel, FrequencySelectiveChannel, rayleigh_matrix
from repro.channel.model import IdealChannel, MimoChannel, build_fading_model
from repro.coding.convolutional import CodeRate, ConvolutionalCode, ConvolutionalEncoder
from repro.coding.interleaver import deinterleave, interleave, interleaver_permutation
from repro.coding.scrambler import Scrambler, pilot_polarity_sequence
from repro.coding.viterbi import ViterbiDecoder
from repro.core.config import OfdmNumerology, TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import transmit_bursts
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import (
    ChannelEstimationError,
    ConfigurationError,
    DecodingError,
    SynchronizationError,
)
from repro.hardware.qrd import QrdArray
from repro.hardware.resources import ResourceUsage
from repro.core.pilots import PilotProcessor
from repro.sync.cfo import estimate_cfo_from_repetition
from repro.sync.time_sync import TimeSynchronizer
from repro.core.preamble import PreambleGenerator, burst_layout
from repro.core.frame import ReceiveResult
from repro.dsp.cordic import Cordic, cordic_gain
from repro.dsp.fft import fft
from repro.dsp.fixedpoint import FixedPointFormat
from repro.mimo.channel_estimation import ChannelEstimate, ChannelEstimator, invert_channel_stack
from repro.mimo.qr import qr_decompose_givens
from repro.mimo.rinv import invert_upper_triangular
from repro.mimo.detector import MmseDetector
from repro.modulation.constellations import Modulation
from repro.modulation.demapper import SymbolDemapper
from repro.sim import ImpairmentSpec, SweepRunner, SweepSpec
from repro.sim.spec import SweepPoint, SweepPointResult, SweepResult
from repro.sim.stats import (
    _normal_quantile,
    allocate_bursts,
    clopper_pearson_interval,
    wilson_interval,
)
from repro.sim.queue import MultiprocessingQueue, make_queue
from repro.stream import (
    DownlinkScheduler,
    PoissonTraffic,
    StreamingReceiver,
)
from repro.stream.traffic import arrival_times
from repro.utils.bits import count_bit_errors, pack_bits, unpack_bits
from repro.utils.rng import make_rng


@pytest.fixture
def tx_rx(paper_config):
    return MimoTransmitter(paper_config), MimoReceiver(paper_config)


class TestDegenerateChannels:
    def test_rank_deficient_channel_raises_estimation_error(self, tx_rx, random_burst):
        transmitter, receiver = tx_rx
        burst = random_burst(transmitter, 100, np.random.default_rng(0))
        # Two receive antennas wired to the same signal -> singular channel.
        matrix = np.ones((4, 4), dtype=complex)
        channel = MimoChannel(FlatRayleighChannel(matrix=matrix))
        received = channel.transmit(burst.samples).samples
        with pytest.raises(ChannelEstimationError):
            receiver.receive(received, n_info_bits=100, lts_start=160)

    def test_dead_antenna_still_decodes_other_streams_or_errors(self, tx_rx, random_burst):
        # Zeroing one receive antenna makes the 4x4 inversion singular.
        transmitter, receiver = tx_rx
        burst = random_burst(transmitter, 100, np.random.default_rng(1))
        received = burst.samples.copy()
        received[2] = 0
        with pytest.raises(ChannelEstimationError):
            receiver.receive(received, n_info_bits=100, lts_start=160)


class TestCorruptedBursts:
    def test_wrong_lts_position_produces_errors_not_silence(self, tx_rx, random_burst):
        transmitter, receiver = tx_rx
        burst = random_burst(transmitter, 200, np.random.default_rng(2))
        channel = MimoChannel(FlatRayleighChannel(rng=3), snr_db=30.0, rng=4)
        received = channel.transmit(burst.samples).samples
        # Decode with a deliberately wrong timing hypothesis (one OFDM symbol
        # early, i.e. inside the preamble): the decoded bits must differ from
        # the transmitted ones rather than being silently "correct".
        result = receiver.receive(received, n_info_bits=200, lts_start=160 - 80)
        assert result.total_bit_errors(burst.info_bits) > 0

    def test_wrong_lts_position_past_burst_end_raises(self, tx_rx, random_burst):
        transmitter, receiver = tx_rx
        burst = random_burst(transmitter, 200, np.random.default_rng(2))
        # A hypothesis one OFDM symbol late leaves too few samples for the
        # claimed payload and must raise rather than decode a partial burst.
        with pytest.raises(DecodingError):
            receiver.receive(burst.samples, n_info_bits=200, lts_start=160 + 80)

    def test_truncated_burst_raises(self, tx_rx, random_burst):
        transmitter, receiver = tx_rx
        burst = random_burst(transmitter, 200, np.random.default_rng(5))
        with pytest.raises(DecodingError):
            receiver.receive(burst.samples[:, :700], n_info_bits=200, lts_start=160)

    def test_noise_only_input_does_not_return_clean_success(self, paper_config):
        receiver = MimoReceiver(paper_config)
        rng = np.random.default_rng(6)
        noise = rng.normal(size=(4, 2000)) + 1j * rng.normal(size=(4, 2000))
        # Whatever the sync locks onto, the result must either raise (burst
        # too short / singular estimate) or contain decoded bits -- in which
        # case they are meaningless but well-formed.
        try:
            result = receiver.receive(noise, n_info_bits=100)
        except (DecodingError, ChannelEstimationError, SynchronizationError):
            return
        assert result.decoded_bits.shape == (4, 100)

    def test_claiming_more_bits_than_transmitted_raises(self, tx_rx, random_burst):
        transmitter, receiver = tx_rx
        burst = random_burst(transmitter, 96, np.random.default_rng(7))
        with pytest.raises(DecodingError):
            receiver.receive(burst.samples, n_info_bits=5000, lts_start=160)

    @pytest.mark.parametrize(
        "soft, scale",
        [(False, 1e307), (True, 1e307), (True, 1e200)],
        ids=["hard-fft-overflow", "soft-fft-overflow", "soft-llr-overflow"],
    )
    def test_overflowing_data_section_gives_up_alone(self, soft, scale):
        # Finite samples whose data FFT overflows leave non-finite equalised
        # symbols: hard decisions sliced them into garbage bits, and the
        # soft decoder's refusal sank every burst of the stack.  Smaller
        # symbols still overflow the soft demapper's LLRs.
        config = TransceiverConfig(soft_decision=soft)
        transmitter, receiver = MimoTransmitter(config), MimoReceiver(config)
        payload = np.stack(
            [transmitter.random_payload(256, np.random.default_rng(seed)) for seed in (1, 2)]
        )
        bad, clean = transmitter.transmit(payload)
        overflowing = bad.samples.copy()
        overflowing[:, bad.layout.data_start :] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = receiver.receive_stack([overflowing, clean.samples], 256, [160, 160])
        assert isinstance(outcomes[0], DecodingError)
        assert "finite" in str(outcomes[0])
        (alone,) = receiver.receive_stack([clean.samples], 256, [160])
        np.testing.assert_array_equal(outcomes[1].coded, alone.coded)
        np.testing.assert_array_equal(outcomes[1].decoded_bits, alone.decoded_bits)
        assert outcomes[1].total_bit_errors(clean.info_bits) == 0


class TestConfigurationMismatches:
    def test_modulation_mismatch_causes_bit_errors(self, random_burst):
        tx_config = TransceiverConfig(modulation="16qam")
        rx_config = TransceiverConfig(modulation="qpsk")
        transmitter = MimoTransmitter(tx_config)
        receiver = MimoReceiver(rx_config)
        # 42 information bits fit in a single OFDM symbol for both
        # modulations, so the mismatch shows up as wrong bits rather than a
        # burst-length error.
        burst = random_burst(transmitter, 42, np.random.default_rng(8))
        result = receiver.receive(burst.samples, n_info_bits=42, lts_start=160)
        assert result.total_bit_errors(burst.info_bits) > 0

    def test_antenna_count_mismatch_rejected(self, random_burst):
        transmitter = MimoTransmitter(TransceiverConfig(n_antennas=4))
        receiver = MimoReceiver(TransceiverConfig(n_antennas=2))
        burst = random_burst(transmitter, 96, np.random.default_rng(9))
        with pytest.raises(ConfigurationError):
            receiver.receive(burst.samples, n_info_bits=96)


def _identity_estimate(fft_size=64):
    """A one-burst stacked estimate of identity channels."""
    eye = np.broadcast_to(np.eye(4, dtype=complex), (1, fft_size, 4, 4)).copy()
    return ChannelEstimate(
        matrices=eye, inverses=eye, active_mask=np.ones(fft_size, dtype=bool)
    )


def _pilots():
    return PilotProcessor(OfdmNumerology.for_fft_size(64))


def _receive_result(n_streams):
    """A decoded-burst record of ``n_streams`` empty streams."""
    return ReceiveResult(
        coded=np.zeros((n_streams, 0)),
        equalized=np.zeros((n_streams, 0, 48), dtype=complex),
        lts_start=0,
        channel_estimate=None,
        estimated_cfo=0.0,
        mean_pilot_phase=0.0,
        decoded_bits=np.zeros((n_streams, 0), dtype=np.uint8),
    )


def _two_points_per_snr():
    spec = SweepSpec(snr_db=(10.0,), detectors=("zf", "mmse"))
    return SweepResult(
        spec=spec,
        points=[SweepPointResult(point, 0, 64, 0, 1, False) for point in spec.points()],
    )


class _BackwardsTraffic:
    """A traffic model whose frames arrive before the previous one."""

    def intervals(self, n_frames, rng=None):
        return -np.ones(n_frames)


class _ShortTraffic:
    """A traffic model that returns one gap too few."""

    def intervals(self, n_frames, rng=None):
        return np.ones(n_frames - 1)


class _NanTraffic:
    """A traffic model whose gaps are not numbers."""

    def intervals(self, n_frames, rng=None):
        return np.full(n_frames, np.nan)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MimoChannel(FlatRayleighChannel(n_rx=2, n_tx=2, rng=3)).transmit(
            MimoTransmitter(TransceiverConfig()).transmit(np.zeros((1, 4, 96)))[0].samples
        ),
        lambda: DownlinkScheduler(n_users=0),
        lambda: DownlinkScheduler(n_users=2.5),
        lambda: DownlinkScheduler(n_users=2, frames_per_user=-1),
        lambda: DownlinkScheduler(n_users=2, frames_per_user=2.5),
        lambda: DownlinkScheduler(n_users=2, n_info_bits=96.7),
        lambda: DownlinkScheduler(n_users=2, base_seed=-1),
        lambda: StreamingReceiver(n_info_bits=96.7),
        lambda: burst_layout(TransceiverConfig(), 96.0),
        lambda: burst_layout(TransceiverConfig(), 96.5),
        lambda: burst_layout(TransceiverConfig(), np.array([96])),
        lambda: MimoReceiver().demodulate_stack([np.zeros((4, 2000))], 96.0),
        lambda: MimoReceiver().receive_stack([np.zeros((4, 2000))], 96.5),
        lambda: DownlinkScheduler(n_users=2, mode="fifo"),
        lambda: DownlinkScheduler(n_users=2, snr_db=float("nan")),
        lambda: DownlinkScheduler(n_users=2, mode="weighted", weights=[1.0]),
        lambda: DownlinkScheduler(n_users=2, mode="weighted", weights=[1.0, 0.0]),
        lambda: DownlinkScheduler(n_users=2, mode="weighted", weights=[float("nan"), 1.0]),
        lambda: DownlinkScheduler(n_users=2, mode="weighted", weights=[float("inf"), 1.0]),
        lambda: SweepSpec(snr_db=(float("nan"),)),
        lambda: SweepSpec(snr_db=(20.0, float("inf"))),
        lambda: SweepSpec(channels=("rician",)),
        lambda: SweepSpec(n_bursts=0),
        lambda: SweepSpec(modulations=("256qam",)),
        lambda: SweepSpec(code_rates=("5/6",)),
        lambda: SweepSpec(n_info_bits=0.5),
        lambda: SweepSpec(fft_size=48),
        lambda: SweepSpec(modulations=("qpsk", "8psk")),
        lambda: SweepSpec(code_rates=("1/2", "7/8")),
        lambda: SweepSpec(n_info_bits=0),
        lambda: SweepSpec(n_info_bits=-96),
        lambda: SweepSpec(n_info_bits="96"),
        lambda: SweepSpec(fft_size=32),
        lambda: SweepSpec(fresh_fading_per_burst=1),
        lambda: SweepSpec(known_timing=0),
        lambda: SweepSpec(soft_decision="no"),
        lambda: SweepSpec(stream_counts=(2.5,)),
        lambda: SweepSpec(stream_counts=(0,)),
        lambda: SweepSpec(impairments=("bad",)),
        lambda: SweepPoint(0, "qpsk", "1/2", 4, "ideal", "zf", 10.0, impairment="bad"),
        lambda: ImpairmentSpec(tx_format="16bit"),
        lambda: ImpairmentSpec(rx_format=16),
        lambda: ImpairmentSpec(rx_multiplier_format=(18, 16)),
        lambda: TransceiverConfig(fft_size=16),
        lambda: TransceiverConfig(fft_size=32),
        lambda: TransceiverConfig(modulation="256qam"),
        lambda: TransceiverConfig(code_rate="5/6"),
        lambda: TransceiverConfig(rx_sample_format="16bit"),
        lambda: TransceiverConfig(n_antennas=2.5),
        lambda: TransceiverConfig(fft_size=64.0),
        lambda: TransceiverConfig(soft_decision="no"),
        lambda: TransceiverConfig(use_cordic_channel_inversion=1),
        lambda: TransceiverConfig(correct_cfo="yes"),
        lambda: PreambleGenerator(64.0),
        lambda: ImpairmentSpec(cfo_normalized=float("nan")),
        lambda: ImpairmentSpec(iq_amplitude_db=float("inf")),
        lambda: ImpairmentSpec(iq_phase_deg=float("nan")),
        lambda: ImpairmentSpec(sample_delay=-1),
        lambda: ImpairmentSpec(sample_delay=1.5),
        lambda: SweepRunner(SweepSpec(), n_workers=0, cache=False),
        lambda: SweepRunner(SweepSpec(), batch_size=0, cache=False),
        lambda: SweepRunner(SweepSpec(), n_workers=1, cache=False).run_adaptive(0),
        lambda: SweepRunner(SweepSpec(), n_workers=1, cache=False).run_adaptive(8, rounds=0),
        lambda: make_queue("cluster"),
        lambda: SweepRunner(SweepSpec(), n_workers=1, cache=False, queue="cluster"),
        lambda: MultiprocessingQueue(0),
        lambda: build_fading_model("rician", 4, rng=0),
        lambda: PoissonTraffic(float("nan")),
        lambda: _receive_result(n_streams=0).total_bit_errors([np.zeros(8, dtype=np.uint8)]),
        lambda: _receive_result(n_streams=2).total_bit_errors([np.zeros(0), np.zeros(1)]),
        lambda: MimoChannel(snr_db=float("nan"), rng=0),
        lambda: MimoChannel(snr_db=float("inf"), rng=0),
        lambda: MimoChannel(impairment={"sample_delay": 3}),
        lambda: awgn_noise(8, float("nan"), rng=0),
        lambda: DownlinkScheduler(n_users=1, channel="rician"),
        lambda: PoissonTraffic(10.0).intervals(-1, rng=0),
        lambda: arrival_times(_BackwardsTraffic(), 2, rng=0),
        lambda: arrival_times(_ShortTraffic(), 2, rng=0),
        lambda: arrival_times(_NanTraffic(), 2, rng=0),
        lambda: MimoChannel().transmit(np.zeros((3, 100), dtype=complex)),
        lambda: MmseDetector(_identity_estimate(), noise_variances=[-1.0]),
        lambda: IdealChannel().apply(np.zeros((3, 100), dtype=complex)),
        lambda: FlatRayleighChannel(n_rx=0, rng=0),
        lambda: FlatRayleighChannel(n_rx=2, n_tx=2, matrix=np.eye(4)),
        lambda: FlatRayleighChannel(rng=0).apply(np.zeros((3, 100), dtype=complex)),
        lambda: FrequencySelectiveChannel(taps=np.ones((4, 3, 2))),
        lambda: FrequencySelectiveChannel(rng=0).apply(np.zeros((3, 100), dtype=complex)),
        lambda: FrequencySelectiveChannel(taps=np.ones((4, 4, 8))).frequency_response(4),
        lambda: ConvolutionalCode("5/6"),
        lambda: interleaver_permutation(50, 1),
        lambda: interleaver_permutation(48, 0),
        lambda: interleave(np.zeros(100), 192, 4),
        lambda: deinterleave(np.zeros(100), 192, 4),
        lambda: Scrambler(seed=0),
        lambda: pilot_polarity_sequence(0),
        lambda: ViterbiDecoder(decision="fuzzy"),
        lambda: ViterbiDecoder().decode(np.zeros((1, 12)), n_info_bits=-1),
        lambda: ViterbiDecoder().decode(np.zeros((1, 32)), n_info_bits=10.0),
        lambda: SymbolDemapper("16qam").demap(np.zeros(4, dtype=complex), soft=True, noise_variance=0.0),
        lambda: SymbolDemapper("16qam").demap(np.zeros(4, dtype=complex), soft=True, noise_variance=float("nan")),
        lambda: SymbolDemapper("16qam").demap(np.zeros(4, dtype=complex), soft=True, noise_variance=float("inf")),
        lambda: MimoTransmitter().transmit([[np.array([0.5, 0, 1, 1])] * 4]),
        lambda: MimoTransmitter().transmit([[np.array([np.nan, 0, 1, 1])] * 4]),
        lambda: MimoTransmitter().transmit([[np.array([1 + 1j, 0, 1, 1])] * 4]),
        lambda: MimoTransmitter().transmit([[np.array([2, 0, 1, 1])] * 4]),
        lambda: MimoTransmitter().transmit([[np.zeros((2, 8), dtype=np.uint8)] * 4]),
        lambda: MimoTransmitter().transmit(np.zeros((4, 3, 8), dtype=np.uint8)),
        lambda: MimoTransmitter().transmit(np.full((4, 4, 8), 2, dtype=np.uint8)),
        lambda: MimoTransmitter().transmit([[np.ones(8), np.ones(8), np.ones(8), np.ones(9)]]),
        lambda: MimoTransmitter().random_payload(-5, np.random.default_rng(0)),
        lambda: MimoTransmitter().random_payload(2.5, np.random.default_rng(0)),
        lambda: ConvolutionalEncoder().encode(np.zeros((2, 2, 5), dtype=np.uint8)),
        lambda: transmit_bursts(MimoTransmitter(), [MimoChannel()], 96, [1, 2]),
        lambda: QrdArray(n=0),
        lambda: ResourceUsage(aluts=-1),
        lambda: FixedPointFormat(1, 0),
        lambda: FixedPointFormat(16.0, 14),
        lambda: FixedPointFormat(16.5, 14.5),
        lambda: FixedPointFormat.from_dict({"word_length": 16, "frac_bits": 14, "rounding": "nearest"}),
        lambda: Cordic(iterations=0),
        lambda: Cordic(iterations=2.5),
        lambda: cordic_gain(2.5),
        lambda: fft(np.zeros(48)),
        lambda: qr_decompose_givens(np.ones((1, 3, 4))),
        lambda: invert_upper_triangular(np.ones((1, 4, 4))),
        lambda: invert_channel_stack(np.zeros((4, 4, 3))),
        lambda: ChannelEstimator(np.array([])),
        lambda: pack_bits([0, 1], 0),
        lambda: pack_bits([0, 1, 1], 2),
        lambda: unpack_bits([1], 0),
        lambda: unpack_bits([4], 2),
        lambda: count_bit_errors([0, 1], [0, 1, 1]),
        lambda: count_bit_errors([0, 1], [0, 2]),
        lambda: _normal_quantile(1.0),
        lambda: wilson_interval(1, 10, confidence=1.0),
        lambda: wilson_interval(11, 10),
        lambda: clopper_pearson_interval(1, 10, confidence=0.0),
        lambda: clopper_pearson_interval(-1, 10),
        lambda: allocate_bursts({0: 0.1}, {0: 10}, {0: 10}, budget=-1),
        lambda: allocate_bursts({0: 0.1}, {1: 10}, {0: 10}, budget=4),
        lambda: _pilots().insert_block(np.zeros(64, dtype=complex)),
        lambda: _pilots().insert_block(np.zeros((1, 32), dtype=complex)),
        lambda: _pilots().correct_block(np.zeros(64, dtype=complex)),
        lambda: _pilots().correct_block(np.zeros((1, 32), dtype=complex)),
        lambda: estimate_cfo_from_repetition(np.zeros((1, 64), dtype=complex), 0, 0, 2),
        lambda: burst_layout(TransceiverConfig(), 96).lts_slot_start(4),
        lambda: noise_variance_for_snr(10.0, signal_power=0.0),
        lambda: _two_points_per_snr().ber_curve(),
        lambda: make_rng(None),
        lambda: awgn_noise(8, 1.0, rng=None),
        lambda: rayleigh_matrix(4, 4, rng=None),
        lambda: FlatRayleighChannel(),
        lambda: FrequencySelectiveChannel(),
        lambda: MimoChannel(snr_db=20.0),
        lambda: PoissonTraffic(10.0).intervals(2, rng=None),
        lambda: arrival_times(PoissonTraffic(10.0), 2, rng=None),
    ],
    ids=[
        "channel-2x2-with-4-antenna-burst",
        "scheduler-no-users",
        "scheduler-fractional-users",
        "scheduler-negative-frames",
        "scheduler-fractional-frames",
        "scheduler-fractional-info-bits",
        "scheduler-negative-seed",
        "streaming-receiver-fractional-info-bits",
        "burst-layout-float-info-bits",
        "burst-layout-fractional-info-bits",
        "burst-layout-array-info-bits",
        "demodulate-float-info-bits",
        "receive-stack-fractional-info-bits",
        "scheduler-unknown-mode",
        "scheduler-nan-snr",
        "scheduler-weights-shape",
        "scheduler-zero-weight",
        "scheduler-nan-weight",
        "scheduler-infinite-weight",
        "sweep-nan-snr",
        "sweep-infinite-snr",
        "sweep-unknown-channel",
        "sweep-no-bursts",
        "sweep-unknown-modulation",
        "sweep-unknown-code-rate",
        "sweep-fractional-info-bits",
        "sweep-fft-size-not-a-power-of-two",
        "sweep-second-modulation-unknown",
        "sweep-second-code-rate-unknown",
        "sweep-zero-info-bits",
        "sweep-negative-info-bits",
        "sweep-string-info-bits",
        "sweep-fft-size-without-numerology",
        "sweep-int-fresh-fading-flag",
        "sweep-int-known-timing-flag",
        "sweep-string-soft-decision-flag",
        "sweep-fractional-stream-count",
        "sweep-zero-stream-count",
        "sweep-impairment-not-a-spec",
        "point-impairment-not-a-spec",
        "impairment-string-tx-format",
        "impairment-int-rx-format",
        "impairment-tuple-multiplier-format",
        "config-fft-size-16",
        "config-fft-size-32",
        "config-unknown-modulation",
        "config-unknown-code-rate",
        "config-string-sample-format",
        "config-fractional-antennas",
        "config-float-fft-size",
        "config-string-soft-decision-flag",
        "config-int-cordic-flag",
        "config-string-cfo-flag",
        "preamble-float-fft-size",
        "impairment-nan-cfo",
        "impairment-infinite-iq-amplitude",
        "impairment-nan-iq-phase",
        "impairment-negative-delay",
        "impairment-fractional-delay",
        "runner-no-workers",
        "runner-zero-batch",
        "adaptive-no-extra-bursts",
        "adaptive-no-rounds",
        "queue-unknown-backend",
        "runner-unknown-queue-backend",
        "process-queue-no-workers",
        "fading-unknown-model",
        "poisson-nan-rate",
        "receive-result-stream-count-mismatch",
        "receive-result-ragged-reference",
        "channel-nan-snr",
        "channel-infinite-snr",
        "channel-impairment-not-a-spec",
        "awgn-nan-variance",
        "scheduler-unknown-channel",
        "poisson-negative-frames",
        "arrivals-negative-gap",
        "arrivals-one-gap-short",
        "arrivals-nan-gap",
        "channel-burst-antenna-mismatch",
        "mmse-negative-noise-variance",
        "ideal-channel-burst-antenna-mismatch",
        "flat-fading-no-antennas",
        "flat-fading-matrix-shape",
        "flat-fading-burst-antenna-mismatch",
        "selective-fading-taps-shape",
        "selective-fading-burst-antenna-mismatch",
        "selective-fading-fft-shorter-than-taps",
        "code-unknown-rate",
        "interleaver-block-not-multiple-of-16",
        "interleaver-no-bits-per-subcarrier",
        "interleave-partial-block",
        "deinterleave-partial-block",
        "scrambler-zero-seed",
        "pilot-polarity-empty",
        "viterbi-unknown-decision",
        "viterbi-negative-info-bits",
        "viterbi-fractional-info-bits",
        "demapper-zero-noise-variance",
        "demapper-nan-noise-variance",
        "demapper-inf-noise-variance",
        "transmit-fractional-bit",
        "transmit-nan-bit",
        "transmit-complex-bit",
        "transmit-bit-value-2",
        "transmit-2d-stream",
        "transmit-stack-stream-count",
        "transmit-stack-bit-value-2",
        "transmit-ragged-streams",
        "transmit-random-negative-bits",
        "transmit-random-fractional-bits",
        "encode-3d-stack",
        "air-round-generator-count",
        "systolic-qrd-empty",
        "resource-usage-negative",
        "fixed-point-one-bit-word",
        "fixed-point-float-word-length",
        "fixed-point-fractional-format",
        "fixed-point-unknown-rounding",
        "cordic-no-iterations",
        "cordic-fractional-iterations",
        "cordic-gain-fractional-iterations",
        "fft-size-not-a-power-of-two",
        "qr-not-square",
        "r-inverse-not-triangular",
        "channel-inversion-not-square",
        "channel-estimator-empty-lts",
        "pack-bits-zero-group",
        "pack-bits-partial-group",
        "unpack-bits-zero-group",
        "unpack-bits-value-too-wide",
        "bit-errors-shape-mismatch",
        "bit-errors-value-2",
        "normal-quantile-at-one",
        "wilson-confidence-one",
        "wilson-more-errors-than-trials",
        "clopper-pearson-confidence-zero",
        "clopper-pearson-negative-errors",
        "allocate-negative-budget",
        "allocate-key-mismatch",
        "pilot-insert-1d-block",
        "pilot-insert-wrong-length",
        "pilot-correct-1d-block",
        "pilot-correct-wrong-length",
        "cfo-repetition-zero-period",
        "preamble-lts-slot-out-of-range",
        "noise-variance-zero-signal-power",
        "ber-curve-two-points-per-snr",
        "make-rng-no-seed",
        "awgn-no-seed",
        "rayleigh-matrix-no-seed",
        "flat-fading-no-seed",
        "selective-fading-no-seed",
        "channel-snr-no-seed",
        "poisson-no-seed",
        "arrivals-no-seed",
    ],
)
def test_inconsistent_construction_raises_configuration_error(build):
    with pytest.raises(ConfigurationError):
        build()


@pytest.mark.parametrize(
    "read_back, expected",
    [
        (lambda: ImpairmentSpec(sample_delay=np.int64(1)).sample_delay, 1),
        (lambda: SweepSpec(stream_counts=(np.int64(2),)).stream_counts[0], 2),
        (lambda: TransceiverConfig(n_antennas=np.int64(2)).n_antennas, 2),
        (lambda: TransceiverConfig(fft_size=np.int64(64)).fft_size, 64),
        (lambda: PreambleGenerator(np.int64(64)).fft_size, 64),
        (lambda: FixedPointFormat(np.int64(16), 14).word_length, 16),
        (lambda: FixedPointFormat(16, np.int64(14)).frac_bits, 14),
    ],
    ids=[
        "impairment-delay",
        "sweep-stream-count",
        "config-antennas",
        "config-fft-size",
        "preamble-fft-size",
        "fixed-point-word-length",
        "fixed-point-frac-bits",
    ],
)
def test_integer_front_doors_store_numpy_integers_as_int(read_back, expected):
    # The integer rule refuses fractions but keeps numpy integers, stored
    # as ``int`` so no equal value of another type keys another cell.
    value = read_back()
    assert type(value) is int
    assert value == expected


@pytest.mark.parametrize(
    "build, field, expected",
    [
        (lambda: SweepSpec(code_rates=(CodeRate.RATE_1_2, "3/4")), "code_rates", ("1/2", "3/4")),
        (lambda: SweepSpec(code_rates=CodeRate.RATE_2_3), "code_rates", ("2/3",)),
        (lambda: SweepSpec(modulations=(Modulation.QAM64,)), "modulations", ("64qam",)),
    ],
    ids=["sweep-code-rate-members", "sweep-code-rate-member", "sweep-modulation-member"],
)
def test_enum_front_doors_store_the_member_string(build, field, expected):
    # An enum member keys and draws the same cell as its string.
    spec = build()
    assert getattr(spec, field) == expected
    assert all(type(value) is str for value in getattr(spec, field))
    assert spec == SweepSpec(**{field: expected})


@pytest.mark.parametrize("flag", [np.True_, np.False_], ids=["true", "false"])
@pytest.mark.parametrize(
    "owner, name",
    [
        (SweepSpec, "fresh_fading_per_burst"),
        (SweepSpec, "known_timing"),
        (SweepSpec, "soft_decision"),
        (TransceiverConfig, "soft_decision"),
        (TransceiverConfig, "use_cordic_channel_inversion"),
        (TransceiverConfig, "correct_cfo"),
    ],
    ids=[
        "sweep-fresh-fading",
        "sweep-known-timing",
        "sweep-soft-decision",
        "config-soft-decision",
        "config-cordic-inversion",
        "config-correct-cfo",
    ],
)
def test_flag_front_doors_store_numpy_booleans_as_bool(owner, name, flag):
    # The flag rule refuses 0, 1 and strings but keeps numpy booleans,
    # stored as ``bool`` so the object equals the one built from Python's.
    built = owner(**{name: flag})
    assert type(getattr(built, name)) is bool
    assert built == owner(**{name: bool(flag)})


class TestSynchronizerFailureModes:
    def test_empty_stream_rejected(self):
        preamble = PreambleGenerator(64)
        synchronizer = TimeSynchronizer(
            sts_time=preamble.sts_time(), lts_time=preamble.lts_time()
        )
        with pytest.raises(SynchronizationError):
            synchronizer.locate(np.zeros((1, 0), dtype=complex))

    def test_front_end_does_not_lock_on_a_silent_burst(self):
        # No window scoring above zero means no lock.
        silent = np.zeros((4, 1000), dtype=complex)
        with pytest.raises(SynchronizationError):
            MimoReceiver().synchronize(silent)


def _data_set(samples, data_start, value):
    """``samples`` with every data-section sample set to ``value``."""
    fuzzed = samples.copy()
    fuzzed[:, data_start:] = value
    return fuzzed


def _data_scaled(samples, data_start, scale):
    """``samples`` with the data section scaled: finite, but its FFT overflows."""
    fuzzed = samples.copy()
    fuzzed[:, data_start:] *= scale
    return fuzzed


#: Fuzz rows past the front end: name -> (build the fuzzed samples from a
#: clean burst's samples and data start, LTS start to trust, outcome type).
#: A ConfigurationError outcome is raised; any other is the burst's slot.
RECEIVE_FUZZ_ROWS = {
    "nan-data": (lambda s, d: _data_set(s, d, np.nan), 160, DecodingError),
    "inf-data": (lambda s, d: _data_set(s, d, np.inf), 160, DecodingError),
    "negative-inf-data": (lambda s, d: _data_set(s, d, -np.inf), 160, DecodingError),
    "overflowing-data": (lambda s, d: _data_scaled(s, d, 1e307), 160, DecodingError),
    "empty": (lambda s, d: s[:, :0], 160, DecodingError),
    "empty-unsynchronised": (lambda s, d: s[:, :0], None, SynchronizationError),
    "all-zero": (lambda s, d: np.zeros_like(s), 160, ChannelEstimationError),
    "all-zero-unsynchronised": (lambda s, d: np.zeros_like(s), None, SynchronizationError),
    "all-zero-data": (lambda s, d: _data_set(s, d, 0.0), 160, ReceiveResult),
    "rank-one": (lambda s, d: s[0], 160, ConfigurationError),
    "rank-three": (lambda s, d: s[None], 160, ConfigurationError),
}


class TestFuzzPastTheFrontEnd:
    """NaN/Inf, empty, all-zero and wrong-rank input to the whole receive
    chain: each raises or slots a typed error (or decodes well-formed bits)
    and never reaches the demapper or de-interleaver non-finite, leaving
    its clean neighbour untouched."""

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    @pytest.mark.parametrize("row", list(RECEIVE_FUZZ_ROWS))
    def test_receive_stack_row(self, row, soft, monkeypatch, random_burst):
        build, lts_start, expected = RECEIVE_FUZZ_ROWS[row]
        config = TransceiverConfig(soft_decision=soft)
        receiver = MimoReceiver(config)
        burst = random_burst(MimoTransmitter(config), 96, np.random.default_rng(0))
        fuzzed = build(burst.samples, burst.layout.data_start)
        demapped = []
        demap = SymbolDemapper.demap

        def finite_demap(self, symbols, *args, **kwargs):
            demapped.append(np.isfinite(symbols).all())
            return demap(self, symbols, *args, **kwargs)

        monkeypatch.setattr(SymbolDemapper, "demap", finite_demap)
        stack = ([fuzzed, burst.samples], 96, [lts_start, 160])
        if expected is ConfigurationError:
            with pytest.raises(ConfigurationError):
                receiver.receive_stack(*stack)
            return
        outcome, clean = receiver.receive_stack(*stack)
        assert type(outcome) is expected
        if expected is ReceiveResult:
            assert outcome.decoded_bits.shape == (4, 96)
        assert clean.total_bit_errors(burst.info_bits) == 0
        assert demapped == [True]

    def test_receive_stack_of_nothing_is_empty(self):
        assert MimoReceiver().receive_stack([], 96) == []

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda s, d: _data_set(s, d, np.nan), "received samples must be finite"),
            (lambda s, d: _data_set(s, d, np.inf), "received samples must be finite"),
            (lambda s, d: _data_scaled(s, d, 1e307), "equalised symbols"),
            (lambda s, d: np.full_like(s, np.nan), None),
            (lambda s, d: np.full_like(s, np.inf), None),
            (lambda s, d: s[:, :0], None),
            (lambda s, d: np.zeros_like(s), None),
        ],
        ids=["nan-data", "inf-data", "overflowing-data", "all-nan", "all-inf", "empty", "all-zero"],
    )
    def test_streaming_push_row(self, build, expected, random_burst):
        # A fuzzed frame, then a clean one: a frame still found gives up
        # alone, one wiped out is never found, and the clean frame decodes.
        burst = random_burst(MimoTransmitter(), 96, np.random.default_rng(1))
        gap = np.zeros((4, 50), dtype=complex)
        fuzzed = build(burst.samples, burst.layout.data_start)
        stream = np.concatenate([gap, fuzzed, gap, burst.samples, gap], axis=1)
        pipeline = StreamingReceiver(MimoReceiver(), n_info_bits=96)
        frames = pipeline.push(stream) + pipeline.flush()
        if expected is not None:
            lost = frames.pop(0)
            assert isinstance(lost.outcome, DecodingError)
            assert expected in str(lost.outcome)
        (clean,) = frames
        assert clean.outcome.total_bit_errors(burst.info_bits) == 0
        assert pipeline.frames_lost == (expected is not None)

    @pytest.mark.parametrize(
        "chunk",
        [np.zeros(3000), np.zeros((1, 4, 3000)), np.zeros((3, 3000))],
        ids=["rank-one", "rank-three", "three-antennas"],
    )
    def test_streaming_push_wrong_rank_raises(self, chunk):
        with pytest.raises(ConfigurationError):
            StreamingReceiver(MimoReceiver(), n_info_bits=96).push(chunk)
