"""Failure-injection tests: how the receiver behaves when things go wrong.

A reproduction that only exercises the happy path hides the error-handling
semantics a downstream user relies on; these tests pin them down: corrupted
or truncated bursts, mis-configured receivers, degenerate channels and
mis-timed synchronisation must either raise the documented exceptions or
degrade into bit errors — never return silently-wrong "successful" results.
"""

import numpy as np
import pytest

from repro.analysis.capacity import ergodic_mimo_capacity, mimo_capacity, required_snr_for_rate
from repro.channel.awgn import awgn_noise
from repro.channel.fading import FlatRayleighChannel, FrequencySelectiveChannel
from repro.channel.model import IdealChannel, MimoChannel
from repro.coding.convolutional import ConvolutionalCode, ConvolutionalEncoder
from repro.coding.interleaver import deinterleave, interleave, interleaver_permutation
from repro.coding.scrambler import Scrambler, pilot_polarity_sequence
from repro.coding.viterbi import ViterbiDecoder
from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import transmit_bursts
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import (
    ChannelEstimationError,
    ConfigurationError,
    DecodingError,
    SynchronizationError,
)
from repro.hardware.estimator import qrd_cordic_cell_count
from repro.hardware.jesd204 import Jesd204Framer
from repro.hardware.latency import qrd_critical_path_cordics
from repro.hardware.memory import CircularBuffer, PingPongBuffer
from repro.hardware.resources import ResourceUsage
from repro.rtl.rx_datapath import RxFrontEnd, RxFrontEndReport
from repro.rtl.scheduler import ChannelMatrixScheduler
from repro.rtl.systolic_qrd import SystolicQrdArray
from repro.sync.time_sync import TimeSynchronizer
from repro.core.preamble import PreambleGenerator
from repro.core.frame import ReceiveResult
from repro.dsp.cordic import Cordic
from repro.dsp.fft import fft
from repro.dsp.fixedpoint import FixedPointFormat
from repro.mimo.channel_estimation import ChannelEstimate, ChannelEstimator, invert_channel_stack
from repro.mimo.qr import qr_decompose_givens
from repro.mimo.rinv import invert_upper_triangular, r_inverse_4x4_paper_equations
from repro.mimo.detector import MmseDetector
from repro.modulation.demapper import SymbolDemapper
from repro.modulation.mapper import SymbolMapper
from repro.sim import ImpairmentSpec, SweepRunner, SweepSpec
from repro.sim.spec import SweepPoint
from repro.sim.engine import build_fading_model
from repro.sim.queue import MultiprocessingQueue, make_queue
from repro.stream import CbrTraffic, DownlinkScheduler, PoissonTraffic, StreamFrameDetector
from repro.stream.traffic import arrival_times


@pytest.fixture
def tx_rx(paper_config):
    return MimoTransmitter(paper_config), MimoReceiver(paper_config)


class TestDegenerateChannels:
    def test_rank_deficient_channel_raises_estimation_error(self, tx_rx):
        transmitter, receiver = tx_rx
        burst = transmitter.transmit_random(100, rng=np.random.default_rng(0))
        # Two receive antennas wired to the same signal -> singular channel.
        matrix = np.ones((4, 4), dtype=complex)
        channel = MimoChannel(FlatRayleighChannel(matrix=matrix))
        received = channel.transmit(burst.samples).samples
        with pytest.raises(ChannelEstimationError):
            receiver.receive(received, n_info_bits=100, lts_start=160)

    def test_dead_antenna_still_decodes_other_streams_or_errors(self, tx_rx):
        # Zeroing one receive antenna makes the 4x4 inversion singular.
        transmitter, receiver = tx_rx
        burst = transmitter.transmit_random(100, rng=np.random.default_rng(1))
        received = burst.samples.copy()
        received[2] = 0
        with pytest.raises(ChannelEstimationError):
            receiver.receive(received, n_info_bits=100, lts_start=160)


class TestCorruptedBursts:
    def test_wrong_lts_position_produces_errors_not_silence(self, tx_rx):
        transmitter, receiver = tx_rx
        burst = transmitter.transmit_random(200, rng=np.random.default_rng(2))
        channel = MimoChannel(FlatRayleighChannel(rng=3), snr_db=30.0, rng=4)
        received = channel.transmit(burst.samples).samples
        # Decode with a deliberately wrong timing hypothesis (one OFDM symbol
        # early, i.e. inside the preamble): the decoded bits must differ from
        # the transmitted ones rather than being silently "correct".
        result = receiver.receive(received, n_info_bits=200, lts_start=160 - 80)
        assert result.total_bit_errors(burst.info_bits) > 0

    def test_wrong_lts_position_past_burst_end_raises(self, tx_rx):
        transmitter, receiver = tx_rx
        burst = transmitter.transmit_random(200, rng=np.random.default_rng(2))
        # A hypothesis one OFDM symbol late leaves too few samples for the
        # claimed payload and must raise rather than decode a partial burst.
        with pytest.raises(DecodingError):
            receiver.receive(burst.samples, n_info_bits=200, lts_start=160 + 80)

    def test_truncated_burst_raises(self, tx_rx):
        transmitter, receiver = tx_rx
        burst = transmitter.transmit_random(200, rng=np.random.default_rng(5))
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
        assert all(stream.decoded_bits.size == 100 for stream in result.streams)

    def test_claiming_more_bits_than_transmitted_raises(self, tx_rx):
        transmitter, receiver = tx_rx
        burst = transmitter.transmit_random(96, rng=np.random.default_rng(7))
        with pytest.raises(DecodingError):
            receiver.receive(burst.samples, n_info_bits=5000, lts_start=160)


class TestConfigurationMismatches:
    def test_modulation_mismatch_causes_bit_errors(self):
        tx_config = TransceiverConfig(modulation="16qam")
        rx_config = TransceiverConfig(modulation="qpsk")
        transmitter = MimoTransmitter(tx_config)
        receiver = MimoReceiver(rx_config)
        # 42 information bits fit in a single OFDM symbol for both
        # modulations, so the mismatch shows up as wrong bits rather than a
        # burst-length error.
        burst = transmitter.transmit_random(42, rng=np.random.default_rng(8))
        result = receiver.receive(burst.samples, n_info_bits=42, lts_start=160)
        errors = sum(
            int(np.count_nonzero(stream.decoded_bits != burst.info_bits[i]))
            for i, stream in enumerate(result.streams)
        )
        assert errors > 0

    def test_antenna_count_mismatch_rejected(self):
        transmitter = MimoTransmitter(TransceiverConfig(n_antennas=4))
        receiver = MimoReceiver(TransceiverConfig(n_antennas=2))
        burst = transmitter.transmit_random(96, rng=np.random.default_rng(9))
        with pytest.raises(ConfigurationError):
            receiver.receive(burst.samples, n_info_bits=96)

    def test_invalid_timing_advance_rejected(self, paper_config):
        with pytest.raises(ConfigurationError):
            MimoReceiver(paper_config, timing_advance=100)
        with pytest.raises(ConfigurationError):
            MimoReceiver(paper_config, timing_advance=-1)


def _detector(**overrides):
    preamble = PreambleGenerator(64)
    kwargs = dict(preamble=preamble, n_rx=4, frame_length=2000)
    kwargs.update(overrides)
    return StreamFrameDetector(**kwargs)


def _identity_estimate(fft_size=64):
    eye = np.broadcast_to(np.eye(4, dtype=complex), (fft_size, 4, 4)).copy()
    return ChannelEstimate(
        matrices=eye, inverses=eye, active_mask=np.ones(fft_size, dtype=bool)
    )


class _BackwardsTraffic:
    """A traffic model whose frames arrive before the previous one."""

    def intervals(self, n_frames, rng=None):
        return -np.ones(n_frames)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MimoChannel(FlatRayleighChannel(n_rx=2, n_tx=2, rng=3)).transmit(
            MimoTransmitter(TransceiverConfig())
            .transmit_random(96, np.random.default_rng(0))
            .samples
        ),
        lambda: DownlinkScheduler(n_users=0),
        lambda: DownlinkScheduler(n_users=2, frames_per_user=-1),
        lambda: DownlinkScheduler(n_users=2, mode="fifo"),
        lambda: DownlinkScheduler(n_users=2, snr_db=float("nan")),
        lambda: DownlinkScheduler(n_users=2, mode="weighted", weights=[1.0]),
        lambda: DownlinkScheduler(n_users=2, mode="weighted", weights=[1.0, 0.0]),
        lambda: _detector(n_rx=0),
        lambda: _detector(frame_length=100),
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
        lambda: ImpairmentSpec(cfo_normalized=float("nan")),
        lambda: ImpairmentSpec(iq_amplitude_db=float("inf")),
        lambda: ImpairmentSpec(iq_phase_deg=float("nan")),
        lambda: ImpairmentSpec(sample_delay=-1),
        lambda: SweepRunner(SweepSpec(), n_workers=0, cache=False),
        lambda: SweepRunner(SweepSpec(), batch_size=0, cache=False),
        lambda: SweepRunner(SweepSpec(), n_workers=1, cache=False).run_adaptive(0),
        lambda: SweepRunner(SweepSpec(), n_workers=1, cache=False).run_adaptive(8, rounds=0),
        lambda: make_queue("cluster"),
        lambda: MultiprocessingQueue(0),
        lambda: build_fading_model("rician", 4, rng=0),
        lambda: CbrTraffic(0.0),
        lambda: CbrTraffic(10.0, phase_s=-1.0),
        lambda: PoissonTraffic(float("nan")),
        lambda: ReceiveResult(streams=[], lts_start=0, channel_estimate=None).total_bit_errors(
            [np.zeros(8, dtype=np.uint8)]
        ),
        lambda: MimoChannel(sample_delay=-1),
        lambda: MimoChannel(sample_delay=2.5),
        lambda: MimoChannel(snr_db=float("nan")),
        lambda: MimoChannel(snr_db=float("inf")),
        lambda: MimoChannel(cfo_normalized=float("nan")),
        lambda: MimoChannel(iq_amplitude_db=float("inf")),
        lambda: MimoChannel(iq_phase_deg=float("nan")),
        lambda: awgn_noise(8, float("nan")),
        lambda: DownlinkScheduler(n_users=1, channel="rician"),
        lambda: CbrTraffic(10.0).intervals(-1),
        lambda: PoissonTraffic(10.0).intervals(-1),
        lambda: arrival_times(_BackwardsTraffic(), 2),
        lambda: RxFrontEnd().ingest(np.zeros((2, 100), dtype=complex)),
        lambda: RxFrontEnd().replay_lts(RxFrontEndReport(160, 0, 0), total_ingested=0),
        lambda: RxFrontEnd().replay_lts(RxFrontEndReport(0, 0, 0), total_ingested=2000),
        lambda: MimoChannel().transmit(np.zeros((3, 100), dtype=complex)),
        lambda: MmseDetector(_identity_estimate(), noise_variance=-1.0),
        lambda: IdealChannel(n_rx=2, n_tx=4),
        lambda: IdealChannel().apply(np.zeros((3, 100), dtype=complex)),
        lambda: FlatRayleighChannel(n_rx=0, rng=0),
        lambda: FlatRayleighChannel(n_rx=2, n_tx=2, matrix=np.eye(4)),
        lambda: FlatRayleighChannel(rng=0).apply(np.zeros((3, 100), dtype=complex)),
        lambda: FrequencySelectiveChannel(n_taps=0),
        lambda: FrequencySelectiveChannel(decay=0.0, rng=0),
        lambda: FrequencySelectiveChannel(n_taps=2, taps=np.ones((4, 4, 3))),
        lambda: FrequencySelectiveChannel(rng=0).apply(np.zeros((3, 100), dtype=complex)),
        lambda: FrequencySelectiveChannel(n_taps=8, rng=0).frequency_response(4),
        lambda: mimo_capacity(np.ones((2, 2, 2)), snr_db=10.0),
        lambda: ergodic_mimo_capacity(n_realizations=0),
        lambda: required_snr_for_rate(0.0),
        lambda: ConvolutionalCode(constraint_length=1, generators=(0o3, 0o1)),
        lambda: ConvolutionalCode(constraint_length=3, generators=(0o7, 0o17)),
        lambda: ConvolutionalCode(puncture_pattern=np.array([[1, 1]])),
        lambda: ConvolutionalCode(puncture_pattern=np.zeros((2, 2), dtype=np.uint8)),
        lambda: interleaver_permutation(50, 1),
        lambda: interleaver_permutation(48, 0),
        lambda: interleave(np.zeros(100), 192, 4),
        lambda: deinterleave(np.zeros(100), 192, 4),
        lambda: Scrambler(seed=0),
        lambda: pilot_polarity_sequence(0),
        lambda: ViterbiDecoder(decision="fuzzy"),
        lambda: ViterbiDecoder().decode(np.zeros(12), n_info_bits=-1),
        lambda: ViterbiDecoder().decode(np.zeros(32), n_info_bits=10.0),
        lambda: SymbolDemapper("16qam").demap(np.zeros(4, dtype=complex), soft=True, noise_variance=0.0),
        lambda: SymbolMapper("16qam").map_addresses([16]),
        lambda: MimoTransmitter().transmit([np.array([0.5, 0, 1, 1])] * 4),
        lambda: MimoTransmitter().transmit([np.array([np.nan, 0, 1, 1])] * 4),
        lambda: MimoTransmitter().transmit([np.array([1 + 1j, 0, 1, 1])] * 4),
        lambda: MimoTransmitter().transmit([np.array([2, 0, 1, 1])] * 4),
        lambda: MimoTransmitter().transmit([np.zeros((2, 8), dtype=np.uint8)] * 4),
        lambda: MimoTransmitter().transmit(np.zeros((4, 3, 8), dtype=np.uint8)),
        lambda: MimoTransmitter().transmit(np.full((4, 4, 8), 2, dtype=np.uint8)),
        lambda: MimoTransmitter().transmit_random(-5, np.random.default_rng(0)),
        lambda: MimoTransmitter().transmit_random(2.5, np.random.default_rng(0)),
        lambda: MimoTransmitter().symbols_for_info_bits(2.5),
        lambda: MimoTransmitter().max_info_bits(1.5),
        lambda: ConvolutionalEncoder().encode(np.zeros((2, 2, 5), dtype=np.uint8)),
        lambda: transmit_bursts(MimoTransmitter(), [MimoChannel()], 96, [1, 2]),
        lambda: Jesd204Framer(octets_per_frame=10),
        lambda: Jesd204Framer().line_rate_bps(0),
        lambda: ChannelMatrixScheduler(n_antennas=0),
        lambda: SystolicQrdArray(n=0),
        lambda: ResourceUsage(aluts=-1),
        lambda: qrd_critical_path_cordics(0),
        lambda: qrd_cordic_cell_count(0),
        lambda: PingPongBuffer(block_size=0),
        lambda: CircularBuffer(depth=0),
        lambda: FixedPointFormat(1, 0),
        lambda: FixedPointFormat(16, 14, rounding="nearest"),
        lambda: Cordic(iterations=0),
        lambda: fft(np.zeros(48)),
        lambda: qr_decompose_givens(np.ones((3, 4))),
        lambda: invert_upper_triangular(np.ones((4, 4))),
        lambda: r_inverse_4x4_paper_equations(np.eye(3)),
        lambda: invert_channel_stack(np.zeros((4, 4, 3))),
        lambda: ChannelEstimator(np.array([])),
    ],
    ids=[
        "channel-2x2-with-4-antenna-burst",
        "scheduler-no-users",
        "scheduler-negative-frames",
        "scheduler-unknown-mode",
        "scheduler-nan-snr",
        "scheduler-weights-shape",
        "scheduler-zero-weight",
        "detector-no-antennas",
        "detector-frame-shorter-than-preamble",
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
        "impairment-nan-cfo",
        "impairment-infinite-iq-amplitude",
        "impairment-nan-iq-phase",
        "impairment-negative-delay",
        "runner-no-workers",
        "runner-zero-batch",
        "adaptive-no-extra-bursts",
        "adaptive-no-rounds",
        "queue-unknown-backend",
        "process-queue-no-workers",
        "fading-unknown-model",
        "cbr-zero-rate",
        "cbr-negative-phase",
        "poisson-nan-rate",
        "receive-result-stream-count-mismatch",
        "channel-negative-delay",
        "channel-fractional-delay",
        "channel-nan-snr",
        "channel-infinite-snr",
        "channel-nan-cfo",
        "channel-infinite-iq-amplitude",
        "channel-nan-iq-phase",
        "awgn-nan-variance",
        "scheduler-unknown-channel",
        "cbr-negative-frames",
        "poisson-negative-frames",
        "arrivals-negative-gap",
        "front-end-antenna-mismatch",
        "front-end-replay-before-ingest",
        "front-end-replay-past-buffer",
        "channel-burst-antenna-mismatch",
        "mmse-negative-noise-variance",
        "ideal-channel-not-square",
        "ideal-channel-burst-antenna-mismatch",
        "flat-fading-no-antennas",
        "flat-fading-matrix-shape",
        "flat-fading-burst-antenna-mismatch",
        "selective-fading-no-taps",
        "selective-fading-zero-decay",
        "selective-fading-taps-shape",
        "selective-fading-burst-antenna-mismatch",
        "selective-fading-fft-shorter-than-taps",
        "capacity-matrix-not-2d",
        "ergodic-capacity-no-realizations",
        "required-snr-non-positive-target",
        "code-constraint-length-1",
        "code-generator-too-wide",
        "code-puncture-pattern-shape",
        "code-puncture-pattern-deletes-everything",
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
        "mapper-address-out-of-range",
        "transmit-fractional-bit",
        "transmit-nan-bit",
        "transmit-complex-bit",
        "transmit-bit-value-2",
        "transmit-2d-stream",
        "transmit-stack-stream-count",
        "transmit-stack-bit-value-2",
        "transmit-random-negative-bits",
        "transmit-random-fractional-bits",
        "symbols-for-fractional-info-bits",
        "max-info-bits-fractional-symbols",
        "encode-3d-stack",
        "air-round-generator-count",
        "jesd204-frame-not-multiple-of-4",
        "jesd204-zero-sample-rate",
        "qrd-scheduler-no-antennas",
        "systolic-qrd-empty",
        "resource-usage-negative",
        "qrd-critical-path-empty",
        "qrd-cordic-count-empty",
        "ping-pong-empty-block",
        "circular-buffer-empty",
        "fixed-point-one-bit-word",
        "fixed-point-unknown-rounding",
        "cordic-no-iterations",
        "fft-size-not-a-power-of-two",
        "qr-not-square",
        "r-inverse-not-triangular",
        "r-inverse-paper-equations-not-4x4",
        "channel-inversion-not-square",
        "channel-estimator-empty-lts",
    ],
)
def test_inconsistent_construction_raises_configuration_error(build):
    with pytest.raises(ConfigurationError):
        build()


class TestSynchronizerFailureModes:
    def test_empty_stream_rejected(self):
        preamble = PreambleGenerator(64)
        synchronizer = TimeSynchronizer(
            sts_time=preamble.sts_time(), lts_time=preamble.lts_time()
        )
        with pytest.raises(SynchronizationError):
            synchronizer.locate(np.zeros(0, dtype=complex))

    def test_front_end_does_not_lock_on_a_silent_burst(self):
        # The RTL front end follows the receiver's lock rule: no window
        # scoring above zero means no lock.
        silent = np.zeros((4, 1000), dtype=complex)
        with pytest.raises(SynchronizationError):
            RxFrontEnd().ingest(silent)
        with pytest.raises(SynchronizationError):
            MimoReceiver().synchronize(silent)