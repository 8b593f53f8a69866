"""Unit tests for the rolling-buffer stream frame detector."""

import numpy as np
import pytest

from repro.core.config import TransceiverConfig
from repro.core.preamble import PreambleGenerator, burst_layout
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.stream import StreamFrameDetector
from repro.stream.detector import METRIC_TILE

N_INFO_BITS = 256


@pytest.fixture(scope="module")
def preamble():
    return PreambleGenerator(64)


@pytest.fixture(scope="module")
def clean_frames(preamble):
    """Two clean back-to-back 4x4 bursts and their common frame length."""
    transmitter = MimoTransmitter()
    rng = np.random.default_rng(99)
    bursts = [
        transmitter.transmit_random(N_INFO_BITS, rng=rng).samples
        for _ in range(2)
    ]
    return bursts, bursts[0].shape[1]


def _detector(preamble):
    return StreamFrameDetector(preamble, burst_layout(TransceiverConfig(), N_INFO_BITS))


class TestDetection:
    def test_single_frame_single_push(self, preamble, clean_frames):
        bursts, frame_length = clean_frames
        detector = _detector(preamble)
        windows = detector.push(bursts[0])
        assert len(windows) == 1
        window = windows[0]
        assert window.start == 0
        assert window.lts_start == preamble.sts_time().size
        assert window.lts_offset == preamble.sts_time().size
        assert window.samples.shape == (4, frame_length)
        np.testing.assert_array_equal(window.samples, bursts[0])
        assert window.peak_metric == pytest.approx(1.0, abs=0.05)

    def test_frame_straddling_many_pushes(self, preamble, clean_frames):
        bursts, frame_length = clean_frames
        stream = np.concatenate(bursts, axis=1)
        detector = _detector(preamble)
        windows = []
        for offset in range(0, stream.shape[1], 100):
            windows.extend(detector.push(stream[:, offset : offset + 100]))
        windows.extend(detector.flush())
        assert [w.start for w in windows] == [0, frame_length]
        for window, burst in zip(windows, bursts):
            np.testing.assert_array_equal(window.samples, burst)

    def test_idle_gap_between_frames(self, preamble, clean_frames):
        bursts, frame_length = clean_frames
        gap = np.zeros((4, 500), dtype=np.complex128)
        detector = _detector(preamble)
        windows = detector.push(np.concatenate([bursts[0], gap, bursts[1]], axis=1))
        windows += detector.flush()
        assert [w.start for w in windows] == [0, frame_length + 500]

    def test_delayed_frame_start(self, preamble, clean_frames):
        bursts, _ = clean_frames
        delay = 777
        lead_in = np.zeros((4, delay), dtype=np.complex128)
        detector = _detector(preamble)
        windows = detector.push(np.concatenate([lead_in, bursts[0]], axis=1))
        windows += detector.flush()
        assert len(windows) == 1
        assert windows[0].start == delay
        np.testing.assert_array_equal(windows[0].samples, bursts[0])

    def test_noise_only_stream_detects_nothing(self, preamble):
        rng = np.random.default_rng(3)
        noise = 0.1 * (
            rng.normal(size=(4, 6000)) + 1j * rng.normal(size=(4, 6000))
        )
        detector = _detector(preamble)
        assert detector.push(noise) == []
        assert detector.flush() == []
        assert detector.frames_emitted == 0

    def test_truncated_tail_frame_is_counted_not_emitted(
        self, preamble, clean_frames
    ):
        bursts, frame_length = clean_frames
        detector = _detector(preamble)
        windows = detector.push(bursts[0][:, : frame_length - 200])
        windows += detector.flush()
        assert windows == []
        assert detector.truncated_frames == 1

    def test_reset_restarts_stream_positions(self, preamble, clean_frames):
        bursts, frame_length = clean_frames
        detector = _detector(preamble)
        assert detector.push(bursts[0])[0].start == 0
        detector.reset()
        assert detector.samples_in == 0
        assert detector.push(bursts[1])[0].start == 0


class TestSearchDrivenMetric:
    @pytest.mark.parametrize("chunk_size", [None, 1, 257, 4096])
    def test_back_to_back_frames_compute_only_what_the_search_reads(
        self, preamble, clean_frames, chunk_size
    ):
        bursts, frame_length = clean_frames
        stream = np.concatenate(bursts * 3, axis=1)
        detector = _detector(preamble)
        positions = []
        metric = detector.synchronizer.metric

        def counting(segment):
            values = metric(segment)
            positions.append(values.shape[1])
            return values

        detector.synchronizer.metric = counting
        step = chunk_size or stream.shape[1]
        windows = []
        for offset in range(0, stream.shape[1], step):
            windows.extend(detector.push(stream[:, offset : offset + step]))
        windows.extend(detector.flush())

        assert [w.start for w in windows] == [k * frame_length for k in range(6)]
        # Each frame's search reads its look-ahead, rounded out to whole
        # tiles at both ends; no position inside an emitted frame is
        # computed (a metric over every position costs frame_length each).
        assert sum(positions) <= len(windows) * (detector.lookahead + 2 * METRIC_TILE)
        assert sum(positions) <= len(windows) * 3 * 256 < len(windows) * frame_length

    def test_a_lock_before_the_first_sample_is_discarded(self, preamble, clean_frames):
        bursts, frame_length = clean_frames
        # The stream starts inside the first frame's STS, so that frame's
        # lock points before sample 0 and is discarded, whatever the
        # chunking and however much history the detector keeps.  The search
        # resumes past that frame's preamble, so no later LTS slot of it
        # locks a spurious frame over the second one, which is emitted
        # whole and decodes as the one-shot receive of that burst does.
        cut = 40
        stream = np.concatenate(bursts, axis=1)[:, cut:]
        receiver = MimoReceiver()
        expected = receiver.receive(bursts[1], N_INFO_BITS).decoded_bits
        outcomes = []
        for step in (1, 63, 300, stream.shape[1]):
            detector = _detector(preamble)
            windows = []
            for offset in range(0, stream.shape[1], step):
                windows.extend(detector.push(stream[:, offset : offset + step]))
            windows.extend(detector.flush())
            assert detector.discarded_detections == 1
            assert detector.truncated_frames == 0
            assert [w.start for w in windows] == [frame_length - cut]
            np.testing.assert_array_equal(windows[0].samples, bursts[1])
            decoded = receiver.receive(
                windows[0].samples, N_INFO_BITS, lts_start=windows[0].lts_offset
            ).decoded_bits
            np.testing.assert_array_equal(decoded, expected)
            outcomes.append([(w.start, w.lts_start, w.peak_metric) for w in windows])
        assert all(outcome == outcomes[0] for outcome in outcomes)


class TestValidation:
    def test_chunk_shape_mismatch_rejected(self, preamble):
        detector = _detector(preamble)
        with pytest.raises(ValueError):
            detector.push(np.zeros((3, 10), dtype=complex))

    def test_single_antenna_accepts_1d_chunks(self, preamble):
        # One information bit: a 320-sample preamble and a 96-sample frame tail.
        layout = burst_layout(TransceiverConfig(n_antennas=1), 1)
        assert layout.length == layout.preamble_length + 96
        detector = StreamFrameDetector(preamble, layout)
        samples = np.concatenate(
            [preamble.mimo_preamble(1)[0], np.zeros(200, dtype=complex)]
        )
        windows = detector.push(samples)
        windows += detector.flush()
        assert len(windows) == 1
        assert windows[0].lts_start == preamble.sts_time().size
