"""Chunk-boundary correctness of the streaming receive pipeline.

The acceptance test of `repro.stream`: a concatenated multi-frame stream
fed through ``StreamFrameDetector`` + ``StreamingReceiver`` in chunks of
1, 7, either side of a metric tile, either side of a frame and 4096
samples must decode the *identical* payload bits as the offline
``MimoReceiver.receive_stack`` path — every frame, bit for bit, including
the frames that straddle chunk boundaries (at chunk size 1, every frame
straddles ~1056 of them).  A frame whose preamble is lost must cost only
that frame: the search runs through its interior without a detection.
"""

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.preamble import burst_layout
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.stream import StreamingReceiver
from repro.stream.detector import METRIC_TILE

N_INFO_BITS = 256
N_FRAMES = 3
SNR_DB = 30.0
LAYOUT = burst_layout(TransceiverConfig(), N_INFO_BITS)
FRAME_LENGTH = LAYOUT.length
CHUNK_SIZES = [
    1,
    7,
    METRIC_TILE - 1,
    METRIC_TILE,
    METRIC_TILE + 1,
    255,
    256,
    257,
    FRAME_LENGTH,
    FRAME_LENGTH + 1,
    4096,
]


@pytest.fixture(scope="module")
def stream_and_reference(random_burst):
    """A 3-frame continuous stream plus the offline receive-path decodes."""
    config = TransceiverConfig()
    transmitter = MimoTransmitter(config)
    frames = []
    references = []
    rng = np.random.default_rng(1234)
    for _ in range(N_FRAMES):
        burst = random_burst(transmitter, N_INFO_BITS, rng)
        channel = MimoChannel(
            fading=FlatRayleighChannel(
                config.n_antennas, config.n_antennas, rng=rng.integers(0, 2**31)
            ),
            snr_db=SNR_DB,
            rng=rng.integers(0, 2**31),
        )
        frames.append(channel.transmit(burst.samples).samples)
        references.append(burst.info_bits)
    stream = np.concatenate(frames, axis=1)

    offline = [
        result.decoded_bits
        for result in MimoReceiver(config).receive_stack(frames, N_INFO_BITS)
    ]
    return stream, frames, offline, references


def _decode_in_chunks(stream, chunk_size):
    pipeline = StreamingReceiver(n_info_bits=N_INFO_BITS)
    decoded = []
    for offset in range(0, stream.shape[1], chunk_size):
        decoded.extend(pipeline.push(stream[:, offset : offset + chunk_size]))
    decoded.extend(pipeline.flush())
    return decoded, pipeline


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_chunked_decode_is_bit_exact_against_offline(
    stream_and_reference, chunk_size
):
    stream, frames, offline, references = stream_and_reference
    decoded, pipeline = _decode_in_chunks(stream, chunk_size)

    assert len(decoded) == N_FRAMES
    assert pipeline.frames_decoded == N_FRAMES
    assert pipeline.frames_lost == 0
    frame_length = frames[0].shape[1]
    for index, frame in enumerate(decoded):
        assert frame.ok
        # Frames are back to back, so frame i starts exactly where the
        # offline burst i was placed in the stream.
        assert frame.window.start == index * frame_length
        for stream_index, bits in enumerate(frame.outcome.decoded_bits):
            np.testing.assert_array_equal(bits, offline[index][stream_index])


def test_all_chunkings_agree_with_each_other(stream_and_reference):
    stream, _, _, _ = stream_and_reference
    outcomes = []
    for chunk_size in CHUNK_SIZES:
        decoded, _ = _decode_in_chunks(stream, chunk_size)
        outcomes.append(
            [
                (frame.window.start, frame.window.lts_start, frame.window.peak_metric)
                for frame in decoded
            ]
        )
    assert all(outcome == outcomes[0] for outcome in outcomes)


@pytest.mark.parametrize("chunk_size", [1, 257, FRAME_LENGTH + 1, 4096])
def test_a_frame_without_its_preamble_costs_only_that_frame(
    stream_and_reference, chunk_size
):
    stream, frames, offline, _ = stream_and_reference
    preamble_length = LAYOUT.preamble_length
    damaged = stream.copy()
    damaged[:, FRAME_LENGTH : FRAME_LENGTH + preamble_length] = 0.0
    decoded, pipeline = _decode_in_chunks(damaged, chunk_size)

    # The middle frame is never detected, nor is anything in its
    # interior; the frames either side decode as the one-shot path does.
    assert [frame.window.start for frame in decoded] == [0, 2 * FRAME_LENGTH]
    assert pipeline.detector.discarded_detections == 0
    assert pipeline.frames_lost == 0
    for frame, index in zip(decoded, (0, 2)):
        for bits, expected in zip(frame.outcome.decoded_bits, offline[index]):
            np.testing.assert_array_equal(bits, expected)


def test_clean_stream_payloads_roundtrip(stream_and_reference):
    # At 30 dB the payloads themselves should come back intact, which makes
    # the bit-exactness above a statement about *correct* decodes, not about
    # two paths failing identically.
    stream, _, offline, references = stream_and_reference
    for frame_reference, frame_offline in zip(references, offline):
        for reference, bits in zip(frame_reference, frame_offline):
            np.testing.assert_array_equal(reference, bits)
