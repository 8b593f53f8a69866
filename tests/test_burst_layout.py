"""The burst layout is the burst.

:func:`~repro.core.preamble.burst_layout` states the burst format once.  For
every FFT size, antenna count and code rate, a transmitted burst is as long
as its layout with every LTS slot where the layout puts it, the receiver
decodes it at the layout's timing, and the stream detector cuts
back-to-back frames into windows of the layout's length.
"""

import numpy as np
import pytest

from repro.coding.convolutional import CodeRate
from repro.core.config import TransceiverConfig
from repro.core.preamble import burst_layout
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.stream import StreamFrameDetector, StreamingReceiver

#: Odd, so a multiple of no N_CBPS: the last data symbol carries padding.
N_INFO_BITS = 101
N_FRAMES = 3


@pytest.fixture(
    params=[
        (fft_size, n_antennas, rate)
        for fft_size in (64, 128, 512)
        for n_antennas in (1, 2, 4)
        for rate in CodeRate
    ],
    ids=lambda p: f"{p[0]}pt-{p[1]}ant-r{p[2].value.replace('/', '_')}",
)
def sent(request):
    """A configuration, its layout and ``N_FRAMES`` bursts of one stack."""
    fft_size, n_antennas, rate = request.param
    config = TransceiverConfig(n_antennas=n_antennas, fft_size=fft_size, code_rate=rate)
    transmitter = MimoTransmitter(config)
    rng = np.random.default_rng(fft_size + n_antennas)
    payload = np.stack([transmitter.random_payload(N_INFO_BITS, rng) for _ in range(N_FRAMES)])
    return config, burst_layout(config, N_INFO_BITS), transmitter.transmit(payload)


def test_transmitted_bursts_follow_the_layout(sent):
    config, layout, bursts = sent
    assert layout.n_symbols * config.coded_bits_per_symbol > layout.coded_length
    lts = MimoTransmitter(config).preamble.lts_time()
    assert layout.lts_slot_start(0) == layout.sts_length
    for burst in bursts:
        assert burst.layout is layout
        assert burst.samples.shape == (config.n_antennas, layout.length)
        for antenna in range(config.n_antennas):
            start = layout.lts_slot_start(antenna)
            np.testing.assert_array_equal(
                burst.samples[antenna, start : start + layout.lts_slot_length], lts
            )
        assert np.all(burst.samples[:, layout.data_start : layout.data_start + 1] != 0)
        np.testing.assert_array_equal(burst.samples[:, layout.length - layout.tail_length :], 0)


def test_receiver_decodes_at_the_layout_timing(sent):
    config, layout, bursts = sent
    outcomes = MimoReceiver(config).receive_stack(
        [burst.samples for burst in bursts], N_INFO_BITS, [layout.sts_length] * N_FRAMES
    )
    for burst, outcome in zip(bursts, outcomes):
        assert outcome.total_bit_errors(burst.info_bits) == 0


def test_stream_cuts_back_to_back_frames_at_the_layout_length(sent):
    config, layout, bursts = sent
    pipeline = StreamingReceiver(MimoReceiver(config), N_INFO_BITS)
    assert pipeline.layout is layout
    stream = np.concatenate([burst.samples for burst in bursts], axis=1)
    frames = pipeline.push(stream) + pipeline.flush()
    assert [frame.window.start for frame in frames] == [
        k * layout.length for k in range(N_FRAMES)
    ]
    for frame, burst in zip(frames, bursts):
        assert frame.outcome.total_bit_errors(burst.info_bits) == 0
    detector = StreamFrameDetector(pipeline.receiver.preamble, layout)
    windows = detector.push(stream) + detector.flush()
    assert [window.samples.shape for window in windows] == [
        (config.n_antennas, layout.length)
    ] * N_FRAMES
