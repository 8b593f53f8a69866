"""Stacked receive of the streaming downlink.

The stream decodes every frame window one push detects through one
``MimoReceiver.receive_stack`` call — one stacked front end and one trellis
pass — and the downlink scheduler pushes groups of back-to-back frames.
None of that may change a bit: every burst of a stack must come out exactly
as receiving it alone gives, a push of many frames must return what one
push per frame returns, and a scheduler run must report the same service
statistics for any group size.  A non-finite sample in the stream must be
a lost frame, not a numpy warning or a NaN detection metric.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import repro.coding.viterbi as viterbi_module
import repro.stream.scheduler as scheduler_module
from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import DecodingError
from repro.sim.spec import ImpairmentSpec
from repro.stream import DownlinkScheduler, StreamingReceiver

N_INFO_BITS = 256


def _received_frames(config, n_frames, seed, snr_db=20.0):
    """Back-to-back received frames over fresh flat-Rayleigh draws."""
    transmitter = MimoTransmitter(config)
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n_frames):
        burst = transmitter.transmit_random(N_INFO_BITS, rng=rng)
        channel = MimoChannel(
            FlatRayleighChannel(
                config.n_antennas, config.n_antennas, rng=rng.integers(0, 2**31)
            ),
            snr_db=snr_db,
            rng=rng.integers(0, 2**31),
        )
        frames.append(channel.transmit(burst.samples).samples)
    return frames


def _count_decodes(monkeypatch):
    calls = []
    decode = viterbi_module.ViterbiDecoder.decode

    def counting(self, received, *args, **kwargs):
        calls.append(np.shape(received)[0])
        return decode(self, received, *args, **kwargs)

    monkeypatch.setattr(viterbi_module.ViterbiDecoder, "decode", counting)
    return calls


@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
def test_receive_stack_matches_receive_alone(monkeypatch, soft):
    receiver = MimoReceiver(TransceiverConfig(soft_decision=soft))
    good = _received_frames(receiver.config, 2, seed=31)
    nan_in_data = _received_frames(receiver.config, 1, seed=32)[0]
    nan_in_data[:, 900] = np.nan
    too_short = good[0][:, :600]
    bursts = [good[0], nan_in_data, good[1], too_short]
    alone = [receiver.receive(burst, N_INFO_BITS) for burst in good]

    calls = _count_decodes(monkeypatch)
    stacked = receiver.receive_stack(bursts, N_INFO_BITS)
    assert calls == [2 * receiver.config.n_antennas]

    assert isinstance(stacked[1], DecodingError)
    assert isinstance(stacked[3], DecodingError)
    for outcome, expected in zip((stacked[0], stacked[2]), alone):
        assert outcome.lts_start == expected.lts_start
        assert outcome.diagnostics == expected.diagnostics
        for stream, reference in zip(outcome.streams, expected.streams):
            np.testing.assert_array_equal(stream.decoded_bits, reference.decoded_bits)
            np.testing.assert_array_equal(
                stream.equalized_symbols, reference.equalized_symbols
            )


def test_received_burst_scores_against_reference_bits():
    config = TransceiverConfig()
    burst = MimoTransmitter(config).transmit_random(
        N_INFO_BITS, rng=np.random.default_rng(5)
    )
    reference = [bits.copy() for bits in burst.info_bits]
    reference[1][:3] ^= 1
    result = MimoReceiver(config).receive(burst.samples, N_INFO_BITS)
    assert result.total_bit_errors(burst.info_bits) == 0
    assert result.total_bit_errors(reference) == 3
    with pytest.raises(DecodingError):
        MimoReceiver(config).receive(burst.samples[:, :600], N_INFO_BITS)


def _frame_summary(frames):
    return [
        (
            frame.window.start,
            frame.ok,
            None if frame.ok else str(frame.outcome),
            np.stack(frame.decoded_bits()).tolist() if frame.ok else None,
        )
        for frame in frames
    ]


def test_one_push_of_many_frames_equals_one_push_per_frame():
    config = TransceiverConfig()
    frames = _received_frames(config, 5, seed=41)
    frames[2][:, 900] = np.nan  # a give-up inside the stacked push

    grouped = StreamingReceiver(MimoReceiver(config), n_info_bits=N_INFO_BITS)
    together = grouped.push(np.concatenate(frames, axis=1))
    together += grouped.flush()

    single = StreamingReceiver(MimoReceiver(config), n_info_bits=N_INFO_BITS)
    apart = []
    for frame in frames:
        apart += single.push(frame)
    apart += single.flush()

    assert len(together) == 5
    assert [frame.ok for frame in together] == [True, True, False, True, True]
    assert _frame_summary(together) == _frame_summary(apart)
    assert (grouped.frames_decoded, grouped.frames_lost) == (4, 1)


def _report_fields(report):
    fields = dataclasses.asdict(report)
    del fields["wall_time_s"], fields["sustained_fps"]
    return fields


@pytest.mark.parametrize(
    "impairment",
    [
        None,
        ImpairmentSpec.paper_frontend(cfo_normalized=1e-3, sample_delay=3),
    ],
    ids=["flat_rayleigh", "cfo_delay_16bit"],
)
def test_scheduler_report_is_independent_of_the_push_group(monkeypatch, impairment):
    def run():
        return DownlinkScheduler(
            n_users=40,
            frames_per_user=1,
            n_info_bits=N_INFO_BITS,
            channel="flat_rayleigh",
            snr_db=20.0,
            impairment=impairment,
            base_seed=3,
        ).run()

    grouped = run()
    monkeypatch.setattr(scheduler_module, "FRAMES_PER_PUSH", 1)
    single = run()

    assert scheduler_module.FRAMES_PER_PUSH == 1
    assert _report_fields(grouped) == _report_fields(single)
    # Both outcomes occur, so the equality covers delivered and lost frames.
    assert 0 < grouped.frames_delivered < grouped.frames_served


@pytest.mark.parametrize("position", [1206, 1556])
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_non_finite_stream_sample_loses_at_most_its_frame(value, position):
    config = TransceiverConfig()
    frames = _received_frames(config, 3, seed=51, snr_db=30.0)
    clean = StreamingReceiver(MimoReceiver(config), n_info_bits=N_INFO_BITS)
    reference = clean.push(np.concatenate(frames, axis=1)) + clean.flush()

    stream = np.concatenate(frames, axis=1)
    stream[:, position] = value  # inside frame 1's preamble
    pipeline = StreamingReceiver(MimoReceiver(config), n_info_bits=N_INFO_BITS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decoded = pipeline.push(stream) + pipeline.flush()

    assert decoded[0].window.start == 0 and decoded[0].ok
    for bits, expected in zip(decoded[0].decoded_bits(), reference[0].decoded_bits()):
        np.testing.assert_array_equal(bits, expected)
    assert all(np.isfinite(frame.window.peak_metric) for frame in decoded)
    assert pipeline.frames_detected == pipeline.frames_decoded + pipeline.frames_lost
