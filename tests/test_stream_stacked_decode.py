"""Stacked receive of the streaming downlink.

The stream runs every frame window one push detects through one stacked
front end, queues the results and decodes them in full-height trellis
passes of ``DECODE_SLICE`` code blocks (or at once on ``drain``/``flush``),
and the downlink scheduler pushes groups of back-to-back frames, released
from the transmit side before the push.  None of that may change a bit:
every burst of a stack must come out exactly as receiving it alone gives,
pushes of any size must return the same frames, and a scheduler run must
report the same service statistics for any group size.  A non-finite
sample in the stream must be a lost frame, not a numpy warning or a NaN
detection metric.
"""

import dataclasses
import warnings
import weakref
from collections import deque

import numpy as np
import pytest

import repro.coding.viterbi as viterbi_module
import repro.stream.scheduler as scheduler_module
from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.preamble import burst_layout
from repro.core.receiver import DECODE_SLICE, MimoReceiver
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
        assert outcome.estimated_cfo == expected.estimated_cfo
        assert outcome.mean_pilot_phase == expected.mean_pilot_phase
        np.testing.assert_array_equal(outcome.decoded_bits, expected.decoded_bits)
        np.testing.assert_array_equal(outcome.equalized, expected.equalized)


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
            frame.outcome.decoded_bits.tolist() if frame.ok else None,
            frame.outcome.equalized.tobytes() if frame.ok else None,
            frame.outcome.lts_start if frame.ok else None,
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


N_STREAM_FRAMES = 40


@pytest.fixture(scope="module")
def forty_frames():
    """Forty back-to-back 4x4 frames: 160 code-block rows."""
    return _received_frames(TransceiverConfig(), N_STREAM_FRAMES, seed=61)


def _stream_in_pushes(frames, per_push):
    """Push ``frames`` ``per_push`` at a time, then flush; every frame returned."""
    pipeline = StreamingReceiver(MimoReceiver(TransceiverConfig()), n_info_bits=N_INFO_BITS)
    decoded = []
    for first in range(0, len(frames), per_push):
        decoded += pipeline.push(np.concatenate(frames[first : first + per_push], axis=1))
    return decoded + pipeline.flush(), pipeline


def test_stream_decodes_in_full_height_trellis_passes(monkeypatch, forty_frames):
    # Eight 4x4 frames fill half a slice, so pushes pair up into 64-row
    # passes, and the flush decodes the 32 rows left.
    calls = _count_decodes(monkeypatch)
    decoded, pipeline = _stream_in_pushes(forty_frames, 8)
    assert calls == [DECODE_SLICE, DECODE_SLICE, 32]
    assert len(decoded) == N_STREAM_FRAMES
    assert (pipeline.frames_detected, pipeline.frames_decoded) == (N_STREAM_FRAMES,) * 2


def test_push_size_changes_no_frame(forty_frames):
    summaries = [
        _frame_summary(_stream_in_pushes(forty_frames, per_push)[0])
        for per_push in (1, 8, N_STREAM_FRAMES)
    ]
    assert len(summaries[0]) == N_STREAM_FRAMES
    assert summaries[1] == summaries[0]
    assert summaries[2] == summaries[0]


def test_frame_without_preamble_is_lost_alone(forty_frames):
    layout = burst_layout(TransceiverConfig(), N_INFO_BITS)
    frames = [frame.copy() for frame in forty_frames]
    frames[21][:, : layout.preamble_length] = 0.0
    clean = _frame_summary(_stream_in_pushes(forty_frames, 8)[0])
    decoded, pipeline = _stream_in_pushes(frames, 8)
    lost_start = 21 * layout.length
    assert _frame_summary(decoded) == [frame for frame in clean if frame[0] != lost_start]
    assert (pipeline.frames_detected, pipeline.frames_lost) == (N_STREAM_FRAMES - 1, 0)


def test_drain_decodes_a_lone_frame_now():
    # The stop-and-wait contract: a frame pushed alone waits for a full
    # slice, and drain() hands it back decoded without one.
    config = TransceiverConfig()
    (frame,) = _received_frames(config, 1, seed=71, snr_db=30.0)
    pipeline = StreamingReceiver(MimoReceiver(config), n_info_bits=N_INFO_BITS)
    assert pipeline.push(frame) == []
    assert pipeline.frames_detected == 0
    (decoded,) = pipeline.drain()
    assert decoded.ok and decoded.window.start == 0
    expected = MimoReceiver(config).receive(frame, N_INFO_BITS, decoded.window.lts_offset)
    np.testing.assert_array_equal(decoded.outcome.decoded_bits, expected.decoded_bits)
    assert (pipeline.frames_detected, pipeline.frames_decoded) == (1, 1)
    assert pipeline.drain() == [] and pipeline.flush() == []


def test_push_group_bursts_are_released_before_the_push(monkeypatch):
    # A push decodes with nothing of its group's air round alive but the
    # chunk and the reference bits: no transmitted burst, no per-frame
    # channel output.
    groups = []
    air_round = scheduler_module.air_round

    def recording(*args, **kwargs):
        sent = air_round(*args, **kwargs)
        groups.append([weakref.ref(air.burst) for air in sent])
        return sent

    monkeypatch.setattr(scheduler_module, "air_round", recording)
    scheduler = DownlinkScheduler(n_users=3, frames_per_user=7, snr_db=25.0, base_seed=9)
    push = scheduler.pipeline.push
    alive = []

    def checking(chunk):
        alive.append(sum(burst() is not None for burst in groups[-1]))
        return push(chunk)

    monkeypatch.setattr(scheduler.pipeline, "push", checking)
    report = scheduler.run()
    assert alive == [0, 0, 0]
    assert report.frames_delivered > 0


def _report_fields(report):
    fields = dataclasses.asdict(report)
    del fields["wall_time_s"], fields["sustained_fps"]
    return fields


PUSH_GROUP_IMPAIRMENTS = {
    "flat_rayleigh": None,
    "cfo_delay_16bit": ImpairmentSpec.paper_frontend(cfo_normalized=1e-3, sample_delay=3),
}


def _push_group_run(impairment):
    return DownlinkScheduler(
        n_users=40,
        frames_per_user=1,
        n_info_bits=N_INFO_BITS,
        channel="flat_rayleigh",
        snr_db=20.0,
        impairment=impairment,
        base_seed=3,
    ).run()


@pytest.fixture(scope="module")
def default_push_group_reports():
    """Each impairment's report at the default ``FRAMES_PER_PUSH``."""
    return {name: _push_group_run(spec) for name, spec in PUSH_GROUP_IMPAIRMENTS.items()}


@pytest.mark.parametrize("impairment", sorted(PUSH_GROUP_IMPAIRMENTS))
@pytest.mark.parametrize("group", [1, 4, 8, 16])
def test_scheduler_report_is_independent_of_the_push_group(
    monkeypatch, default_push_group_reports, group, impairment
):
    grouped = default_push_group_reports[impairment]
    monkeypatch.setattr(scheduler_module, "FRAMES_PER_PUSH", group)
    regrouped = _push_group_run(PUSH_GROUP_IMPAIRMENTS[impairment])

    assert _report_fields(regrouped) == _report_fields(grouped)
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
    np.testing.assert_array_equal(
        decoded[0].outcome.decoded_bits, reference[0].outcome.decoded_bits
    )
    assert all(np.isfinite(frame.window.peak_metric) for frame in decoded)
    assert pipeline.frames_detected == pipeline.frames_decoded + pipeline.frames_lost


def _arrays_of_shape(obj, shape):
    """Every array of ``shape`` reachable from ``obj`` through dataclass
    fields, containers and array bases."""
    found, stack, seen = [], [obj], set()
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            if item.shape == shape:
                found.append(item)
            stack.append(item.base)
        elif dataclasses.is_dataclass(item):
            stack += [getattr(item, f.name) for f in dataclasses.fields(item)]
        elif isinstance(item, (list, tuple, deque)):
            stack += list(item)
    return found


def test_frames_hold_no_samples_past_the_front_end(forty_frames):
    # The decode reads only front-end outcomes: neither a queued frame nor
    # a returned one keeps its window's samples.
    config = TransceiverConfig()
    shape = (config.n_antennas, burst_layout(config, N_INFO_BITS).length)
    pipeline = StreamingReceiver(MimoReceiver(config), n_info_bits=N_INFO_BITS)
    decoded = pipeline.push(np.concatenate(forty_frames[:20], axis=1))
    assert decoded and pipeline._queue
    assert _arrays_of_shape(list(pipeline._queue), shape) == []
    decoded += pipeline.drain() + pipeline.flush()
    assert len(decoded) == 20 and not pipeline._queue
    assert _arrays_of_shape(decoded, shape) == []


#: (offered, served, delivered, lost, spurious) of each push-group run.
PINNED_REPORT_COUNTS = {"flat_rayleigh": (40, 40, 16, 24, 0), "cfo_delay_16bit": (40, 40, 4, 36, 0)}


@pytest.mark.parametrize("impairment", sorted(PINNED_REPORT_COUNTS))
def test_scheduler_report_counts_are_pinned(default_push_group_reports, impairment):
    report = default_push_group_reports[impairment]
    assert (
        report.frames_offered,
        report.frames_served,
        report.frames_delivered,
        report.frames_lost,
        report.spurious_detections,
    ) == PINNED_REPORT_COUNTS[impairment]
