"""Property tests (hypothesis) on the time-sync surface.

The detection metric is a normalised correlation, so Cauchy–Schwarz bounds
it to ``[0, 1]`` for any input, corrupted or not.  Every entry point that
synchronises — ``TimeSynchronizer.locate``, ``MimoReceiver.synchronize``,
``MimoReceiver.receive_stack`` and ``StreamingReceiver.push`` — meets
malformed input with a typed :class:`~repro.exceptions.ReproError` (raised
or slotted), never a bare numpy error.  On noisy faded bursts the lock obeys
three metamorphic relations: it ignores a complex gain, shifts with
prepended silence and ignores the antenna order.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.channel.impairments import ImpairmentSpec
from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import AirCell, air_round
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import ReproError
from repro.stream import StreamingReceiver

CONFIG = TransceiverConfig(n_antennas=2)
RECEIVER = MimoReceiver(CONFIG)
SYNCHRONIZER = RECEIVER.synchronizer

samples = st.complex_numbers(allow_nan=True, allow_infinity=True)
sample_grids = arrays(
    np.complex128,
    st.tuples(st.integers(1, 4), st.integers(32, 96)),
    elements=samples,
)


class TestMetricBounds:
    @settings(max_examples=60, deadline=None)
    @given(sample_grids)
    @example(np.zeros((2, 40), dtype=np.complex128))
    @example(np.full((3, 33), np.nan, dtype=np.complex128))
    @example(np.full((1, 50), np.inf, dtype=np.complex128))
    @example(np.full((2, 64), 1e300 + 1e300j, dtype=np.complex128))
    def test_metric_is_finite_and_within_cauchy_schwarz(self, streams):
        metric = SYNCHRONIZER.metric(streams)
        assert metric.shape == (streams.shape[0], streams.shape[1] - 31)
        assert np.isfinite(metric).all()
        assert metric.min() >= 0.0
        assert metric.max() <= 1.0 + 1e-12


def _typed_or_returns(call):
    """Run ``call``; a raised error must be a ReproError, slots likewise."""
    try:
        outcome = call()
    except ReproError:
        return
    if isinstance(outcome, list):
        for item in outcome:
            assert not isinstance(item, Exception) or isinstance(item, ReproError)


def _stream_push(streams):
    pipeline = StreamingReceiver(RECEIVER, n_info_bits=48)
    return pipeline.push(streams) + pipeline.drain()


ENTRY_POINTS = {
    "locate": SYNCHRONIZER.locate,
    "synchronize": RECEIVER.synchronize,
    "receive_stack": lambda streams: RECEIVER.receive_stack([streams], 48),
    "stream_push": _stream_push,
}

MALFORMED = {
    "nan": np.full((2, 600), np.nan, dtype=complex),
    "inf": np.full((2, 600), np.inf, dtype=complex),
    "empty": np.zeros((2, 0), dtype=complex),
    "all-zero": np.zeros((2, 600), dtype=complex),
    "too-short": np.ones((2, 31), dtype=complex),
    "scalar": np.zeros((), dtype=complex),
    "rank-3": np.zeros((2, 2, 600), dtype=complex),
    "no-antennas": np.zeros((0, 600), dtype=complex),
    "too-many-antennas": np.ones((3, 600), dtype=complex),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_typed_error_or_result(self, entry, case):
        _typed_or_returns(lambda: ENTRY_POINTS[entry](MALFORMED[case]))

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(sorted(ENTRY_POINTS)),
        arrays(
            np.complex128,
            st.tuples(st.integers(0, 3), st.integers(0, 80)),
            elements=samples,
        ),
    )
    def test_random_grids_never_raise_bare_numpy_errors(self, entry, streams):
        _typed_or_returns(lambda: ENTRY_POINTS[entry](streams))


@lru_cache(maxsize=None)
def _faded_burst(index):
    """A seeded noisy 4x4 burst over a fresh fading realisation."""
    channel = ("flat_rayleigh", "frequency_selective")[index % 2]
    snr_db = (10.0, 20.0, 30.0)[index % 3]
    (air,) = air_round(
        MimoTransmitter(),
        [AirCell(np.random.SeedSequence([24, index]), channel, snr_db, ImpairmentSpec())],
        48,
    )
    return air.samples


bursts = st.integers(0, 23).map(_faded_burst)


class TestMetamorphicRelations:
    @settings(max_examples=30, deadline=None)
    @given(
        bursts,
        st.floats(1e-3, 1e3),
        st.floats(-np.pi, np.pi),
    )
    def test_complex_gain_leaves_the_lock(self, streams, magnitude, phase):
        gain = magnitude * np.exp(1j * phase)
        assert SYNCHRONIZER.locate(gain * streams) == SYNCHRONIZER.locate(streams)

    @settings(max_examples=30, deadline=None)
    @given(bursts, st.integers(0, 300))
    def test_prepended_silence_shifts_the_lock(self, streams, delay):
        delayed = np.concatenate(
            [np.zeros((streams.shape[0], delay), dtype=complex), streams], axis=1
        )
        assert SYNCHRONIZER.locate(delayed) == SYNCHRONIZER.locate(streams) + delay

    @settings(max_examples=20, deadline=None)
    @given(bursts, st.permutations(range(4)))
    def test_antenna_order_leaves_the_lock(self, streams, order):
        assert SYNCHRONIZER.locate(streams[list(order)]) == SYNCHRONIZER.locate(streams)


def test_stream_detector_builds_the_receivers_synchroniser():
    # The detector builds its synchroniser from the receiver's preamble, so
    # both lock against one reference.
    detector = StreamingReceiver(RECEIVER, n_info_bits=48).detector
    np.testing.assert_array_equal(detector.synchronizer.reference, SYNCHRONIZER.reference)
