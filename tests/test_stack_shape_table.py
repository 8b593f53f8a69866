"""One shape table for the stacked front doors below the receiver.

Every transmit, code, QR and sync stage takes one input rank, a stack, and
returns a stack; one item is a one-item stack.  Each row names a stage, its
well-formed stack and the shape it returns, its old one-item form and one
wrong rank; both malformed inputs raise the stage's typed error, which is a
``ReproError`` (and, for a ``ConfigurationError``, a ``ValueError``).
"""

import numpy as np
import pytest

from repro.channel.awgn import occupied_power
from repro.coding.convolutional import ConvolutionalEncoder
from repro.coding.scrambler import Scrambler
from repro.coding.viterbi import ViterbiDecoder
from repro.core.config import TransceiverConfig
from repro.core.preamble import PreambleGenerator, burst_layout
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import ConfigurationError, DecodingError, ReproError
from repro.mimo.qr import qr_decompose_givens
from repro.mimo.rinv import invert_upper_triangular
from repro.stream.detector import StreamFrameDetector
from repro.sync.cfo import estimate_cfo_from_repetition
from repro.sync.time_sync import TimeSynchronizer

PREAMBLE = PreambleGenerator(64)

#: Information bits per block of the coding rows, and the terminated
#: rate-1/2 block they code to.
N_BITS = 8
N_CODED = 2 * (N_BITS + 6)


def _bits(shape):
    return np.zeros(shape, dtype=np.uint8)


def _samples(shape):
    return np.ones(shape, dtype=np.complex128)


def _identities(shape):
    return np.broadcast_to(np.eye(shape[-1], dtype=np.complex128), shape)


def _transmit(stack):
    return np.stack([burst.samples for burst in MimoTransmitter().transmit(stack)])


def _push(chunk):
    # A short chunk completes no frame: ``push`` returns an empty list.
    layout = burst_layout(TransceiverConfig(), N_BITS)
    return StreamFrameDetector(PREAMBLE, layout).push(chunk)


#: name: (stage, input maker, well-formed stack, the shape it returns,
#: one-item form, wrong rank, typed error).
STAGES = {
    "transmit": (
        _transmit,
        _bits,
        (2, 4, N_BITS),
        (2, 4, burst_layout(TransceiverConfig(), N_BITS).length),
        (4, N_BITS),
        (1, 2, 4, N_BITS),
        ConfigurationError,
    ),
    "encode": (
        ConvolutionalEncoder().encode,
        _bits,
        (3, N_BITS),
        (3, N_CODED),
        (N_BITS,),
        (3, 1, N_BITS),
        ConfigurationError,
    ),
    "scramble": (
        Scrambler().process,
        _bits,
        (3, 8),
        (3, 8),
        (8,),
        (2, 3, 8),
        ConfigurationError,
    ),
    "depuncture": (
        lambda stack: ViterbiDecoder().depuncture(stack, N_BITS + 6)[0],
        _bits,
        (3, N_CODED),
        (N_BITS + 6, 2, 3),
        (N_CODED,),
        (3, 1, N_CODED),
        ConfigurationError,
    ),
    "decode": (
        lambda stack: ViterbiDecoder().decode(stack, N_BITS),
        _bits,
        (3, N_CODED),
        (3, N_BITS),
        (N_CODED,),
        (3, 1, N_CODED),
        DecodingError,
    ),
    "qr": (
        lambda stack: np.stack(qr_decompose_givens(stack)),
        _identities,
        (5, 4, 4),
        (2, 5, 4, 4),
        (4, 4),
        (2, 5, 4, 4),
        ConfigurationError,
    ),
    "r-inverse": (
        invert_upper_triangular,
        _identities,
        (5, 4, 4),
        (5, 4, 4),
        (4, 4),
        (2, 5, 4, 4),
        ConfigurationError,
    ),
    "sync-metric": (
        TimeSynchronizer(PREAMBLE.sts_time(), PREAMBLE.lts_time()).metric,
        _samples,
        (2, 64),
        (2, 64 - 31),
        (64,),
        (1, 2, 64),
        ConfigurationError,
    ),
    "frame-detector-push": (
        _push,
        _samples,
        (4, 10),
        (0,),
        (10,),
        (1, 4, 10),
        ConfigurationError,
    ),
    "cfo-repetition": (
        lambda samples: estimate_cfo_from_repetition(samples, 16, 0, 2),
        _samples,
        (2, 64),
        (),
        (64,),
        (1, 2, 64),
        ConfigurationError,
    ),
    "occupied-power": (
        occupied_power,
        _samples,
        (2, 10),
        (),
        (10,),
        (1, 2, 10),
        ConfigurationError,
    ),
}


@pytest.mark.parametrize(
    "stage, make, stack, expected", [row[:4] for row in STAGES.values()], ids=list(STAGES)
)
def test_well_formed_stack_returns_a_stack(stage, make, stack, expected):
    assert np.shape(stage(make(stack))) == expected


@pytest.mark.parametrize("form", ["one-item", "wrong-rank"])
@pytest.mark.parametrize(
    "stage, make, one_item, wrong_rank, error",
    [row[:2] + row[4:] for row in STAGES.values()],
    ids=list(STAGES),
)
def test_malformed_input_raises_the_typed_error(stage, make, one_item, wrong_rank, error, form):
    with pytest.raises(error) as excinfo:
        stage(make(one_item if form == "one-item" else wrong_rank))
    assert isinstance(excinfo.value, ReproError)
    if error is ConfigurationError:
        assert isinstance(excinfo.value, ValueError)
