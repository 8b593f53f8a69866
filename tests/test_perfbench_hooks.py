"""The repository benchmark's per-layer tracer still finds every hook.

``perfbench/layers.py`` wraps a fixed list of callables (``WRAPPED``) by
name while a traced run is active.  Renaming or deleting one of them
breaks ``perfbench/run.py --trace 1`` and nothing else, so this test
installs and removes the tracer once and checks every target is back.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module_name, class_name):
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def test_tracer_installs_and_restores_every_target(layers):
    originals = [
        (_owner(module_name, class_name), attribute)
        for _, module_name, class_name, attribute in layers.WRAPPED
    ]
    # A deleted or renamed hook target fails here, with its name.
    before = [vars(owner)[attribute] for owner, attribute in originals]
    with layers.Tracer():
        wrapped = [vars(owner)[attribute] for owner, attribute in originals]
        assert all(now is not then for now, then in zip(wrapped, before))
    after = [vars(owner)[attribute] for owner, attribute in originals]
    assert all(now is then for now, then in zip(after, before))


def test_receiver_decodes_with_keywords_the_viterbi_hook_reads(layers, monkeypatch):
    # The trellis-step hook takes a block as terminated unless ``decode``
    # gets a 4th positional argument or a ``terminated`` keyword; the
    # receiver passes the block and ``n_info_bits=`` alone.
    import numpy as np

    from repro.coding.viterbi import ViterbiDecoder
    from repro.core.receiver import MimoReceiver
    from repro.core.transmitter import MimoTransmitter

    calls = []
    decode = ViterbiDecoder.decode

    def spy(self, *args, **kwargs):
        calls.append((args, kwargs))
        return decode(self, *args, **kwargs)

    monkeypatch.setattr(ViterbiDecoder, "decode", spy)
    burst = MimoTransmitter().transmit_random(96, rng=np.random.default_rng(0))
    MimoReceiver().receive(burst.samples, n_info_bits=96)
    assert calls and all(
        len(args) == 1 and set(kwargs) == {"n_info_bits"} for args, kwargs in calls
    )


@pytest.mark.parametrize("detector", ["zf", "mmse"])
def test_a_mixed_stack_calls_each_stacked_layer_once(layers, detector):
    # The benchmark's per-layer ``calls`` rows count stacked passes: a stack
    # with a rank-deficient burst and an overflowing one among clean bursts
    # still runs one channel estimate, one QR, one detection and one demap.
    import numpy as np

    from repro.core.config import TransceiverConfig
    from repro.core.frame import FrontEndResult
    from repro.core.receiver import MimoReceiver
    from repro.core.transmitter import MimoTransmitter
    from repro.exceptions import ChannelEstimationError, DecodingError

    config = TransceiverConfig(detector=detector)
    transmitter, receiver = MimoTransmitter(config), MimoReceiver(config)
    payload = np.stack([transmitter.random_payload(96, np.random.default_rng(s)) for s in range(4)])
    bursts = transmitter.transmit(payload)
    samples = [burst.samples.copy() for burst in bursts]
    samples[1][2] = 0.0  # a dead receive antenna: rank-deficient estimate
    # A finite tone on subcarrier 1 whose data FFT overflows.
    data = samples[2][:, bursts[2].layout.data_start :]
    data[:] = 1e307 * np.exp(2j * np.pi * np.arange(data.shape[1]) / config.fft_size)
    with layers.Tracer() as tracer:
        outcomes = receiver.detect_stack(receiver.demodulate_stack(samples, 96, [160] * 4))
    assert isinstance(outcomes[1], ChannelEstimationError)
    assert type(outcomes[2]) is DecodingError and "finite" in str(outcomes[2])
    assert all(isinstance(outcomes[i], FrontEndResult) for i in (0, 3))
    for layer in ("mimo.channel_estimation", "mimo.qr", "mimo.detector", "modulation.demapper"):
        assert tracer.calls[layer] == 1, layer
