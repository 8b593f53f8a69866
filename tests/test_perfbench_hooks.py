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
