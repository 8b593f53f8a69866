"""Golden corpus: the simulated outcomes a bit-exact change must not move.

A handful of small sweeps that together touch every axis value at least
once, one CORDIC-inversion burst and one short downlink-scheduler run are
simulated here and compared against ``tests/golden_corpus.json``, keyed by
``ENGINE_VERSION``.  Each sweep point pins its ``(bit_errors,
frame_errors, decode_failures)``; the burst pins a SHA-256 of its decoded
bits; the stream pins every decoded frame's ``ok`` flag and a SHA-256 of
the decoded bits.  No float is pinned, and the corpus reads only public
results.

A change that moves any of these outcomes fails here, wherever it comes
from: the datapath, the seeding, or a numpy upgrade that flips a decision.
If the move is deliberate, bump ``ENGINE_VERSION`` and run
``make corpus-pin`` (``tools/pin_golden_corpus.py``) to record the new
version's entry; the script refuses to overwrite an existing entry.  A
refactor that keeps every bit needs no step at all.  A missing entry for
the current version fails the corpus, never skips it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import shutil
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import transmit_bursts
from repro.core.transmitter import MimoTransmitter
from repro.sim import ENGINE_VERSION, ImpairmentSpec, SweepRunner, SweepSpec
from repro.stream.pipeline import DecodedFrame
from repro.stream.scheduler import DownlinkScheduler

REPO_ROOT = Path(__file__).resolve().parents[1]
PINS_PATH = Path(__file__).with_name("golden_corpus.json")
PIN_SCRIPT = REPO_ROOT / "tools" / "pin_golden_corpus.py"

#: The impairment axis, by the name a point's pin label shows.
IMPAIRMENTS = {
    "ideal": None,
    "cfo+delay": ImpairmentSpec(cfo_normalized=2e-4, sample_delay=7),
    "iq": ImpairmentSpec(iq_amplitude_db=0.5, iq_phase_deg=3.0),
    "q12": ImpairmentSpec.quantized(12),
    "paper_frontend": ImpairmentSpec.paper_frontend(),
}

#: The sweeps, each run with ``SweepRunner(n_workers=1, cache=False)``.
SWEEPS = {
    "rates_modulations": SweepSpec(
        snr_db=(6.0, 14.0),
        modulations=("bpsk", "qpsk", "16qam", "64qam"),
        code_rates=("1/2", "2/3", "3/4"),
        stream_counts=(2,),
        detectors=("zf", "mmse"),
        n_info_bits=96,
        n_bursts=2,
        target_errors=None,
        base_seed=21,
    ),
    "streams_channels_soft": SweepSpec(
        snr_db=(10.0,),
        stream_counts=(1, 2, 4),
        channels=("ideal", "flat_rayleigh", "frequency_selective"),
        detectors=("zf", "mmse"),
        n_info_bits=96,
        n_bursts=2,
        target_errors=None,
        base_seed=22,
        soft_decision=True,
    ),
    "impairments": SweepSpec(
        snr_db=(16.0,),
        impairments=tuple(IMPAIRMENTS.values()),
        n_info_bits=96,
        n_bursts=2,
        target_errors=None,
        base_seed=23,
    ),
    "known_timing_512_shared_fading": SweepSpec(
        snr_db=(8.0, 12.0),
        modulations=("qpsk",),
        stream_counts=(2,),
        n_info_bits=256,
        n_bursts=2,
        target_errors=None,
        base_seed=24,
        fresh_fading_per_burst=False,
        known_timing=True,
        fft_size=512,
    ),
    "early_stop": SweepSpec(
        snr_db=(-10.0, 2.0, 12.0),
        modulations=("qpsk",),
        stream_counts=(2,),
        n_info_bits=96,
        n_bursts=4,
        target_errors=200,
        base_seed=25,
    ),
}


def _label(point) -> str:
    """A point's pin key: every axis value, in grid order."""
    impairment = next(
        name for name, spec in IMPAIRMENTS.items() if spec == point.impairment
    )
    return (
        f"{point.modulation} r{point.code_rate} {point.n_streams}x "
        f"{point.channel} {point.detector} {impairment} {point.snr_db:g}dB"
    )


def _bits_sha256(blocks: List[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for bits in blocks:
        digest.update(np.asarray(bits, dtype=np.uint8).tobytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def sweep_results() -> Dict[str, list]:
    """Every corpus sweep's point results, by sweep name."""
    return {
        name: SweepRunner(spec, n_workers=1, cache=False).run().points
        for name, spec in SWEEPS.items()
    }


def cordic_burst() -> dict:
    """One burst through the CORDIC channel inversion."""
    config = TransceiverConfig(use_cordic_channel_inversion=True)
    (air,) = transmit_bursts(
        MimoTransmitter(config),
        [MimoChannel(FlatRayleighChannel(rng=37), snr_db=20.0, rng=32)],
        192,
        rngs=[33],
    )
    (result,) = MimoReceiver(config).receive_stack(
        [air.samples], 192, [air.lts_start], [air.noise_variance]
    )
    return {"bits_sha256": _bits_sha256(result.decoded_bits)}


class _RecordingPipeline:
    """Passes the scheduler's receive stream through, keeping every frame."""

    def __init__(self, pipeline) -> None:
        self.pipeline = pipeline
        self.frames: List[DecodedFrame] = []

    def push(self, chunk: np.ndarray) -> List[DecodedFrame]:
        return self._keep(self.pipeline.push(chunk))

    def flush(self) -> List[DecodedFrame]:
        return self._keep(self.pipeline.flush())

    def _keep(self, frames: List[DecodedFrame]) -> List[DecodedFrame]:
        self.frames.extend(frames)
        return frames


def downlink_stream() -> dict:
    """A two-user, eight-frame downlink run: per-frame outcomes and bits."""
    scheduler = DownlinkScheduler(
        n_users=2, frames_per_user=4, n_info_bits=96, snr_db=22.0, base_seed=41
    )
    recorder = _RecordingPipeline(scheduler.pipeline)
    scheduler.pipeline = recorder
    scheduler.run()
    return {
        "ok": [frame.ok for frame in recorder.frames],
        "bits_sha256": _bits_sha256(
            [
                bits
                for frame in recorder.frames
                if frame.ok
                for bits in frame.outcome.decoded_bits
            ]
        ),
    }


@functools.lru_cache(maxsize=None)
def corpus_outcomes() -> Dict[str, dict]:
    """Every pinned outcome of the corpus, in the pins file's layout."""
    outcomes: Dict[str, dict] = {
        f"sweep:{name}": {
            _label(result.point): [
                result.bit_errors,
                result.frame_errors,
                result.decode_failures,
            ]
            for result in results
        }
        for name, results in sweep_results().items()
    }
    outcomes["cordic_burst"] = cordic_burst()
    outcomes["stream"] = downlink_stream()
    return outcomes


def load_pins(path: Path = PINS_PATH) -> Dict[str, dict]:
    """The pins recorded for the current ``ENGINE_VERSION``.

    A missing entry fails the caller: a corpus that skipped would let a
    version bump pass with nothing checked.
    """
    pins = json.loads(path.read_text(encoding="utf-8"))
    entry = pins.get(str(ENGINE_VERSION))
    if entry is None:
        pytest.fail(
            f"{path.name} has no pins for ENGINE_VERSION {ENGINE_VERSION}: "
            "run `make corpus-pin` to record them"
        )
    return entry


SECTIONS = [f"sweep:{name}" for name in SWEEPS] + ["cordic_burst", "stream"]


@pytest.mark.parametrize("section", SECTIONS)
def test_corpus_matches_pins(section):
    assert corpus_outcomes()[section] == load_pins()[section]


def test_pins_cover_exactly_the_corpus_sections():
    assert sorted(load_pins()) == sorted(SECTIONS)


def test_corpus_touches_every_axis_value():
    specs = SWEEPS.values()

    def union(axis: str) -> set:
        return {value for spec in specs for value in getattr(spec, axis)}

    assert union("detectors") == {"zf", "mmse"}
    assert {spec.soft_decision for spec in specs} == {False, True}
    assert union("code_rates") == {"1/2", "2/3", "3/4"}
    assert union("modulations") == {"bpsk", "qpsk", "16qam", "64qam"}
    assert union("stream_counts") == {1, 2, 4}
    assert union("channels") == {"ideal", "flat_rayleigh", "frequency_selective"}
    impairments = union("impairments")
    assert ImpairmentSpec.quantized(12) in impairments
    assert ImpairmentSpec.paper_frontend() in impairments
    assert any(
        spec and spec.cfo_normalized and spec.sample_delay for spec in impairments
    )
    assert any(spec and spec.iq_amplitude_db and spec.iq_phase_deg for spec in impairments)
    assert any(spec.known_timing for spec in specs)
    assert any(spec.fft_size == 512 for spec in specs)
    assert not all(spec.fresh_fading_per_burst for spec in specs)
    points = [result for results in sweep_results().values() for result in results]
    assert any(result.early_stopped for result in points)
    assert any(result.decode_failures for result in points)


def _pins_without_current_version(tmp_path):
    """A copy of the pins file lacking this version's entry, and that entry."""
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    current = pins.pop(str(ENGINE_VERSION))
    path = tmp_path / "golden_corpus.json"
    path.write_text(json.dumps(pins), encoding="utf-8")
    return path, current


def test_missing_version_entry_fails_the_corpus(tmp_path):
    path, _ = _pins_without_current_version(tmp_path)
    with pytest.raises(pytest.fail.Exception, match="make corpus-pin"):
        load_pins(path)


def _pin_script():
    spec = importlib.util.spec_from_file_location("pin_golden_corpus", PIN_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pin_script_refuses_to_overwrite_the_current_version(tmp_path):
    path = tmp_path / "golden_corpus.json"
    shutil.copy(PINS_PATH, path)
    before = path.read_bytes()
    assert _pin_script().pin(path) != 0
    assert path.read_bytes() == before


def test_pin_script_records_a_missing_version(tmp_path):
    path, committed = _pins_without_current_version(tmp_path)
    assert _pin_script().pin(path) == 0
    assert load_pins(path) == committed
