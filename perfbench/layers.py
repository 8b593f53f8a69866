"""Outside-in per-layer tracing for the benchmark.

The tracer wraps the public callables each layer exposes, on the class
attribute or module global that callers actually look up, records one span
per call (name, start, end, parent, operation id) in memory, and restores
every original object when it is uninstalled.  Nothing inside ``src/`` is
modified: the wrappers live here and only exist while a traced pass runs.

A layer's self time is its span's duration minus the durations of the
spans nested directly inside it.  Spans nest strictly (one thread, one
call stack), so the children of a span never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, class or None for a module global, attribute).  The
#: module is where callers look the name up, which for module globals is
#: the importing module, not the defining one.
WRAPPED: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("core.transmitter", "repro.core.transmitter", "MimoTransmitter", "transmit"),
    ("coding.scrambler", "repro.coding.scrambler", "Scrambler", "process"),
    ("coding.convolutional", "repro.coding.convolutional", "ConvolutionalEncoder", "encode"),
    ("coding.interleaver", "repro.core.transmitter", None, "interleave"),
    ("coding.interleaver", "repro.core.receiver", None, "deinterleave"),
    ("modulation.mapper", "repro.modulation.mapper", "SymbolMapper", "map_bits"),
    ("core.pilots", "repro.core.pilots", "PilotProcessor", "insert_block"),
    ("core.pilots", "repro.core.pilots", "PilotProcessor", "correct_block"),
    ("dsp.fft", "repro.dsp.fft", "FftPlan", "forward"),
    ("dsp.fft", "repro.dsp.fft", "FftPlan", "inverse"),
    ("dsp.fixedpoint", "repro.dsp.fixedpoint", "FixedPointFormat", "quantize_complex"),
    ("channel.model", "repro.channel.model", "MimoChannel", "transmit"),
    ("core.receiver", "repro.core.receiver", "MimoReceiver", "receive"),
    ("sync.time_sync", "repro.core.receiver", "MimoReceiver", "synchronize"),
    ("sync.cfo", "repro.sync.cfo", "CfoEstimator", "estimate"),
    ("sync.cfo", "repro.sync.cfo", "CfoEstimator", "correct"),
    ("mimo.channel_estimation", "repro.mimo.channel_estimation", "ChannelEstimator", "estimate"),
    ("mimo.qr", "repro.mimo.channel_estimation", None, "qr_decompose_givens"),
    ("mimo.rinv", "repro.mimo.channel_estimation", None, "invert_upper_triangular"),
    ("mimo.detector", "repro.core.receiver", None, "zf_detect"),
    ("mimo.detector", "repro.mimo.detector", "MmseDetector", "detect"),
    ("modulation.demapper", "repro.modulation.demapper", "SymbolDemapper", "demap"),
    ("coding.viterbi", "repro.coding.viterbi", "ViterbiDecoder", "decode"),
    ("stream.scheduler", "repro.stream.scheduler", "DownlinkScheduler", "run"),
    ("stream.pipeline", "repro.stream.pipeline", "StreamingReceiver", "push"),
    ("stream.pipeline", "repro.stream.pipeline", "StreamingReceiver", "flush"),
    ("stream.detector", "repro.stream.detector", "StreamFrameDetector", "push"),
    ("stream.detector", "repro.stream.detector", "StreamFrameDetector", "flush"),
    ("sim.runner", "repro.sim.runner", "SweepRunner", "run"),
    ("sim.engine", "repro.sim.runner", None, "simulate_batch"),
    ("sim.spec", "repro.sim.spec", "SweepPoint", "content_key"),
    ("sim.spec", "repro.sim.spec", "SweepSpec", "to_dict"),
    ("sim.spec", "repro.sim.spec", "SweepSpec", "from_dict"),
    ("sim.store.put", "repro.sim.store", "ResultStore", "put"),
    ("sim.store.get", "repro.sim.store", "ResultStore", "get"),
    ("sim.store.get", "repro.sim.store", "ResultStore", "get_many"),
)

#: Layers reported as ``<layer>.ms`` and ``<layer>.calls``.
TIMED_LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for layer, *_ in WRAPPED if not layer.startswith("sim.store"))
)

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS: Dict[str, str] = {}
for _layer in TIMED_LAYERS:
    PER_LAYER_METRICS[f"{_layer}.ms"] = "ms"
    PER_LAYER_METRICS[f"{_layer}.calls"] = "count"
PER_LAYER_METRICS.update(
    {
        "coding.viterbi.trellis_steps": "count",
        "stream.detector.match_ratio": "ratio",
        "stream.scheduler.air_latency_p99_us": "us",
        "sim.engine.transceiver_cache_misses": "count",
        "sim.store.put_ms": "ms",
        "sim.store.put_calls": "count",
        "sim.store.get_ms": "ms",
        "sim.store.get_calls": "count",
        "sim.store.hit_ratio": "ratio",
        "core.receiver.decode_failures": "count",
        "trace.overhead": "ratio",
    }
)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use the tracer as a context manager around each traced pass; the
    spans and counters accumulate across passes until :meth:`write_spans`.
    ``phase`` labels the pass ("cold" / "warm") for counters that only
    make sense on one of them.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.phase = "cold"
        self._op = 0
        self._stack: List[int] = []
        self._child_s: List[float] = []
        self._originals: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, layer: str, function: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if layer == "core.transmitter":
                tracer._op += 1
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((layer, 0.0, 0.0, parent, tracer._op))
            tracer._stack.append(index)
            tracer._child_s.append(0.0)
            start = time.perf_counter()
            result = None
            error: Optional[BaseException] = None
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                child = tracer._child_s.pop()
                duration = end - start
                if tracer._child_s:
                    tracer._child_s[-1] += duration
                tracer.spans[index] = (layer, start, end, parent, tracer.spans[index][4])
                tracer.self_s[layer] = tracer.self_s.get(layer, 0.0) + duration - child
                tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
                if hook is not None:
                    hook(tracer, args, kwargs, result, error)

        return wrapper

    # -- install / restore ---------------------------------------------
    def __enter__(self) -> "Tracer":
        """Wrap every callable in ``WRAPPED``; a failure part-way restores them all."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        try:
            for layer, module_name, class_name, attribute in WRAPPED:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                original = vars(owner)[attribute]
                hook = _HOOKS.get((layer, attribute))
                if isinstance(original, classmethod):
                    replacement: Any = classmethod(self._wrap(layer, original.__func__, hook))
                else:
                    replacement = self._wrap(layer, original, hook)
                self._originals.append((owner, attribute, original))
                setattr(owner, attribute, replacement)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        """Put every original back and check that it really is back."""
        originals, self._originals = self._originals, []
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
        leaked = [
            f"{getattr(owner, '__name__', owner)}.{attribute}"
            for owner, attribute, original in originals
            if vars(owner)[attribute] is not original
        ]
        if leaked:
            raise RuntimeError(f"traced attributes not restored: {leaked}")

    # -- output ----------------------------------------------------------
    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON list per line: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _viterbi_steps(tracer: Tracer, args, kwargs, result, error) -> None:
    if error is None:
        decoder = args[0]
        terminated = kwargs.get("terminated", args[3] if len(args) > 3 else True)
        tail = decoder.code.memory if terminated else 0
        tracer.count("coding.viterbi.trellis_steps", len(result) + tail)


def _detections(tracer: Tracer, args, kwargs, result, error) -> None:
    if error is None:
        tracer.count("stream.detector.detections", len(result))


def _decode_failures(tracer: Tracer, args, kwargs, result, error) -> None:
    from repro.exceptions import DecodingError

    if isinstance(error, DecodingError):
        tracer.count("core.receiver.decode_failures")


def _store_get(tracer: Tracer, args, kwargs, result, error) -> None:
    if error is None and tracer.phase == "warm":
        tracer.count("sim.store.warm_lookups")
        tracer.count("sim.store.warm_hits", int(result is not None))


def _store_get_many(tracer: Tracer, args, kwargs, result, error) -> None:
    if error is None and tracer.phase == "warm":
        keys = args[1] if len(args) > 1 else kwargs["keys"]
        tracer.count("sim.store.warm_lookups", len(set(keys)))
        tracer.count("sim.store.warm_hits", len(result))


_HOOKS: Dict[Tuple[str, str], Callable] = {
    ("coding.viterbi", "decode"): _viterbi_steps,
    ("stream.detector", "push"): _detections,
    ("stream.detector", "flush"): _detections,
    ("core.receiver", "receive"): _decode_failures,
    ("sim.store.get", "get"): _store_get,
    ("sim.store.get", "get_many"): _store_get_many,
}


def per_layer_metrics(
    tracer: Tracer,
    ops: int,
    time_scale: float,
    cache_misses: int,
    served_frames: int,
    spurious: int,
    air_latency_p99_us: float,
    overhead: float,
) -> Dict[str, float]:
    """Per-operation layer metrics from one workload's traced passes.

    Layers that never ran on the workload report 0.  ``ops`` is the
    workload's operation count (bursts, points or frames); ``time_scale``
    converts the traced passes' wall time into reference seconds.
    """
    per_op = 1.0 / max(ops, 1)
    ms_per_op = 1e3 * time_scale * per_op
    metrics: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.ms"] = tracer.self_s.get(layer, 0.0) * ms_per_op
        metrics[f"{layer}.calls"] = tracer.calls.get(layer, 0) * per_op
    counters = tracer.counters
    detections = counters.get("stream.detector.detections", 0)
    lookups = counters.get("sim.store.warm_lookups", 0)
    metrics.update(
        {
            "coding.viterbi.trellis_steps": counters.get("coding.viterbi.trellis_steps", 0) * per_op,
            "stream.detector.match_ratio": (
                (detections - spurious) / served_frames if served_frames else 0.0
            ),
            "stream.scheduler.air_latency_p99_us": air_latency_p99_us,
            "sim.engine.transceiver_cache_misses": cache_misses * per_op,
            "sim.store.put_ms": tracer.self_s.get("sim.store.put", 0.0) * ms_per_op,
            "sim.store.put_calls": tracer.calls.get("sim.store.put", 0) * per_op,
            "sim.store.get_ms": tracer.self_s.get("sim.store.get", 0.0) * ms_per_op,
            "sim.store.get_calls": tracer.calls.get("sim.store.get", 0) * per_op,
            "sim.store.hit_ratio": counters.get("sim.store.warm_hits", 0) / lookups if lookups else 0.0,
            "core.receiver.decode_failures": counters.get("core.receiver.decode_failures", 0) * per_op,
            "trace.overhead": overhead,
        }
    )
    if set(metrics) != set(PER_LAYER_METRICS):
        raise RuntimeError("per-layer metric table out of sync")
    return metrics
