"""Streaming multi-user downlink service.

The sweep engine decodes stacks of bursts it cut itself; this package
makes *live traffic* a supported workload: frames are found in a
continuous sample stream and decoded through the same
:meth:`~repro.core.receiver.MimoReceiver.receive_stack` datapath.

* :mod:`repro.stream.detector` — chunk-invariant rolling-buffer frame
  detection over a continuous multi-antenna stream;
* :mod:`repro.stream.pipeline` — detected windows dispatched to the
  vectorised burst datapath, with sweep-convention loss accounting;
* :mod:`repro.stream.scheduler` / :mod:`repro.stream.traffic` — a
  downlink scheduler multiplexing N per-user queues (round-robin or
  smooth weighted round-robin) over one simulated air interface, fed by
  Poisson traffic generators;
* :mod:`repro.stream.metrics` — per-user latency percentiles, sustained
  frames/sec, goodput and loss rate as plain dataclasses.
"""

from repro.stream.detector import FrameLock, FrameWindow, StreamFrameDetector
from repro.stream.metrics import LatencySummary, ServiceReport, UserStats
from repro.stream.pipeline import DecodedFrame, StreamingReceiver
from repro.stream.scheduler import DownlinkScheduler
from repro.stream.traffic import PoissonTraffic, arrival_times

__all__ = [
    "FrameLock",
    "FrameWindow",
    "StreamFrameDetector",
    "LatencySummary",
    "ServiceReport",
    "UserStats",
    "DecodedFrame",
    "StreamingReceiver",
    "DownlinkScheduler",
    "PoissonTraffic",
    "arrival_times",
]
