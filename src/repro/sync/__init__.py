"""Receiver synchronisation: burst time synchronisation and (as an
extension beyond the paper) preamble-based CFO estimation.

:class:`TimeSynchronizer` is the one time-sync stage: its ``metric`` is the
detection metric and its ``locate`` the lock rule of every receive path."""

from repro.sync.cfo import CfoEstimate, CfoEstimator, estimate_cfo_from_repetition
from repro.sync.time_sync import TimeSynchronizer

__all__ = [
    "TimeSynchronizer",
    "CfoEstimate",
    "CfoEstimator",
    "estimate_cfo_from_repetition",
]
