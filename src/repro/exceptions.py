"""Exception hierarchy for the MIMO transceiver reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """Raised when a transceiver or block configuration is inconsistent."""


class DecodingError(ReproError):
    """Raised when the receive datapath cannot decode a frame."""


class SynchronizationError(DecodingError):
    """Raised when the time synchroniser cannot locate the start of a burst.

    A burst the receiver cannot lock onto — no correlation peak, or
    a lock so late that the preamble runs past the received samples —
    cannot be decoded, so this is a :class:`DecodingError`: the sweep
    engine and the streaming pipeline count it as a lost frame.
    """


class ChannelEstimationError(DecodingError):
    """Raised when channel estimation fails (e.g. singular channel matrix).

    A frame whose channel cannot be inverted cannot be decoded, so this is
    a :class:`DecodingError`: the sweep engine and the streaming pipeline
    count it as a lost frame like every other receiver give-up.
    """
