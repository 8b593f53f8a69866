"""Exception hierarchy for the MIMO transceiver reproduction."""

from __future__ import annotations

import numbers

import numpy as np


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a transceiver or block configuration is inconsistent.

    Also a :class:`ValueError`, so callers that guarded a check with
    ``except ValueError`` before it raised this keep working.
    """


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


def integer_at_least(name: str, value, minimum: int) -> int:
    """``value``, a Python or numpy integer of at least ``minimum``, as an
    ``int`` (so no equal value of another type hashes to another key);
    anything else raises :class:`ConfigurationError`.

    The one count rule of every front door: sweep specs, the runner and
    the transmitter's sizing."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def boolean_flag(name: str, value) -> bool:
    """``value``, a Python or numpy boolean, as a ``bool`` (so ``0``,
    ``"no"`` or ``np.True_`` never reach a seed payload in another form);
    anything else raises :class:`ConfigurationError`.

    The one flag rule of every front door: sweep specs and the
    transceiver configuration."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{name} must be a boolean, got {value!r}")
    return bool(value)
