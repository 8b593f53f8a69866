"""The sanctioned crossings between the dB and linear power domains.

Both domains are plain floats, so nothing in the type system stops an
``snr_db`` from leaking into linear arithmetic — the dB-vs-linear SNR
miscalibration fixed in the occupied-power calibration work was exactly
that bug.  The repo's convention is that the *name* carries the domain
(``*_db`` vs ``*_linear`` / ``noise_variance`` / ``signal_power``) and
that every conversion goes through one of the two helpers below.  The
call sites that cross domains (AWGN calibration, IQ imbalance, capacity)
are each pinned by a closed-form test.

The implementations are bit-identical to the inline idioms they replace
(same operations in the same order), so routing existing call sites
through them changes no simulated numbers.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import numpy.typing as npt

__all__ = ["amplitude_db_to_gain", "db_to_linear"]

_FloatLike = Union[float, npt.NDArray[np.floating]]


def db_to_linear(value_db: _FloatLike) -> _FloatLike:
    """Convert a power quantity from decibels to linear scale.

    ``db_to_linear(snr_db)`` is the linear SNR; dividing a signal power
    by it yields the matching noise variance.
    """
    return 10.0 ** (value_db / 10.0)


def amplitude_db_to_gain(value_db: _FloatLike) -> _FloatLike:
    """Convert an *amplitude* quantity in dB to a linear voltage gain.

    Amplitude quantities (IQ imbalance, per-antenna gain mismatch) use
    the 20-per-decade convention: ``10 ** (value_db / 20)``.
    """
    return 10.0 ** (value_db / 20.0)
