"""802.11a block interleaver / de-interleaver.

The paper implements the interleaver as two large register-based memories in
a ping-pong arrangement: one memory fills from the convolutional encoder
while the other streams out in the permuted order defined by the 802.11a
standard.  (The interleaving pattern prevented use of the FPGA's block RAM,
which is why the entity is so ALUT-hungry in Table 2.)

This module provides the permutation itself: :func:`interleave` /
:func:`deinterleave` permute whole blocks, one or many per call, and the
index helper builds the permutation.  The ping-pong memory pair itself is
not modelled; its cost is the ``block_interleaver`` entity of
:class:`repro.hardware.estimator.TransmitterResourceModel` (Table 2).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

import numpy.typing as npt

from repro.exceptions import ConfigurationError
from repro.types import IntArray


@lru_cache(maxsize=32)
def interleaver_permutation(n_cbps: int, n_bpsc: int) -> IntArray:
    """802.11a interleaver permutation.

    Returns an array ``perm`` of length ``n_cbps`` such that input bit ``k``
    is written to output position ``perm[k]``.  The permutation is built
    once per ``(n_cbps, n_bpsc)`` and returned read-only.

    Parameters
    ----------
    n_cbps:
        Coded bits per OFDM symbol (the interleaver block size).
    n_bpsc:
        Coded bits per subcarrier (1 BPSK, 2 QPSK, 4 16-QAM, 6 64-QAM).
    """
    if n_cbps <= 0 or n_cbps % 16 != 0:
        raise ConfigurationError("n_cbps must be a positive multiple of 16")
    if n_bpsc <= 0:
        raise ConfigurationError("n_bpsc must be positive")
    s = max(n_bpsc // 2, 1)
    k = np.arange(n_cbps)
    # First permutation: adjacent coded bits map onto non-adjacent subcarriers.
    i = (n_cbps // 16) * (k % 16) + k // 16
    # Second permutation: adjacent bits alternate between constellation
    # significance positions.
    j = s * (i // s) + (i + n_cbps - (16 * i) // n_cbps) % s
    perm = np.empty(n_cbps, dtype=np.int64)
    perm[k] = j
    perm.flags.writeable = False
    return perm


def interleave(values: npt.ArrayLike, n_cbps: int, n_bpsc: int) -> np.ndarray:
    """Interleave one or more whole blocks of coded bits (or soft values)."""
    arr = np.asarray(values)
    if arr.size % n_cbps != 0:
        raise ConfigurationError(
            f"input length {arr.size} is not a multiple of the block size {n_cbps}"
        )
    perm = interleaver_permutation(n_cbps, n_bpsc)
    blocks = arr.reshape(-1, n_cbps)
    out = np.empty_like(blocks)
    out[:, perm] = blocks
    return out.reshape(arr.shape)


def deinterleave(values: npt.ArrayLike, n_cbps: int, n_bpsc: int) -> np.ndarray:
    """Invert :func:`interleave` on one or more whole blocks."""
    arr = np.asarray(values)
    if arr.size % n_cbps != 0:
        raise ConfigurationError(
            f"input length {arr.size} is not a multiple of the block size {n_cbps}"
        )
    perm = interleaver_permutation(n_cbps, n_bpsc)
    blocks = arr.reshape(-1, n_cbps)
    out = blocks[:, perm]
    return out.reshape(arr.shape)
