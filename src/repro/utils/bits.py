"""Bit-level helpers used throughout the transceiver.

All functions operate on NumPy ``uint8`` arrays whose elements are 0 or 1,
with the most significant bit first unless stated otherwise.  The hardware
described in the paper streams bits serially into the convolutional encoder
and groups them for the symbol mapper; these helpers provide the equivalent
conversions for the software model.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import BitArray, IntArray

__all__ = [
    "BitArray",
    "count_bit_errors",
    "pack_bits",
    "unpack_bits",
]


def _as_bit_array(bits: Union[Sequence[int], np.ndarray]) -> BitArray:
    """Coerce ``bits`` into a validated uint8 array of zeros and ones."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size and arr.max(initial=0) > 1:
        raise ConfigurationError("bit array may only contain 0s and 1s")
    return arr


def pack_bits(bits: Union[Sequence[int], np.ndarray], group: int) -> IntArray:
    """Group a bit stream into integers of ``group`` bits each, MSB first.

    This mirrors the symbol-mapper addressing in the paper: the interleaver
    output is grouped into 1/2/4/6-bit addresses that index the constellation
    look-up table.
    """
    arr = _as_bit_array(bits)
    if group <= 0:
        raise ConfigurationError("group size must be positive")
    if arr.size % group != 0:
        raise ConfigurationError(
            f"bit stream length {arr.size} is not a multiple of group size {group}"
        )
    reshaped = arr.reshape(-1, group)
    weights = 1 << np.arange(group - 1, -1, -1)
    return (reshaped * weights).sum(axis=1).astype(np.int64)


def unpack_bits(values: Union[Sequence[int], np.ndarray], group: int) -> BitArray:
    """Expand integers back into an MSB-first bit stream of ``group`` bits each."""
    if group <= 0:
        raise ConfigurationError("group size must be positive")
    vals = np.asarray(values, dtype=np.int64).ravel()
    if vals.size and (vals.min(initial=0) < 0 or vals.max(initial=0) >= (1 << group)):
        raise ConfigurationError(f"values do not fit in {group} bits")
    shifts = np.arange(group - 1, -1, -1)
    bits = (vals[:, None] >> shifts) & 1
    return bits.astype(np.uint8).ravel()


def count_bit_errors(
    reference: Union[Sequence[int], np.ndarray],
    received: Union[Sequence[int], np.ndarray],
) -> int:
    """Count positions where two equal-shape bit arrays differ.

    The one bit-error count of the link:
    :meth:`~repro.core.frame.BurstOutcome.score` scores every decoded
    burst with it, over all its streams at once.  Arrays of different
    shapes, ragged sequences (streams of unequal length), or arrays
    holding anything but 0s and 1s, raise
    :class:`~repro.exceptions.ConfigurationError`.
    """
    try:
        ref = np.asarray(reference, dtype=np.uint8)
        rec = np.asarray(received, dtype=np.uint8)
    except ValueError as exc:
        raise ConfigurationError(f"bit arrays must not be ragged: {exc}") from exc
    if ref.shape != rec.shape:
        raise ConfigurationError(
            f"bit arrays have different shapes ({ref.shape} vs {rec.shape})"
        )
    if ref.max(initial=0) > 1 or rec.max(initial=0) > 1:
        raise ConfigurationError("bit array may only contain 0s and 1s")
    return int(np.count_nonzero(ref != rec))
