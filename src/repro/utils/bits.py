"""Bit-level helpers used throughout the transceiver.

All functions operate on NumPy ``uint8`` arrays whose elements are 0 or 1,
with the most significant bit first unless stated otherwise.  The hardware
described in the paper streams bits serially into the convolutional encoder
and groups them for the symbol mapper; these helpers provide the equivalent
conversions for the software model.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from repro.types import BitArray, IntArray

__all__ = [
    "BitArray",
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "count_bit_errors",
    "int_to_bits",
    "pack_bits",
    "random_bits",
    "unpack_bits",
]


def _as_bit_array(bits: Union[Sequence[int], np.ndarray]) -> BitArray:
    """Coerce ``bits`` into a validated uint8 array of zeros and ones."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size and arr.max(initial=0) > 1:
        raise ValueError("bit array may only contain 0s and 1s")
    return arr


def random_bits(n: int, rng: np.random.Generator | None = None) -> BitArray:
    """Return ``n`` uniformly random bits as a uint8 array.

    Parameters
    ----------
    n:
        Number of bits to generate.  Must be non-negative.
    rng:
        Optional NumPy generator; a fresh default generator is used when
        omitted so results are non-deterministic.
    """
    if n < 0:
        raise ValueError(f"cannot generate a negative number of bits: {n}")
    generator = rng if rng is not None else np.random.default_rng()  # reprolint: disable=DET001 -- documented opt-in: omitting rng is the caller asking for non-determinism; engine paths always pass one
    return generator.integers(0, 2, size=n, dtype=np.uint8)


def int_to_bits(value: int, width: int) -> BitArray:
    """Convert a non-negative integer to ``width`` bits, MSB first."""
    if width < 0:
        raise ValueError("width must be non-negative")
    if value < 0:
        raise ValueError("value must be non-negative")
    if width and value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits: Union[Sequence[int], np.ndarray]) -> int:
    """Convert an MSB-first bit array to the integer it represents."""
    arr = _as_bit_array(bits)
    result = 0
    for bit in arr:
        result = (result << 1) | int(bit)
    return result


def pack_bits(bits: Union[Sequence[int], np.ndarray], group: int) -> IntArray:
    """Group a bit stream into integers of ``group`` bits each, MSB first.

    This mirrors the symbol-mapper addressing in the paper: the interleaver
    output is grouped into 1/2/4/6-bit addresses that index the constellation
    look-up table.
    """
    arr = _as_bit_array(bits)
    if group <= 0:
        raise ValueError("group size must be positive")
    if arr.size % group != 0:
        raise ValueError(
            f"bit stream length {arr.size} is not a multiple of group size {group}"
        )
    reshaped = arr.reshape(-1, group)
    weights = 1 << np.arange(group - 1, -1, -1)
    return (reshaped * weights).sum(axis=1).astype(np.int64)


def unpack_bits(values: Union[Sequence[int], np.ndarray], group: int) -> BitArray:
    """Expand integers back into an MSB-first bit stream of ``group`` bits each."""
    if group <= 0:
        raise ValueError("group size must be positive")
    vals = np.asarray(values, dtype=np.int64).ravel()
    if vals.size and (vals.min(initial=0) < 0 or vals.max(initial=0) >= (1 << group)):
        raise ValueError(f"values do not fit in {group} bits")
    shifts = np.arange(group - 1, -1, -1)
    bits = (vals[:, None] >> shifts) & 1
    return bits.astype(np.uint8).ravel()


def bytes_to_bits(data: Union[bytes, bytearray, Iterable[int]]) -> BitArray:
    """Convert a byte sequence to bits, MSB first within each byte."""
    byte_arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(byte_arr)


def bits_to_bytes(bits: Union[Sequence[int], np.ndarray]) -> bytes:
    """Convert a bit array (length multiple of 8) back to bytes."""
    arr = _as_bit_array(bits)
    if arr.size % 8 != 0:
        raise ValueError("bit stream length must be a multiple of 8 to form bytes")
    return np.packbits(arr).tobytes()


def count_bit_errors(
    reference: Union[Sequence[int], np.ndarray],
    received: Union[Sequence[int], np.ndarray],
) -> int:
    """Count positions where two equal-shape bit arrays differ.

    The one bit-error count of the link:
    :meth:`~repro.core.frame.BurstOutcome.score` scores every decoded
    burst with it, one stream at a time.  Arrays of different
    shapes, or holding anything but 0s and 1s, raise ``ValueError``.
    """
    ref = np.asarray(reference, dtype=np.uint8)
    rec = np.asarray(received, dtype=np.uint8)
    if ref.shape != rec.shape:
        raise ValueError(
            f"bit arrays have different shapes ({ref.shape} vs {rec.shape})"
        )
    if ref.max(initial=0) > 1 or rec.max(initial=0) > 1:
        raise ValueError("bit array may only contain 0s and 1s")
    return int(np.count_nonzero(ref != rec))
