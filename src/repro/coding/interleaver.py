"""802.11a block interleaver / de-interleaver.

The paper implements the interleaver as two large register-based memories in
a ping-pong arrangement: one memory fills from the convolutional encoder
while the other streams out in the permuted order defined by the 802.11a
standard.  (The interleaving pattern prevented use of the FPGA's block RAM,
which is why the entity is so ALUT-hungry in Table 2.)

This module provides the permutation itself (:func:`interleave` /
:func:`deinterleave` and the index helpers) and streaming block objects
(:class:`BlockInterleaver`, :class:`BlockDeinterleaver`) that model the
ping-pong double-buffer behaviour, including the fact that data only becomes
available once an entire block has been written.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional

import numpy as np

import numpy.typing as npt

from repro.types import IntArray
from repro.utils.bits import _as_bit_array


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
        raise ValueError("n_cbps must be a positive multiple of 16")
    if n_bpsc <= 0:
        raise ValueError("n_bpsc must be positive")
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


def deinterleaver_permutation(n_cbps: int, n_bpsc: int) -> IntArray:
    """Inverse permutation: output position ``j`` receives input bit ``perm[j]``."""
    perm = interleaver_permutation(n_cbps, n_bpsc)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    return inverse


def interleave(values: npt.ArrayLike, n_cbps: int, n_bpsc: int) -> np.ndarray:
    """Interleave one or more whole blocks of coded bits (or soft values)."""
    arr = np.asarray(values)
    if arr.size % n_cbps != 0:
        raise ValueError(
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
        raise ValueError(
            f"input length {arr.size} is not a multiple of the block size {n_cbps}"
        )
    perm = interleaver_permutation(n_cbps, n_bpsc)
    blocks = arr.reshape(-1, n_cbps)
    out = blocks[:, perm]
    return out.reshape(arr.shape)


class BlockInterleaver:
    """Streaming ping-pong block interleaver.

    Bits are pushed one at a time (as the convolutional encoder emits them).
    Output blocks only become available once a whole memory has been filled,
    mirroring the hardware's "only when an entire memory block is full can it
    be read out" behaviour.
    """

    def __init__(self, n_cbps: int, n_bpsc: int) -> None:
        self.n_cbps = n_cbps
        self.n_bpsc = n_bpsc
        self._permutation = interleaver_permutation(n_cbps, n_bpsc)
        self._write_memory: List[int] = []
        self._ready_blocks: List[np.ndarray] = []
        #: Number of complete blocks that have passed through the interleaver.
        self.blocks_processed = 0

    @property
    def fill_level(self) -> int:
        """Number of bits currently buffered in the write memory."""
        return len(self._write_memory)

    def push(self, bit: int) -> Optional[np.ndarray]:
        """Push one coded bit; return an interleaved block when one completes."""
        if bit not in (0, 1):
            raise ValueError("interleaver input bits must be 0 or 1")
        self._write_memory.append(int(bit))
        if len(self._write_memory) < self.n_cbps:
            return None
        block = np.array(self._write_memory, dtype=np.uint8)
        self._write_memory = []
        out = np.empty(self.n_cbps, dtype=np.uint8)
        out[self._permutation] = block
        self.blocks_processed += 1
        return out

    def push_block(self, bits: np.ndarray) -> List[np.ndarray]:
        """Push many bits, collecting every completed interleaved block."""
        completed: List[np.ndarray] = []
        for bit in _as_bit_array(bits):
            block = self.push(int(bit))
            if block is not None:
                completed.append(block)
        return completed

    def reset(self) -> None:
        """Discard any partially filled memory."""
        self._write_memory = []
        self.blocks_processed = 0


class BlockDeinterleaver:
    """Streaming block de-interleaver (same structure, inverted addressing).

    Accepts hard bits or soft values; the hardware analogue must widen its
    memories to hold soft bit representations, which the resource model in
    :mod:`repro.hardware.estimator` accounts for.
    """

    def __init__(self, n_cbps: int, n_bpsc: int) -> None:
        self.n_cbps = n_cbps
        self.n_bpsc = n_bpsc
        self._permutation = interleaver_permutation(n_cbps, n_bpsc)
        self._write_memory: List[float] = []
        self.blocks_processed = 0

    @property
    def fill_level(self) -> int:
        """Number of values currently buffered in the write memory."""
        return len(self._write_memory)

    def push(self, value: float) -> Optional[np.ndarray]:
        """Push one received value; return a de-interleaved block when complete."""
        self._write_memory.append(float(value))
        if len(self._write_memory) < self.n_cbps:
            return None
        block = np.array(self._write_memory, dtype=np.float64)
        self._write_memory = []
        out = block[self._permutation]
        self.blocks_processed += 1
        return out

    def push_block(self, values: np.ndarray) -> List[np.ndarray]:
        """Push many values, collecting every completed de-interleaved block."""
        completed: List[np.ndarray] = []
        for value in np.asarray(values, dtype=np.float64).ravel():
            block = self.push(float(value))
            if block is not None:
                completed.append(block)
        return completed

    def reset(self) -> None:
        """Discard any partially filled memory."""
        self._write_memory = []
        self.blocks_processed = 0
