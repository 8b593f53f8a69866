"""Behavioural models of the FPGA memory structures the architecture uses.

The paper's datapaths are organised around a handful of memory idioms:

* ROMs preloaded from memory-initialisation files (STS/LTS sequences, pilot
  tones, symbol-mapper look-up tables);
* dual-port RAMs (the cyclic-prefix double buffer, channel-estimate
  memories);
* ping-pong (double-buffer) memories (the block interleaver's "Mem A /
  Mem B" pair);
* circular buffers (receiver input buffering to cover time-synchroniser
  latency).

These classes model the data movement and occupancy semantics (including the
"can only read a full block" and "write one half while reading the other"
behaviours) and report their size in memory bits for the resource model.
"""

from __future__ import annotations

from typing import Generic, Iterable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.exceptions import ConfigurationError

T = TypeVar("T")


class Rom(Generic[T]):
    """Read-only memory preloaded with constant contents."""

    def __init__(self, contents: Sequence[T], word_bits: int) -> None:
        if word_bits <= 0:
            raise ValueError("word_bits must be positive")
        self._contents: List[T] = list(contents)
        self.word_bits = word_bits

    def __len__(self) -> int:
        return len(self._contents)

    def read(self, address: int) -> T:
        """Read one word; addresses outside the ROM raise ``IndexError``."""
        if not 0 <= address < len(self._contents):
            raise IndexError(f"ROM address {address} out of range")
        return self._contents[address]

    @property
    def memory_bits(self) -> int:
        """Total storage in bits."""
        return len(self._contents) * self.word_bits


class DualPortRam:
    """Simple dual-port RAM: simultaneous read and write at distinct addresses."""

    def __init__(self, depth: int, word_bits: int) -> None:
        if depth <= 0 or word_bits <= 0:
            raise ValueError("depth and word_bits must be positive")
        self.depth = depth
        self.word_bits = word_bits
        self._data: List[complex] = [0j] * depth

    def write(self, address: int, value: complex) -> None:
        """Write one word through the write port."""
        if not 0 <= address < self.depth:
            raise IndexError(f"RAM write address {address} out of range")
        self._data[address] = value

    def read(self, address: int) -> complex:
        """Read one word through the read port."""
        if not 0 <= address < self.depth:
            raise IndexError(f"RAM read address {address} out of range")
        return self._data[address]

    @property
    def memory_bits(self) -> int:
        """Total storage in bits."""
        return self.depth * self.word_bits


class PingPongBuffer:
    """Double-buffer (Mem A / Mem B) supporting continual streaming.

    One memory accepts writes while the other is read out; the roles swap
    when the writing memory fills.  This is the structure the paper's block
    interleaver and several other entities use so that data can stream
    without stalling.
    """

    def __init__(self, block_size: int, word_bits: int = 1) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self.word_bits = word_bits
        self._write_memory: List[float] = []
        self._read_memory: Optional[np.ndarray] = None
        self.swaps = 0

    @property
    def write_fill(self) -> int:
        """Number of words currently in the write-side memory."""
        return len(self._write_memory)

    @property
    def readable(self) -> bool:
        """True when a full block is available on the read side."""
        return self._read_memory is not None

    def push(self, value: float) -> bool:
        """Write one word; returns True if this write completed a block.

        Completing a block swaps the memories.  If the previous read block
        was never consumed it is overwritten (the hardware analogue of a
        downstream stall, which the control FSM is designed to avoid).
        """
        self._write_memory.append(value)
        if len(self._write_memory) < self.block_size:
            return False
        self._read_memory = np.array(self._write_memory, dtype=np.float64)
        self._write_memory = []
        self.swaps += 1
        return True

    def read_block(self) -> np.ndarray:
        """Read the completed block out of the read-side memory."""
        if self._read_memory is None:
            raise RuntimeError("no complete block available to read")
        block = self._read_memory
        self._read_memory = None
        return block

    @property
    def memory_bits(self) -> int:
        """Total storage of both memories in bits."""
        return 2 * self.block_size * self.word_bits


class CircularBuffer:
    """Fixed-size circular buffer retaining the most recent samples.

    The receiver input uses one per antenna, "large enough to handle time
    synchroniser latency", so that once the start of frame is located the
    LTS samples are still available to be replayed into the FFT.
    """

    def __init__(self, depth: int, word_bits: int = 32) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self.word_bits = word_bits
        self._data = np.zeros(depth, dtype=np.complex128)
        self._write_index = 0
        self._count = 0

    def push(self, value: complex) -> None:
        """Write one sample, overwriting the oldest when full."""
        self._data[self._write_index] = value
        self._write_index = (self._write_index + 1) % self.depth
        self._count = min(self._count + 1, self.depth)

    def push_many(self, values: Iterable[complex]) -> None:
        """Write many samples."""
        for value in values:
            self.push(value)

    def __len__(self) -> int:
        return self._count

    def latest(self, count: int) -> np.ndarray:
        """The most recent ``count`` samples, oldest first (none for ``0``).

        Raises :class:`~repro.exceptions.ConfigurationError` on a negative
        ``count`` or one past the samples held.
        """
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        if count > self._count:
            raise ConfigurationError(
                f"only {self._count} samples available, asked for {count}"
            )
        if count == 0:
            return np.zeros(0, dtype=np.complex128)
        end = self._write_index
        start = (end - count) % self.depth
        if start < end:
            return self._data[start:end].copy()
        return np.concatenate([self._data[start:], self._data[:end]])

    @property
    def memory_bits(self) -> int:
        """Total storage in bits."""
        return self.depth * self.word_bits
