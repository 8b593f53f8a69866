"""Tests for repro.hardware.memory."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.hardware.memory import CircularBuffer, DualPortRam, PingPongBuffer, Rom


class TestRom:
    def test_read_contents(self):
        rom = Rom([1 + 1j, 2 - 2j, 3j], word_bits=32)
        assert rom.read(1) == 2 - 2j
        assert len(rom) == 3

    def test_out_of_range(self):
        rom = Rom([0], word_bits=8)
        with pytest.raises(IndexError):
            rom.read(1)

    def test_memory_bits(self):
        assert Rom([0] * 64, word_bits=32).memory_bits == 2048

    def test_invalid_word_bits(self):
        with pytest.raises(ValueError):
            Rom([0], word_bits=0)


class TestDualPortRam:
    def test_write_then_read(self):
        ram = DualPortRam(depth=16, word_bits=32)
        ram.write(5, 1 - 1j)
        assert ram.read(5) == 1 - 1j

    def test_unwritten_locations_zero(self):
        assert DualPortRam(4, 8).read(0) == 0

    def test_address_checks(self):
        ram = DualPortRam(4, 8)
        with pytest.raises(IndexError):
            ram.write(4, 0)
        with pytest.raises(IndexError):
            ram.read(-1)

    def test_memory_bits(self):
        assert DualPortRam(depth=128, word_bits=32).memory_bits == 4096


class TestPingPongBuffer:
    def test_block_available_only_when_full(self):
        buffer = PingPongBuffer(block_size=4)
        assert not buffer.push(1)
        assert not buffer.push(0)
        assert not buffer.push(1)
        assert buffer.push(1)
        assert buffer.readable
        np.testing.assert_array_equal(buffer.read_block(), [1, 0, 1, 1])
        assert not buffer.readable

    def test_continuous_streaming_swaps(self):
        buffer = PingPongBuffer(block_size=2)
        buffer.push(1)
        buffer.push(2)
        first = buffer.read_block()
        buffer.push(3)
        buffer.push(4)
        second = buffer.read_block()
        np.testing.assert_array_equal(first, [1, 2])
        np.testing.assert_array_equal(second, [3, 4])
        assert buffer.swaps == 2

    def test_read_without_block_raises(self):
        with pytest.raises(RuntimeError):
            PingPongBuffer(2).read_block()

    def test_memory_bits_counts_both_memories(self):
        assert PingPongBuffer(block_size=192, word_bits=1).memory_bits == 384

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            PingPongBuffer(0)


class TestCircularBuffer:
    def test_latest_returns_most_recent(self):
        buffer = CircularBuffer(depth=8)
        buffer.push_many(range(10))
        np.testing.assert_allclose(buffer.latest(3), [7, 8, 9])

    def test_wraparound(self):
        buffer = CircularBuffer(depth=4)
        buffer.push_many([1, 2, 3, 4, 5, 6])
        np.testing.assert_allclose(buffer.latest(4), [3, 4, 5, 6])

    def test_requesting_too_many_raises(self):
        buffer = CircularBuffer(depth=4)
        buffer.push(1)
        with pytest.raises(ValueError):
            buffer.latest(2)

    def test_latest_zero_is_empty(self):
        # A depth-8 buffer holding 3 samples used to hand back all 8 slots.
        buffer = CircularBuffer(depth=8)
        buffer.push_many([1, 2, 3])
        assert buffer.latest(0).shape == (0,)
        assert CircularBuffer(depth=8).latest(0).shape == (0,)

    @pytest.mark.parametrize("count", [-1, -8])
    def test_negative_count_raises(self, count):
        # ``latest(-1)`` used to return 7 of the 8 slots.
        buffer = CircularBuffer(depth=8)
        buffer.push_many([1, 2, 3])
        with pytest.raises(ConfigurationError):
            buffer.latest(count)

    def test_latest_whole_wrapped_buffer(self):
        buffer = CircularBuffer(depth=4)
        buffer.push_many(range(1, 8))
        np.testing.assert_allclose(buffer.latest(len(buffer)), [4, 5, 6, 7])

    def test_len_saturates_at_depth(self):
        buffer = CircularBuffer(depth=3)
        buffer.push_many(range(10))
        assert len(buffer) == 3

    def test_memory_bits(self):
        assert CircularBuffer(depth=800, word_bits=32).memory_bits == 25600

    @pytest.mark.parametrize("depth", [0, -1])
    def test_invalid_depth(self, depth):
        with pytest.raises(ValueError):
            CircularBuffer(depth)

    def test_push_many_equals_single_pushes(self):
        one, many = CircularBuffer(depth=5), CircularBuffer(depth=5)
        for value in range(12):
            one.push(value + 1j)
        many.push_many(np.arange(12) + 1j)
        np.testing.assert_array_equal(one.latest(5), many.latest(5))

    def test_latest_after_an_exact_fill(self):
        buffer = CircularBuffer(depth=4)
        buffer.push_many([1, 2, 3, 4])
        np.testing.assert_allclose(buffer.latest(4), [1, 2, 3, 4])
        np.testing.assert_allclose(buffer.latest(2), [3, 4])

    def test_partial_fill_keeps_length(self):
        buffer = CircularBuffer(depth=8)
        buffer.push_many([5, 6])
        assert len(buffer) == 2
        np.testing.assert_allclose(buffer.latest(2), [5, 6])
