"""Shared utilities: bit manipulation and RNG helpers."""

from repro.utils.bits import count_bit_errors, pack_bits, unpack_bits
from repro.utils.rng import make_rng

__all__ = [
    "count_bit_errors",
    "pack_bits",
    "unpack_bits",
    "make_rng",
]
