"""Shared utilities: bit manipulation and RNG helpers."""

from repro.utils.bits import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    count_bit_errors,
    int_to_bits,
    pack_bits,
    random_bits,
    unpack_bits,
)
from repro.utils.rng import make_rng

__all__ = [
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "count_bit_errors",
    "int_to_bits",
    "pack_bits",
    "random_bits",
    "unpack_bits",
    "make_rng",
]
