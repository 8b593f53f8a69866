"""Fixed-point (Q-format) arithmetic model.

The paper's datapaths carry 16-bit I/Q samples and use 18-bit hardware
multipliers.  This module models those word lengths: a
:class:`FixedPointFormat` describes a signed two's-complement format with a
given total word length and number of fractional bits, and provides
quantisation with configurable rounding and overflow behaviour.

The quantised values are represented as ordinary floats/complexes whose
values are exactly representable in the format; this keeps the rest of the
code NumPy-friendly while remaining bit-faithful (every quantised value is an
integer multiple of the format's resolution, clipped to the representable
range).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError

ArrayLike = Union[float, complex, np.ndarray]


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed two's-complement fixed-point format ``Q(word_length, frac_bits)``.

    Parameters
    ----------
    word_length:
        Total number of bits including the sign bit.  The paper uses 16-bit
        sample words and 18-bit multiplier operands.
    frac_bits:
        Number of fractional bits.  ``word_length - frac_bits - 1`` integer
        bits remain for magnitude.
    rounding:
        ``"round"`` (round half away from zero, the common DSP behaviour) or
        ``"truncate"`` (floor towards negative infinity, the cheapest
        hardware option).
    overflow:
        ``"saturate"`` clips to the representable range (what well-designed
        datapaths do); ``"wrap"`` emulates silent two's-complement wrap-around.
    """

    word_length: int
    frac_bits: int
    rounding: str = "round"
    overflow: str = "saturate"

    def __post_init__(self) -> None:
        if self.word_length < 2:
            raise ConfigurationError("word_length must be at least 2 (sign bit + 1)")
        if self.frac_bits < 0:
            raise ConfigurationError("frac_bits must be non-negative")
        if self.frac_bits > self.word_length - 1:
            raise ConfigurationError("frac_bits cannot exceed word_length - 1")
        if self.rounding not in ("round", "truncate"):
            raise ConfigurationError(f"unknown rounding mode: {self.rounding!r}")
        if self.overflow not in ("saturate", "wrap"):
            raise ConfigurationError(f"unknown overflow mode: {self.overflow!r}")

    @property
    def resolution(self) -> float:
        """Smallest representable step (one LSB)."""
        return 2.0 ** (-self.frac_bits)

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return (2 ** (self.word_length - 1) - 1) * self.resolution

    @property
    def min_value(self) -> float:
        """Smallest (most negative) representable value."""
        return -(2 ** (self.word_length - 1)) * self.resolution

    @property
    def integer_range(self) -> tuple[int, int]:
        """Representable range expressed in raw integer (LSB) units."""
        return -(2 ** (self.word_length - 1)), 2 ** (self.word_length - 1) - 1

    def quantize(self, values: ArrayLike) -> np.ndarray:
        """Quantise real values to this format.

        Complex inputs are rejected here; use :meth:`quantize_complex` (or the
        module-level :func:`quantize_complex`) so the intent is explicit.
        """
        arr = np.asarray(values, dtype=np.float64)
        if np.iscomplexobj(values):
            raise TypeError("use quantize_complex for complex inputs")
        scaled = arr / self.resolution
        if self.rounding == "round":
            ints = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
        else:
            ints = np.floor(scaled)
        lo, hi = self.integer_range
        if self.overflow == "saturate":
            ints = np.clip(ints, lo, hi)
        else:
            span = float(hi - lo + 1)
            ints = ((ints - lo) % span) + lo
        return ints * self.resolution

    def quantize_complex(self, values: ArrayLike) -> np.ndarray:
        """Quantise the real and imaginary parts independently."""
        arr = np.asarray(values, dtype=np.complex128)
        return self.quantize(arr.real) + 1j * self.quantize(arr.imag)

    def to_integers(self, values: ArrayLike) -> np.ndarray:
        """Return the raw integer (LSB-unit) representation of real values."""
        quantised = self.quantize(values)
        return np.round(quantised / self.resolution).astype(np.int64)

    def from_integers(self, raw: ArrayLike) -> np.ndarray:
        """Convert raw integer (LSB-unit) words back to real values."""
        ints = np.asarray(raw, dtype=np.int64)
        lo, hi = self.integer_range
        if ints.size and (ints.min() < lo or ints.max() > hi):
            raise ConfigurationError("raw integers outside representable range")
        return ints.astype(np.float64) * self.resolution

    def quantization_noise_power(self) -> float:
        """Theoretical quantisation-noise power (uniform model, LSB²/12)."""
        return self.resolution ** 2 / 12.0

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (used by the sweep-spec cache hash)."""
        return {item.name: getattr(self, item.name) for item in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "FixedPointFormat":
        """Rebuild a format from :meth:`to_dict` output."""
        return cls(**payload)

    @classmethod
    def coerce(
        cls, value: "Union[None, dict, FixedPointFormat]", field_name: str = "format"
    ) -> "Optional[FixedPointFormat]":
        """Normalise a format given as an instance, a ``to_dict`` payload or None.

        The single coercion rule shared by every config/spec field that
        round-trips formats through JSON (``TransceiverConfig``,
        ``repro.sim.ImpairmentSpec``).  Raises
        :class:`~repro.exceptions.ConfigurationError` for anything else,
        naming ``field_name``.
        """
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise ConfigurationError(
            f"{field_name} must be a FixedPointFormat, a dict or None, got {value!r}"
        )


# Formats used throughout the paper's datapath.
SAMPLE_FORMAT_16BIT = FixedPointFormat(word_length=16, frac_bits=14)
"""16-bit I/Q sample format used on the transmitter/receiver interfaces."""

MULTIPLIER_FORMAT_18BIT = FixedPointFormat(word_length=18, frac_bits=16)
"""18-bit operand format matching the FPGA's embedded DSP multipliers."""


def quantize(values: ArrayLike, fmt: FixedPointFormat) -> np.ndarray:
    """Functional form of :meth:`FixedPointFormat.quantize`."""
    return fmt.quantize(values)


def quantize_complex(values: ArrayLike, fmt: FixedPointFormat) -> np.ndarray:
    """Functional form of :meth:`FixedPointFormat.quantize_complex`."""
    return fmt.quantize_complex(values)
