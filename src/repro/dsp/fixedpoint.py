"""Fixed-point (Q-format) arithmetic model.

The paper's datapaths carry 16-bit I/Q samples and use 18-bit hardware
multipliers.  This module models those word lengths: a
:class:`FixedPointFormat` describes a signed two's-complement format with a
given total word length and number of fractional bits.  There is one
quantiser: round half away from zero, then saturate.

The quantised values are represented as ordinary floats/complexes whose
values are exactly representable in the format; this keeps the rest of the
code NumPy-friendly while remaining bit-faithful (every quantised value is an
integer multiple of the format's resolution, clipped to the representable
range).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError, integer_at_least

ArrayLike = Union[float, complex, np.ndarray]

#: The one quantiser, as :meth:`FixedPointFormat.to_dict` names it: round
#: half away from zero, then saturate.
_QUANTISER = {"rounding": "round", "overflow": "saturate"}


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

    Both are Python or numpy integers, stored as ``int``; anything else
    raises :class:`~repro.exceptions.ConfigurationError`.

    :meth:`quantize` rounds half away from zero (the common DSP behaviour)
    and saturates to the representable range (what well-designed datapaths
    do).
    """

    word_length: int
    frac_bits: int

    def __post_init__(self) -> None:
        # Integers only, stored as ``int``: an equal value of another type
        # would key another sweep point (``to_dict`` is hashed).
        object.__setattr__(
            self, "word_length", integer_at_least("word_length", self.word_length, 2)
        )
        object.__setattr__(self, "frac_bits", integer_at_least("frac_bits", self.frac_bits, 0))
        if self.frac_bits > self.word_length - 1:
            raise ConfigurationError("frac_bits cannot exceed word_length - 1")

    @property
    def resolution(self) -> float:
        """Smallest representable step (one LSB)."""
        return 2.0 ** (-self.frac_bits)

    @property
    def integer_range(self) -> tuple[int, int]:
        """Representable range expressed in raw integer (LSB) units."""
        return -(2 ** (self.word_length - 1)), 2 ** (self.word_length - 1) - 1

    def quantize(self, values: ArrayLike) -> np.ndarray:
        """Quantise real values to this format.

        Complex inputs are rejected here; use :meth:`quantize_complex` so the
        intent is explicit.
        """
        arr = np.asarray(values, dtype=np.float64)
        if np.iscomplexobj(values):
            raise TypeError("use quantize_complex for complex inputs")
        scaled = arr / self.resolution
        ints = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
        lo, hi = self.integer_range
        return np.clip(ints, lo, hi) * self.resolution

    def quantize_complex(self, values: ArrayLike) -> np.ndarray:
        """Quantise the real and imaginary parts independently."""
        arr = np.asarray(values, dtype=np.complex128)
        return self.quantize(arr.real) + 1j * self.quantize(arr.imag)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (used by the sweep-spec cache hash).

        It still names the quantiser (:data:`_QUANTISER`): the seed payload
        and store key of every fixed-point sweep point hash these entries,
        so they stay until the next ``ENGINE_VERSION`` bump.
        """
        return {
            "word_length": self.word_length,
            "frac_bits": self.frac_bits,
            **_QUANTISER,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FixedPointFormat":
        """Rebuild a format from :meth:`to_dict` output.

        The :data:`_QUANTISER` entries may be left out; any other value for
        them raises :class:`~repro.exceptions.ConfigurationError`.
        """
        fields = dict(payload)
        for name, value in _QUANTISER.items():
            if fields.pop(name, value) != value:
                raise ConfigurationError(f"{name} must be {value!r}, got {payload[name]!r}")
        return cls(**fields)

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
