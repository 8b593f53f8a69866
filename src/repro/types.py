"""Shared type vocabulary for the datapath's public APIs.

The engine moves a small set of array species between stages — complex
baseband samples, float soft bits, uint8 hard bits, integer symbol
addresses — and a closed string enum of detector names.  Spelling them
once here keeps the annotations on public APIs short, searchable, and
consistent, and gives static type checkers and IDEs a precise dtype to
propagate.

These are *aliases*, not wrappers: at runtime every one of them is just
``np.ndarray`` (or ``str``), so importing this module costs nothing and
annotated code keeps working on plain arrays.
"""

from __future__ import annotations

from typing import Literal, Union

import numpy as np
import numpy.typing as npt

__all__ = [
    "BitArray",
    "ComplexArray",
    "DetectorName",
    "FloatArray",
    "IntArray",
    "ScalarOrArray",
]

#: Complex baseband samples / frequency-domain symbols (double precision).
ComplexArray = npt.NDArray[np.complex128]

#: Real-valued arrays: soft bits, LLRs, power/phase traces.
FloatArray = npt.NDArray[np.float64]

#: Hard bits and bytes (0/1 values in ``uint8``).
BitArray = npt.NDArray[np.uint8]

#: Integer arrays: symbol addresses, subcarrier indices, permutations.
IntArray = npt.NDArray[np.integer]

#: Scalar-or-array duck type for elementwise helpers (dB conversions).
ScalarOrArray = Union[float, npt.NDArray[np.floating]]

#: The MIMO detectors the receiver configuration accepts.
DetectorName = Literal["zf", "mmse"]
