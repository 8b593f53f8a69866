"""Shared type vocabulary for the datapath's public APIs.

The engine moves a small set of array species between stages — complex
baseband samples, float soft bits, uint8 hard bits, integer symbol
addresses — and a handful of closed string enums (detector and DSP
backend names).  Spelling them once here keeps the annotations on public
APIs short, searchable, and consistent, and gives static type checkers
and IDEs a precise dtype to propagate.

These are *aliases*, not wrappers: at runtime every one of them is just
``np.ndarray`` (or ``str``), so importing this module costs nothing and
annotated code keeps working on plain arrays.
"""

from __future__ import annotations

from typing import Literal, Union

import numpy as np
import numpy.typing as npt

__all__ = [
    "BackendName",
    "BitArray",
    "ComplexArray",
    "Complex64Array",
    "DetectorName",
    "FloatArray",
    "IntArray",
    "ScalarOrArray",
]

#: Complex baseband samples / frequency-domain symbols (canonical
#: double precision; the ``"numpy32"`` backend narrows internally).
ComplexArray = npt.NDArray[np.complex128]

#: Single-precision complex samples, as produced by the ``"numpy32"``
#: :class:`repro.dsp.backend.DspBackend`.
Complex64Array = npt.NDArray[np.complex64]

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

#: The registered DSP backends (see :mod:`repro.dsp.backend`).
BackendName = Literal["numpy", "numpy32"]
