"""The name of the simulator's one transform arithmetic.

Every FFT and IFFT runs in complex128 through the cached
:class:`~repro.dsp.fft.FftPlan` tables of :mod:`repro.dsp.fft`; word-length
studies go through the fixed-point formats of ``ImpairmentSpec``.  This
module holds only that arithmetic's name, which the sweep store keys carry
as a constant so that stores written by earlier versions still resume.
"""

from __future__ import annotations

from types import SimpleNamespace

#: Arithmetic name carried by ``SweepPoint.content_key`` payloads.
DSP_ARITHMETIC = "numpy"


def default_backend() -> SimpleNamespace:
    """The transform arithmetic, as an object whose ``name`` is recorded."""
    return SimpleNamespace(name=DSP_ARITHMETIC)
