"""DSP primitives: fixed-point arithmetic, CORDIC and FFT/IFFT.

These are the arithmetic substrates that the paper's FPGA datapaths are built
from.  Each primitive exists in a floating-point "reference" form and, where
the hardware word length matters, a quantised form driven by
:mod:`repro.dsp.fixedpoint`.  The time synchroniser's sliding-window
correlator lives with its one user, :mod:`repro.sync.time_sync`.
"""

from repro.dsp.cordic import Cordic, CordicResult, cordic_gain
from repro.dsp.fft import (
    FftPlan,
    bit_reverse_indices,
    fft,
    get_plan,
    ifft,
)
from repro.dsp.fixedpoint import FixedPointFormat

__all__ = [
    "Cordic",
    "CordicResult",
    "cordic_gain",
    "FftPlan",
    "bit_reverse_indices",
    "fft",
    "get_plan",
    "ifft",
    "FixedPointFormat",
]
