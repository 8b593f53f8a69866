"""DSP primitives: fixed-point arithmetic, CORDIC, FFT/IFFT and correlators.

These are the arithmetic substrates that the paper's FPGA datapaths are built
from.  Each primitive exists in a floating-point "reference" form and, where
the hardware word length matters, a quantised form driven by
:mod:`repro.dsp.fixedpoint`.
"""

from repro.dsp.cordic import (
    Cordic,
    CordicResult,
    cordic_gain,
    cordic_magnitude,
    cordic_rotate,
    cordic_vector,
)
from repro.dsp.correlation import SlidingWindowCorrelator, cross_correlate
from repro.dsp.fft import (
    Fft,
    FftPlan,
    bit_reverse_indices,
    fft,
    fixed_point_fft,
    get_plan,
    ifft,
    ofdm_modulate,
    ofdm_demodulate,
)
from repro.dsp.fixedpoint import FixedPointFormat, quantize, quantize_complex

__all__ = [
    "Cordic",
    "CordicResult",
    "cordic_gain",
    "cordic_magnitude",
    "cordic_rotate",
    "cordic_vector",
    "SlidingWindowCorrelator",
    "cross_correlate",
    "Fft",
    "FftPlan",
    "bit_reverse_indices",
    "fft",
    "get_plan",
    "ifft",
    "fixed_point_fft",
    "ofdm_modulate",
    "ofdm_demodulate",
    "FixedPointFormat",
    "quantize",
    "quantize_complex",
]
