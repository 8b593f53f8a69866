"""Fixture: the same transforms routed through repro.dsp.fft."""

import numpy as np

from repro.dsp.fft import get_plan, ifft


def spectrum(taps, fft_size):
    padded = np.zeros(fft_size, dtype=np.complex128)
    padded[: len(taps)] = taps
    return get_plan(fft_size).forward(padded)


def waveform(symbols):
    return ifft(symbols)
