"""Fixture: transform arithmetic bypassing repro.dsp.fft."""

import numpy as np
from numpy.fft import ifft as np_ifft


def spectrum(taps, fft_size):
    padded = np.zeros(fft_size, dtype=np.complex128)
    padded[: len(taps)] = taps
    return np.fft.fft(padded)


def waveform(symbols):
    return np_ifft(symbols)
