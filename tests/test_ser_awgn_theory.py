"""Uncoded symbol error rate over AWGN against the exact closed forms.

An independent-truth oracle for the mapper, the noise source and the hard
demapper together: random bits are mapped, complex AWGN of total variance
``N0 = 1 / (Es/N0)`` is added to the unit-energy symbols, and
:meth:`SymbolDemapper.hard_addresses` slices them.  Nearest-point slicing
is the ML decision, so the symbol error rate is exactly

* BPSK: ``Q(sqrt(2 Es/N0))``;
* square M-QAM (QPSK is M = 4):
  ``1 - (1 - 2 (1 - 1/sqrt(M)) Q(sqrt(3 Es / ((M - 1) N0))))**2``.

Over AWGN every symbol is an independent trial, so the error count is
binomial and an exact two-sided binomial test is honest.  The family of
12 cases runs at a family-wise false-alarm budget of 1e-3 (Bonferroni:
each case must reach a p-value of at least 1e-3 / 12), and every case
expects at least 50 symbol errors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import binomtest

from repro.channel.awgn import awgn_noise
from repro.modulation.demapper import SymbolDemapper
from repro.modulation.mapper import SymbolMapper
from repro.utils.bits import pack_bits
from repro.utils.units import db_to_linear

#: Family-wise false-alarm budget, split evenly over the cases.
FAMILY_ALPHA = 1e-3

#: Symbols per case.
N_SYMBOLS = 200_000

#: (modulation, constellation size M, Es/N0 values in dB).
CASES = [
    ("bpsk", 2, (0.0, 4.0, 7.0)),
    ("qpsk", 4, (4.0, 7.0, 10.0)),
    ("16qam", 16, (10.0, 13.0, 16.0)),
    ("64qam", 64, (16.0, 19.0, 22.0)),
]

GRID = [
    (modulation, size, es_n0_db)
    for modulation, size, snrs in CASES
    for es_n0_db in snrs
]


def q_function(x: float) -> float:
    """Gaussian tail probability ``P(N(0, 1) > x)``."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def theoretical_ser(size: int, es_n0: float) -> float:
    """Exact ML symbol error rate of BPSK or square M-QAM over AWGN."""
    if size == 2:
        return q_function(math.sqrt(2.0 * es_n0))
    per_rail = 2.0 * (1.0 - 1.0 / math.sqrt(size)) * q_function(
        math.sqrt(3.0 * es_n0 / (size - 1))
    )
    return 1.0 - (1.0 - per_rail) ** 2


def test_closed_forms_at_known_points():
    # BPSK at Es/N0 = 0 dB is Q(sqrt(2)); QPSK is 2Q - Q^2 at sqrt(Es/N0).
    assert theoretical_ser(2, 1.0) == pytest.approx(0.0786496, rel=1e-5)
    q = q_function(1.0)
    assert theoretical_ser(4, 1.0) == pytest.approx(2 * q - q * q, rel=1e-12)


@pytest.mark.parametrize(
    "modulation, size, es_n0_db",
    GRID,
    ids=[f"{m}-{snr:g}dB" for m, _, snr in GRID],
)
def test_uncoded_ser_matches_closed_form(modulation, size, es_n0_db):
    seed = GRID.index((modulation, size, es_n0_db))
    rng = np.random.default_rng(seed)
    mapper = SymbolMapper(modulation)
    bits = rng.integers(0, 2, size=N_SYMBOLS * mapper.bits_per_symbol, dtype=np.uint8)
    symbols = mapper.map_bits(bits)
    es_n0 = db_to_linear(es_n0_db)
    received = symbols + awgn_noise(symbols.shape, 1.0 / es_n0, rng=rng)

    sent = pack_bits(bits, mapper.bits_per_symbol)
    errors = int(np.count_nonzero(SymbolDemapper(modulation).hard_addresses(received) != sent))

    expected = theoretical_ser(size, es_n0)
    assert expected * N_SYMBOLS >= 50
    p_value = binomtest(errors, N_SYMBOLS, expected).pvalue
    assert p_value >= FAMILY_ALPHA / len(GRID), (errors, expected * N_SYMBOLS)
