"""Hard and soft symbol demapper (batched).

The paper's symbol demapper is a decoder-multiplexer structure that can be
configured for hard or soft demapping; soft outputs are carried through the
de-interleaver to the Viterbi decoder.  The software model provides:

* hard demapping — nearest constellation point, returning the bit group;
* soft demapping — max-log-MAP per-bit log-likelihood ratios, with the
  convention that a *positive* LLR means the coded bit is more likely ``0``
  (the convention :class:`repro.coding.viterbi.ViterbiDecoder` expects).

All entry points accept symbol arrays of any shape and demap every symbol in
one call, vectorised over chunks of at most :data:`DISTANCE_BUDGET`
symbol-to-point distances — the receiver hands a whole lockstep round's
``(n_items, n_streams, n_symbols, n_data_subcarriers)`` block to a single
call, which is one of the hot paths the :mod:`repro.sim` sweep engine
leans on.
"""

from __future__ import annotations

import numpy as np

import numpy.typing as npt

from repro.exceptions import ConfigurationError
from repro.types import BitArray, IntArray
from repro.modulation.constellations import Constellation, Modulation, get_constellation
from repro.utils.bits import unpack_bits

#: Most symbol-to-point distances one demap pass holds at once (see
#: :meth:`SymbolDemapper._distance_chunks`).
DISTANCE_BUDGET = 1 << 15


class SymbolDemapper:
    """Demap received complex symbols to hard bits or soft LLRs."""

    def __init__(self, modulation: Modulation | str) -> None:
        self.constellation: Constellation = get_constellation(modulation)
        self._bit_table = self.constellation.bit_table()
        # Per-bit constellation partitions, precomputed once: the indices of
        # the points whose label has a 0 (resp. 1) in each bit position.
        k = self.constellation.bits_per_symbol
        self._points_bit_zero = [
            np.flatnonzero(self._bit_table[:, bit] == 0) for bit in range(k)
        ]
        self._points_bit_one = [
            np.flatnonzero(self._bit_table[:, bit] != 0) for bit in range(k)
        ]

    @property
    def modulation(self) -> Modulation:
        """The modulation scheme in use."""
        return self.constellation.modulation

    @property
    def bits_per_symbol(self) -> int:
        """Coded bits produced per received symbol."""
        return self.constellation.bits_per_symbol

    # ------------------------------------------------------------------
    def _distance_chunks(self, received: np.ndarray):
        """Yield ``(rows, squared distances of those symbols to every point)``.

        A stacked receive round demaps many bursts in one call; holding at
        most :data:`DISTANCE_BUDGET` distances at a time keeps its memory
        at one burst's.  Every row is computed exactly as in one pass.
        """
        points = self.constellation.points[None, :]
        step = max(1, DISTANCE_BUDGET // points.size)
        for start in range(0, received.size, step):
            rows = slice(start, start + step)
            yield rows, np.abs(received[rows, None] - points) ** 2

    def hard_decisions(self, symbols: npt.ArrayLike) -> BitArray:
        """Nearest-point hard demapping, returning the coded bit stream.

        ``symbols`` may have any shape; every symbol is demapped in one
        vectorised pass and the bits are returned in C-order (for the
        receiver's ``(n_symbols, n_subcarriers)`` block that is exactly the
        per-symbol transmission order).
        """
        return unpack_bits(self.hard_addresses(symbols), self.bits_per_symbol)

    def hard_addresses(self, symbols: npt.ArrayLike) -> IntArray:
        """Nearest-point hard demapping, returning LUT addresses."""
        received = np.asarray(symbols, dtype=np.complex128).ravel()
        addresses = np.empty(received.size, dtype=np.intp)
        for rows, distances in self._distance_chunks(received):
            addresses[rows] = np.argmin(distances, axis=1)
        return addresses

    # ------------------------------------------------------------------
    def soft_decisions(
        self, symbols: np.ndarray, noise_variance: float | np.ndarray = 1.0
    ) -> np.ndarray:
        """Max-log-MAP per-bit LLRs (positive means bit more likely 0).

        Parameters
        ----------
        symbols:
            Received (equalised) symbols, any shape; all are demapped in one
            batched pass.
        noise_variance:
            Per-complex-dimension noise variance used to scale the LLRs.  A
            constant scale does not change hard Viterbi decisions but keeps
            the soft metric calibrated when different streams see different
            noise levels.  An array broadcastable to ``symbols`` gives each
            symbol its own variance (one per burst of a stacked block).
        """
        variance = np.asarray(noise_variance, dtype=np.float64)
        if np.any(variance <= 0):
            raise ConfigurationError("noise_variance must be positive")
        if variance.ndim:
            variance = np.broadcast_to(variance, np.shape(symbols)).reshape(-1)
        received = np.asarray(symbols, dtype=np.complex128).ravel()
        k = self.bits_per_symbol
        llrs = np.empty((received.size, k), dtype=np.float64)
        for rows, distances in self._distance_chunks(received):
            scale = variance[rows] if variance.ndim else variance
            for bit in range(k):
                d_zero = distances[:, self._points_bit_zero[bit]].min(axis=1)
                d_one = distances[:, self._points_bit_one[bit]].min(axis=1)
                llrs[rows, bit] = (d_one - d_zero) / scale
        return llrs.ravel()

    # ------------------------------------------------------------------
    def demap(
        self,
        symbols: np.ndarray,
        soft: bool = False,
        noise_variance: float | np.ndarray = 1.0,
    ) -> np.ndarray:
        """Demap symbols, selecting hard bits or soft LLRs.

        This mirrors the run-time configurability of the hardware demapper
        ("can be set up to perform hard or soft symbol demapping").
        """
        if soft:
            return self.soft_decisions(symbols, noise_variance=noise_variance)
        return self.hard_decisions(symbols)
