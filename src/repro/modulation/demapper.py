"""Hard and soft symbol demapper (batched, per axis).

The paper's symbol demapper is a decoder-multiplexer structure that can be
configured for hard or soft demapping; soft outputs are carried through the
de-interleaver to the Viterbi decoder.  The software model provides:

* hard demapping — nearest constellation point, returning the bit group;
* soft demapping — max-log-MAP per-bit log-likelihood ratios, with the
  convention that a *positive* LLR means the coded bit is more likely ``0``
  (the convention :class:`repro.coding.viterbi.ViterbiDecoder` expects).

Like the hardware, it slices I and Q separately.  Every constellation is
a separable grid — address ``(I label << kq) | Q label``, point
``complex(I level, Q level)`` — and a point's squared distance
``np.abs(y - p) ** 2`` is ``|complex(y_I - l_I, y_Q - l_Q)|²``, so the
nearest point and each bit's max-log minimum sit at the per-axis nearest
levels (Tosato & Bisaglia, ICC 2002).  Hard demapping compares each
coordinate against its axis's midpoints; soft demapping takes each axis
bit's minimum ``|y - level|`` over its level subset and squares the
complex magnitude of (that minimum, the other axis's overall minimum).

Every output is byte-identical to measuring each symbol against all
``2^k`` points.  Complex ``abs`` is sign-symmetric but not monotone to the
last ulp, so a *rounding certificate* guards the per-axis path: a symbol
takes it only when, on each axis, any two distinct squared level
distances that decide its output differ by more than
:data:`TIE_MARGIN` times a bound on its squared distances — six orders of
magnitude above complex ``abs``'s rounding error.  The rest (near ties
and huge symbols) go through the full distance table, which is kept only
as this fallback.  A NaN or infinite symbol, which no certificate passes,
raises :class:`~repro.exceptions.DecodingError` instead of being sliced.

All entry points accept symbol arrays of any shape and demap every symbol in
one call, vectorised over passes of at most :data:`DISTANCE_BUDGET`
distance values — the receiver hands a whole lockstep round's
``(n_items, n_streams, n_symbols, n_data_subcarriers)`` block to a single
call, which is one of the hot paths the :mod:`repro.sim` sweep engine
leans on.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

import numpy.typing as npt

from repro.exceptions import ConfigurationError, DecodingError
from repro.types import BitArray, FloatArray, IntArray
from repro.modulation.constellations import Constellation, Modulation, get_constellation

#: Most values one array of a demap pass holds: symbols times level
#: distances on the soft per-axis path, symbols on the hard one, and
#: symbols times points in the table fallback.
DISTANCE_BUDGET = 1 << 15

#: Relative gap, against a bound on a symbol's squared distances, that two
#: distinct squared level distances must exceed for the per-axis path.
#: Complex ``abs`` squared is within ~6.2e-16 relative of exact.
TIE_MARGIN = 2.0**-30


class _Axis:
    """One axis of the grid: sorted levels, their labels and bit subsets.

    The levels are equally spaced.  :meth:`nearest` places a coordinate on
    the grid of midpoints ``0 .. n - 2`` between adjacent levels,
    :meth:`minima` on the grid of half-grid points ``(l_a + l_b) / 2``,
    ``0 .. 2n - 4``.  Two distinct squared level distances differ by at
    least ``2 * step * h`` for ``h`` the coordinate's distance to the
    nearest such point; ``margin`` is that gap over :data:`TIE_MARGIN`.
    """

    def __init__(self, levels_by_label: Sequence[float], n_bits: int) -> None:
        order = sorted(range(len(levels_by_label)), key=levels_by_label.__getitem__)
        levels = [float(levels_by_label[label]) for label in order]
        self.size = len(levels)
        self.n_bits = n_bits
        #: Gray label of each sorted level.
        self.labels = np.array(order, dtype=np.intp)
        self.first = levels[0]
        #: Largest level magnitude, for the squared-distance bound.
        self.reach = max(abs(level) for level in levels)
        # Each bit's zero subset then its one subset, MSB first, as one
        # column: ``y - subset_levels`` holds every subset's distance rows.
        self.subset_levels = np.array(
            [
                level
                for bit in range(n_bits - 1, -1, -1)
                for value in (0, 1)
                for label, level in zip(order, levels)
                if (label >> bit) & 1 == value
            ]
        )[:, None]
        if self.size == 1:
            return
        step = min(high - low for low, high in zip(levels, levels[1:]))
        self.first_midpoint = (levels[0] + levels[1]) / 2
        self.inv_step = 1.0 / step
        self.inv_half_step = 2.0 / step
        self.hard_scale = 2.0 * step * step / TIE_MARGIN
        self.soft_scale = step * step / TIE_MARGIN

    def nearest(self, y: FloatArray) -> Tuple[FloatArray, FloatArray]:
        """Nearest level index (as float) and the hard certificate margin."""
        if self.size == 1:
            return np.zeros(y.shape), np.full(y.shape, np.inf)
        position = y - self.first_midpoint
        position *= self.inv_step
        # fmax/fmin send NaN to a finite midpoint, so every index casts.
        midpoint = np.rint(np.fmin(np.fmax(position, 0.0), self.size - 2))
        index = midpoint + (position > midpoint)
        position -= midpoint
        margin = np.abs(position, out=position)
        margin *= self.hard_scale
        return index, margin

    def minima(self, y: FloatArray) -> Tuple[FloatArray, FloatArray, FloatArray]:
        """Each subset's minimum ``|y - level|``, the overall minimum and
        the soft certificate margin."""
        if self.size == 1:
            return np.empty((0, y.size)), np.abs(y - self.first), np.full(y.shape, np.inf)
        distances = y - self.subset_levels
        np.abs(distances, out=distances)
        subsets = distances.reshape(2 * self.n_bits, -1, y.size).min(axis=1)
        overall = np.minimum(subsets[0], subsets[1])
        position = y - self.first
        position *= self.inv_half_step
        position -= 1.0
        point = np.rint(np.fmin(np.fmax(position, 0.0), 2 * self.size - 4))
        position -= point
        margin = np.abs(position, out=position)
        margin *= self.soft_scale
        return subsets, overall, margin


class SymbolDemapper:
    """Demap received complex symbols to hard bits or soft LLRs."""

    def __init__(self, modulation: Modulation | str) -> None:
        self.constellation: Constellation = get_constellation(modulation)
        k = self.constellation.bits_per_symbol
        q_bits = k // 2
        points = self.constellation.points
        self._i = _Axis(
            [points[label << q_bits].real for label in range(1 << (k - q_bits))], k - q_bits
        )
        self._q = _Axis([points[label].imag for label in range(1 << q_bits)], q_bits)
        # Address of the point at sorted level indices (i, q), flattened.
        self._addresses = (
            (self._i.labels[:, None] << q_bits) | self._q.labels[None, :]
        ).ravel()
        self._bit_table = self.constellation.bit_table()
        # The table fallback's per-bit partitions: the indices of the
        # points whose label has a 0 (resp. 1) in each bit position.
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
    @staticmethod
    def _passes(n_symbols: int, width: int) -> Iterator[slice]:
        """Yield row slices of at most :data:`DISTANCE_BUDGET` // ``width``.

        A stacked receive round demaps many bursts in one call; bounding
        each pass keeps its memory at one burst's.  Every row comes out
        exactly as in one pass.
        """
        step = max(1, DISTANCE_BUDGET // width)
        for start in range(0, n_symbols, step):
            yield slice(start, start + step)

    def _uncertified(
        self, received: np.ndarray, rows: slice, margin_i: FloatArray, margin_q: FloatArray
    ) -> IntArray:
        """Indices of the symbols of pass ``rows`` whose per-axis result a
        rounding could move, for the table fallback.

        Both margins must exceed a bound on every squared distance from
        the symbol to a point: the squared distance to the farthest
        corner, so it overflows where the table's largest entry does.
        NaN and infinite symbols never pass, and one among them raises
        :class:`~repro.exceptions.DecodingError`.
        """
        reach_i = np.abs(received.real[rows]) + self._i.reach
        reach_q = np.abs(received.imag[rows]) + self._q.reach
        bound = np.square(reach_i, out=reach_i)
        bound += np.square(reach_q, out=reach_q)
        failed = np.flatnonzero(~(np.fmin(margin_i, margin_q) > bound)) + rows.start
        if not np.isfinite(received[failed]).all():
            raise DecodingError("symbols to demap must be finite")
        return failed

    def _table_chunks(self, received: np.ndarray):
        """Yield ``(rows, squared distances of those symbols to every point)``."""
        points = self.constellation.points[None, :]
        for rows in self._passes(received.size, points.size):
            yield rows, np.abs(received[rows, None] - points) ** 2

    def hard_decisions(self, symbols: npt.ArrayLike) -> BitArray:
        """Nearest-point hard demapping, returning the coded bit stream.

        ``symbols`` may have any shape; every symbol is demapped in one
        vectorised pass and the bits are returned in C-order (for the
        receiver's ``(n_symbols, n_subcarriers)`` block that is exactly the
        per-symbol transmission order).
        """
        return self._bit_table[self.hard_addresses(symbols)].ravel()

    def hard_addresses(self, symbols: npt.ArrayLike) -> IntArray:
        """Nearest-point hard demapping, returning LUT addresses."""
        received = np.asarray(symbols, dtype=np.complex128).ravel()
        addresses = np.empty(received.size, dtype=np.intp)
        for rows in self._passes(received.size, 1):
            y_i = received.real[rows]
            y_q = received.imag[rows]
            index_i, margin_i = self._i.nearest(y_i)
            index_q, margin_q = self._q.nearest(y_q)
            index_i *= self._q.size
            index_i += index_q
            failed = self._uncertified(received, rows, margin_i, margin_q)
            addresses[rows] = self._addresses[index_i.astype(np.intp)]
            if failed.size:
                addresses[failed] = self._table_addresses(received[failed])
        return addresses

    def _table_addresses(self, received: np.ndarray) -> IntArray:
        """Nearest point by the full distance table (first index on ties)."""
        addresses = np.empty(received.size, dtype=np.intp)
        for rows, distances in self._table_chunks(received):
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
            Every variance must be finite and positive.
        """
        variance = np.asarray(noise_variance, dtype=np.float64)
        if not np.all((variance > 0) & (variance < np.inf)):
            raise ConfigurationError("noise_variance must be finite and positive")
        if variance.ndim:
            variance = np.broadcast_to(variance, np.shape(symbols)).reshape(-1)
        received = np.asarray(symbols, dtype=np.complex128).ravel()
        k = self.bits_per_symbol
        i_rows = 2 * self._i.n_bits
        # A pass holds every subset's level distances and 2k nearest points.
        width = self._i.subset_levels.size + self._q.subset_levels.size + 2 * k
        llrs = np.empty((received.size, k), dtype=np.float64)
        for rows in self._passes(received.size, width):
            y_i = received.real[rows]
            y_q = received.imag[rows]
            scale = variance[rows] if variance.ndim else variance
            subsets_i, overall_i, margin_i = self._i.minima(y_i)
            subsets_q, overall_q, margin_q = self._q.minima(y_q)
            failed = self._uncertified(received, rows, margin_i, margin_q)
            # Rows 2b and 2b + 1: bit b's nearest point with a 0 (a 1) there.
            nearest = np.empty((2 * k, y_i.size), dtype=np.complex128)
            nearest.real[:i_rows] = subsets_i
            nearest.imag[:i_rows] = overall_q
            nearest.real[i_rows:] = overall_i
            nearest.imag[i_rows:] = subsets_q
            distances = np.square(np.abs(nearest))
            llrs[rows] = ((distances[1::2] - distances[0::2]) / scale).T
            if failed.size:
                llrs[failed] = self._table_llrs(
                    received[failed], variance[failed] if variance.ndim else variance
                )
        return llrs.ravel()

    def _table_llrs(self, received: np.ndarray, variance: np.ndarray) -> FloatArray:
        """Max-log-MAP LLRs ``(n, k)`` by the full distance table."""
        k = self.bits_per_symbol
        llrs = np.empty((received.size, k), dtype=np.float64)
        for rows, distances in self._table_chunks(received):
            scale = variance[rows] if variance.ndim else variance
            for bit in range(k):
                d_zero = distances[:, self._points_bit_zero[bit]].min(axis=1)
                d_one = distances[:, self._points_bit_one[bit]].min(axis=1)
                llrs[rows, bit] = (d_one - d_zero) / scale
        return llrs

    # ------------------------------------------------------------------
    def demap(
        self,
        symbols: np.ndarray,
        soft: bool = False,
        noise_variance: float | np.ndarray = 1.0,
    ) -> np.ndarray:
        """Demap symbols, selecting hard bits or soft LLRs.

        This mirrors the run-time configurability of the hardware demapper
        ("can be set up to perform hard or soft symbol demapping").  A NaN
        or infinite symbol raises :class:`~repro.exceptions.DecodingError`
        in either mode.
        """
        if soft:
            return self.soft_decisions(symbols, noise_variance=noise_variance)
        return self.hard_decisions(symbols)
