"""Channel-matrix memory read scheduler.

The channel matrices of all subcarriers live in an array of 16 memories
(H00..H33), one per matrix position, each ``fft_size`` entries deep.  A
scheduler multiplexes these memories into the QRD systolic array: it first
reads 20 addresses (one CORDIC latency) from H00 into column 0; on the next
cycle it starts H01 into column 0 while H10 enters column 1; and so on.
Once address 20 of H33 has entered column 0, the column-0 pointer wraps back
to H00 for subcarrier 21 and an ``init`` pulse resets the feedback state of
the cells so successive subcarriers do not mix (the pulse then propagates
down the array with the data).

:class:`ChannelMatrixScheduler` reproduces that addressing sequence so the
dataflow of Fig. 8 and its latency bookkeeping can be tested without running
actual matrix data through the array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.dsp.cordic import CORDIC_PIPELINE_LATENCY
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ScheduledRead:
    """One memory read issued to the QRD array.

    Attributes
    ----------
    cycle:
        Clock cycle at which the read is issued.
    column:
        QRD array input column the word is steered to.
    memory_row, memory_col:
        Which H(i, j) memory is read.
    subcarrier:
        Memory address, i.e. the subcarrier whose matrix entry this is.
    init:
        True when this read carries the init pulse that resets the cell
        feedback state (issued when a column wraps back to H00 and a new
        subcarrier's matrix begins).
    """

    cycle: int
    column: int
    memory_row: int
    memory_col: int
    subcarrier: int
    init: bool


class ChannelMatrixScheduler:
    """Generate the read schedule that feeds the QRD systolic array.

    Parameters
    ----------
    n_antennas:
        MIMO order (4 in the paper: 16 channel-matrix memories).
    n_subcarriers:
        Number of occupied subcarriers whose matrices must be decomposed.
    burst_length:
        Consecutive addresses read from one memory before the scheduler
        advances to the next matrix entry — equal to the CORDIC latency (20)
        so the array's pipeline stays full.
    """

    def __init__(
        self,
        n_antennas: int = 4,
        n_subcarriers: int = 64,
        burst_length: int = CORDIC_PIPELINE_LATENCY,
    ) -> None:
        if n_antennas <= 0 or n_subcarriers <= 0 or burst_length <= 0:
            raise ConfigurationError("all scheduler parameters must be positive")
        self.n_antennas = n_antennas
        self.n_subcarriers = n_subcarriers
        self.burst_length = burst_length

    # ------------------------------------------------------------------
    @property
    def n_memories(self) -> int:
        """Number of channel-matrix memories (16 for a 4x4 system)."""
        return self.n_antennas * self.n_antennas

    @property
    def reads_per_column(self) -> int:
        """Memory reads a single column issues per full pass of subcarriers."""
        return self.n_memories * self.burst_length * self._passes_per_column()

    def _passes_per_column(self) -> int:
        return -(-self.n_subcarriers // self.burst_length)

    @property
    def column_start_offset(self) -> int:
        """Cycles between successive columns starting their schedules (1)."""
        return 1

    def total_schedule_cycles(self) -> int:
        """Cycles needed to stream every subcarrier's matrix into the array."""
        single_column = self.n_memories * self.burst_length * self._passes_per_column()
        return single_column + (self.n_antennas - 1) * self.column_start_offset

    # ------------------------------------------------------------------
    def column_schedule(self, column: int) -> Iterator[ScheduledRead]:
        """Read sequence of one input column.

        Column ``c`` starts ``c`` cycles after column 0 and walks the
        memories starting from row ``c`` of the matrix (column 0 reads
        H00, H01, ...; column 1 reads H10, H11, ...), ``burst_length``
        subcarriers at a time.
        """
        if not 0 <= column < self.n_antennas:
            raise ConfigurationError(f"column {column} out of range")
        cycle = column * self.column_start_offset
        for pass_index in range(self._passes_per_column()):
            base_subcarrier = pass_index * self.burst_length
            for entry in range(self.n_memories):
                flat = (column * self.n_antennas + entry) % self.n_memories
                memory_row, memory_col = divmod(flat, self.n_antennas)
                for offset in range(self.burst_length):
                    subcarrier = base_subcarrier + offset
                    if subcarrier >= self.n_subcarriers:
                        cycle += 1
                        continue
                    yield ScheduledRead(
                        cycle=cycle,
                        column=column,
                        memory_row=memory_row,
                        memory_col=memory_col,
                        subcarrier=subcarrier,
                        init=(entry == 0 and offset == 0),
                    )
                    cycle += 1

    def full_schedule(self) -> List[ScheduledRead]:
        """The complete read schedule of all columns, ordered by cycle."""
        reads: List[ScheduledRead] = []
        for column in range(self.n_antennas):
            reads.extend(self.column_schedule(column))
        reads.sort(key=lambda r: (r.cycle, r.column))
        return reads

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants of the schedule.

        * No column issues two reads in the same cycle.
        * Every (subcarrier, matrix entry) pair is read exactly once per
          column pass structure.
        * Init pulses occur exactly when a column wraps back to its first
          memory.
        """
        for column in range(self.n_antennas):
            seen_cycles = set()
            seen_words = set()
            for read in self.column_schedule(column):
                if read.cycle in seen_cycles:
                    raise AssertionError("column issued two reads in one cycle")
                seen_cycles.add(read.cycle)
                key = (read.memory_row, read.memory_col, read.subcarrier)
                if key in seen_words:
                    raise AssertionError("duplicate memory word in schedule")
                seen_words.add(key)
            expected_words = self.n_memories * self.n_subcarriers
            if len(seen_words) != expected_words:
                raise AssertionError(
                    f"column {column} read {len(seen_words)} words, "
                    f"expected {expected_words}"
                )
