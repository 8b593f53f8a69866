"""The paper's 100 MHz clock.

The paper's headline claim is a 1 Gbps wireless baseband built from a 4x4
MIMO-OFDM datapath clocked at 100 MHz.  :data:`PAPER_CLOCK_HZ` is that
clock: every :class:`~repro.core.config.TransceiverConfig` runs at it, and
:func:`repro.core.throughput.throughput_for_config` derives its bit rates
from it.
"""

from __future__ import annotations

#: Sample/processing clock frequency reported in the paper (Hz).
PAPER_CLOCK_HZ = 100_000_000.0
