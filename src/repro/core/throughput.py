"""The 1 Gbps claim: information bit rates at the paper's 100 MHz clock.

:func:`throughput_report` tabulates
:attr:`~repro.core.config.TransceiverConfig.info_bit_rate_bps` over every
modulation crossed with every code rate at the paper's 4x4 / 64-point
operating point, and marks which of them reach 1 Gbps.
"""

from __future__ import annotations

from typing import Dict, List

from repro.coding.convolutional import CodeRate
from repro.core.config import TransceiverConfig
from repro.modulation.constellations import Modulation


def throughput_report() -> List[Dict[str, object]]:
    """Information rate of the 12 modulation x code-rate configurations."""
    rows: List[Dict[str, object]] = []
    for modulation in Modulation:
        for rate in CodeRate:
            config = TransceiverConfig(modulation=modulation, code_rate=rate)
            bps = config.info_bit_rate_bps
            rows.append(
                {
                    "modulation": config.modulation.value,
                    "code_rate": config.code_rate.value,
                    "info_rate_gbps": bps / 1e9,
                    "meets_1gbps": bps >= 1e9,
                }
            )
    return rows
