#!/usr/bin/env python
"""BER waterfall: one batched sweep over every modulation the paper supports.

Reproduces: the implicit link-level behaviour behind the paper's modulation
options (Section III's BPSK-64QAM symbol mapper and Table 1/3 datapaths) and
the 1 Gbps headline operating point of the title/abstract — denser
constellations carry more bits per OFDM symbol (64-QAM with rate-3/4 coding
is what reaches 1 Gbps) but need more SNR to close the link over a fading
channel.

The whole modulation x SNR grid is described by one
:class:`repro.sim.SweepSpec` and executed by :class:`repro.sim.SweepRunner`,
which early-stops error-rich points and serves repeated runs from the JSON
result cache — rerun the script to see the cache hit.

Run from a clean checkout with::

    PYTHONPATH=src python examples/ber_waterfall.py [--bursts N] [--bits N]

(The PYTHONPATH prefix is optional; the script falls back to the in-tree
``src`` directory when ``repro`` is not installed.)
"""

from __future__ import annotations

import argparse
import _bootstrap  # noqa: F401 -- makes the in-tree repro package importable

from repro import TransceiverConfig
from repro.sim import SweepRunner, SweepSpec

MODULATIONS = ("bpsk", "qpsk", "16qam", "64qam")
SNR_POINTS_DB = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0)


def run_sweep(n_bursts: int, n_info_bits: int) -> None:
    spec = SweepSpec(
        snr_db=SNR_POINTS_DB,
        modulations=MODULATIONS,
        channels=("flat_rayleigh",),
        n_info_bits=n_info_bits,
        n_bursts=n_bursts,
        target_errors=200,
        fresh_fading_per_burst=False,
        base_seed=11,
    )
    result = SweepRunner(spec, n_workers=1).run()
    source = "cache" if result.from_cache else "simulation"
    print(
        f"BER vs SNR over a flat Rayleigh 4x4 channel (rate-1/2 coding) "
        f"[{source}, {result.n_bursts_simulated} bursts simulated, "
        f"{result.elapsed_s:.1f} s]"
    )

    curves = {m: result.ber_curve(modulation=m) for m in MODULATIONS}
    header = "SNR (dB) | " + " | ".join(f"{m:>8s}" for m in MODULATIONS)
    print(header)
    print("-" * len(header))
    for snr_db in SNR_POINTS_DB:
        row = [f"{snr_db:8.1f}"]
        row.extend(f"{curves[m][snr_db]:8.4f}" for m in MODULATIONS)
        print(" | ".join(row))

    print("\nPeak information rate of each modulation (rate 3/4, 100 MHz clock):")
    for modulation in MODULATIONS:
        config = TransceiverConfig(modulation=modulation, code_rate="3/4")
        rate = config.info_bit_rate_bps
        marker = "  <-- 1 Gbps headline" if rate >= 1e9 else ""
        print(f"  {modulation:>6s}: {rate / 1e9:5.2f} Gbit/s{marker}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bursts", type=int, default=2, help="bursts per SNR point")
    parser.add_argument("--bits", type=int, default=300, help="information bits per stream")
    args = parser.parse_args()
    run_sweep(args.bursts, args.bits)


if __name__ == "__main__":
    main()
