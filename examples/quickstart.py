#!/usr/bin/env python
"""Quickstart: run one 4x4 MIMO-OFDM burst end to end.

Reproduces: the paper's synthesised operating point — the 4x4, 16-QAM,
64-point OFDM, rate-1/2, 100 MHz configuration of Tables 1-4 running the
Fig. 4 transmit and Fig. 5 receive datapaths — on one burst, printing what
every stage recovered.

Run from a clean checkout with::

    PYTHONPATH=src python examples/quickstart.py

(The PYTHONPATH prefix is optional; the script falls back to the in-tree
``src`` directory when ``repro`` is not installed.)
"""

from __future__ import annotations

import numpy as np

import _bootstrap  # noqa: F401 -- makes the in-tree repro package importable

from repro import (
    ImpairmentSpec,
    MimoChannel,
    MimoReceiver,
    MimoTransmitter,
    TransceiverConfig,
)
from repro.channel import FlatRayleighChannel
from repro.core.transceiver import transmit_bursts
from repro.utils.bits import count_bit_errors


def main() -> None:
    config = TransceiverConfig.paper_default()
    print("Configuration:")
    print(f"  antennas            : {config.n_antennas}x{config.n_antennas}")
    print(f"  FFT size            : {config.fft_size}")
    print(f"  modulation          : {config.modulation.value}")
    print(f"  code rate           : {config.code_rate.value}")
    print(f"  coded bits / symbol : {config.coded_bits_per_symbol} per stream")
    print(f"  clock               : {config.clock_hz / 1e6:.0f} MHz")

    print(f"  information rate    : {config.info_bit_rate_bps / 1e6:.0f} Mbit/s")

    channel = MimoChannel(
        fading=FlatRayleighChannel(rng=26),
        snr_db=30.0,
        impairment=ImpairmentSpec(sample_delay=25),
        rng=2,
    )

    print("\nRunning one burst of 512 information bits per stream ...")
    (air,) = transmit_bursts(MimoTransmitter(config), [channel], 512, rngs=[3])
    (result,) = MimoReceiver(config).receive_stack(
        [air.samples], 512, [air.lts_start], [air.noise_variance]
    )

    burst = air.burst
    bit_errors = result.total_bit_errors(burst.info_bits)
    print(f"  burst length        : {burst.n_samples} samples "
          f"({burst.duration_s * 1e6:.1f} us)")
    print(f"  OFDM data symbols   : {burst.layout.n_symbols}")
    print(f"  LTS located at      : sample {result.lts_start} "
          f"(transmitted at {burst.layout.sts_length + channel.impairment.sample_delay})")
    print(f"  total payload       : {burst.payload_bits} bits")
    print(f"  bit errors          : {bit_errors}")
    print(f"  bit error rate      : {bit_errors / burst.payload_bits:.2e}")
    for stream, (bits, decoded, equalized) in enumerate(
        zip(burst.info_bits, result.decoded_bits, result.equalized)
    ):
        ber = count_bit_errors(bits, decoded) / bits.size
        mean_error = np.mean(np.abs(equalized)) if equalized.size else 0
        print(
            f"    stream {stream}: BER {ber:.2e}, "
            f"mean equalised magnitude {mean_error:.2f}"
        )

    if bit_errors == 0:
        print("\nAll four spatial streams decoded without error.")
    else:
        print("\nResidual errors remain — try a higher SNR or a lower-order modulation.")


if __name__ == "__main__":
    main()
