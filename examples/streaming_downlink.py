#!/usr/bin/env python
"""Domain scenario: bulk data delivery to a smart-phone class device.

Reproduces: the motivating scenario of the paper's introduction ("next
generation wireless networks are expected to provide high speed internet
access anywhere and anytime") against the synthesised 480 Mbps build of
Tables 1-4 and the 1 Gbps headline build of the title/abstract.

A payload (e.g. a video segment) is segmented into frames and delivered
over the *streaming* receive pipeline (:mod:`repro.stream`): every
(re)transmission goes on air over a fresh fading realisation, the receiver
consumes the resulting continuous sample stream through the rolling-buffer
:class:`~repro.stream.detector.StreamFrameDetector`, and erroneous or
undetected frames are retransmitted (simple ARQ).  The resulting goodput
is compared with the configuration's nominal PHY rate.  Before the ARQ
replay, the expected frame error rate at the chosen SNR is looked up
through a small cached :mod:`repro.sim` sweep, so repeated runs with the
same knobs skip straight to the delivery simulation.

Run from a clean checkout with::

    PYTHONPATH=src python examples/streaming_downlink.py [--kilobytes N] [--snr DB]

(The PYTHONPATH prefix is optional; the script falls back to the in-tree
``src`` directory when ``repro`` is not installed.)
"""

from __future__ import annotations

import argparse
import numpy as np

import _bootstrap  # noqa: F401 -- makes the in-tree repro package importable

from repro import TransceiverConfig
from repro.channel import FlatRayleighChannel, MimoChannel
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.sim import SweepRunner, SweepSpec
from repro.stream import StreamingReceiver

# The delivery knobs, hoisted so the cached PER estimate and the ARQ replay
# can never silently diverge: both the SweepSpec below and the streaming
# delivery loop read the *same* constants, which is what keeps repeated runs
# with identical knobs hitting the engine's per-point result store instead
# of re-simulating.
BITS_PER_FRAME_PER_STREAM = 1000
PER_ESTIMATE_BURSTS = 16
PER_ESTIMATE_SEED = 21


def expected_per(config: TransceiverConfig, snr_db: float) -> float:
    """Cached engine estimate of the per-frame error probability."""
    spec = SweepSpec(
        snr_db=(snr_db,),
        modulations=(config.modulation.value,),
        code_rates=(config.code_rate.value,),
        stream_counts=(config.n_antennas,),
        channels=("flat_rayleigh",),
        fft_size=config.fft_size,
        soft_decision=config.soft_decision,
        n_info_bits=BITS_PER_FRAME_PER_STREAM,
        n_bursts=PER_ESTIMATE_BURSTS,
        # PER needs every burst's verdict: early stopping would weight the
        # sample toward error bursts, so run the full budget.
        target_errors=None,
        base_seed=PER_ESTIMATE_SEED,
    )
    result = SweepRunner(spec, n_workers=1).run()
    return result.points[0].packet_error_rate


def deliver_payload(
    payload_bits: int,
    snr_db: float,
    config: TransceiverConfig,
    max_retries: int = 4,
    seed: int = 1,
) -> dict:
    """Deliver ``payload_bits`` over the streaming pipeline with per-frame ARQ.

    The transmitter and the streaming receiver (trellis, constellation and
    preamble tables, rolling detection buffer) are built once; every
    (re)transmission swaps in a fresh fading realisation — the block-fading
    assumption the per-burst preamble is designed for — and its received
    samples are pushed into the *continuous* stream the frame detector
    watches, and the pipeline is drained after each push, so every frame's
    verdict is in before the next transmission.  A frame the detector never finds, a decode give-up, or a
    decode with residual bit errors all trigger the same retransmission.
    """
    transmitter_rng = np.random.default_rng(seed)
    bits_per_frame = BITS_PER_FRAME_PER_STREAM * config.n_streams
    n_segments = -(-payload_bits // bits_per_frame)
    transmitter = MimoTransmitter(config)
    pipeline = StreamingReceiver(
        receiver=MimoReceiver(config), n_info_bits=BITS_PER_FRAME_PER_STREAM
    )

    delivered = 0
    lost_segments = 0
    frames_sent = 0
    retransmissions = 0
    air_time_s = 0.0

    for _segment in range(n_segments):
        attempts = 0
        while True:
            payload = transmitter.random_payload(BITS_PER_FRAME_PER_STREAM, transmitter_rng)
            (burst,) = transmitter.transmit(payload[None])
            channel = MimoChannel(
                FlatRayleighChannel(
                    config.n_antennas,
                    config.n_antennas,
                    rng=transmitter_rng.integers(0, 2**31),
                ),
                snr_db=snr_db,
                rng=transmitter_rng.integers(0, 2**31),
            )
            attempts += 1
            frames_sent += 1
            # Every frame occupies the air for its full duration — including
            # frames the receiver fails to find.
            air_time_s += burst.duration_s
            # Stop-and-wait: the verdict on this frame decides what goes on
            # air next, so decode it now rather than wait for a full slice.
            decoded = pipeline.push(channel.transmit(burst.samples).samples)
            decoded += pipeline.drain()
            delivered_ok = any(
                frame.ok
                and all(
                    np.array_equal(reference, bits)
                    for reference, bits in zip(
                        burst.info_bits, frame.outcome.decoded_bits
                    )
                )
                for frame in decoded
            )
            if delivered_ok or attempts > max_retries:
                break
            retransmissions += 1
        if delivered_ok:
            delivered += bits_per_frame
        else:
            # Retries exhausted: only actually decoded bits count toward
            # goodput, otherwise low-SNR runs would fabricate throughput.
            lost_segments += 1
    pipeline.flush()

    return {
        "delivered_bits": delivered,
        "lost_segments": lost_segments,
        "bursts_sent": frames_sent,
        "retransmissions": retransmissions,
        "air_time_s": air_time_s,
        "goodput_bps": delivered / air_time_s if air_time_s else 0.0,
        "frames_detected": pipeline.frames_detected,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kilobytes", type=int, default=8, help="payload size in KiB")
    parser.add_argument("--snr", type=float, default=32.0, help="channel SNR in dB")
    args = parser.parse_args()

    payload_bits = args.kilobytes * 1024 * 8

    for label, config in [
        ("paper build (16-QAM, rate 1/2)", TransceiverConfig.paper_default()),
        ("gigabit build (64-QAM, rate 3/4)", TransceiverConfig.gigabit()),
    ]:
        nominal = config.info_bit_rate_bps
        per = expected_per(config, args.snr)
        print(f"\n=== {label} ===")
        print(f"payload               : {args.kilobytes} KiB ({payload_bits} bits)")
        print(f"channel SNR           : {args.snr:.1f} dB, flat Rayleigh per burst")
        print(f"expected burst errors : {per * 100:.0f} % (cached engine estimate)")
        stats = deliver_payload(payload_bits, args.snr, config)
        print(f"bursts sent           : {stats['bursts_sent']}")
        print(f"frames detected       : {stats['frames_detected']} (streaming detector)")
        print(f"retransmissions       : {stats['retransmissions']}")
        if stats["lost_segments"]:
            print(f"segments lost         : {stats['lost_segments']} (retries exhausted)")
        print(f"air time              : {stats['air_time_s'] * 1e3:.2f} ms")
        print(f"goodput               : {stats['goodput_bps'] / 1e6:.0f} Mbit/s")
        print(f"nominal PHY rate      : {nominal / 1e6:.0f} Mbit/s")
        print(f"efficiency            : {100 * stats['goodput_bps'] / nominal:.0f} %")
        if nominal >= 1e9:
            print("this is the configuration behind the paper's 1 Gbps headline")


if __name__ == "__main__":
    main()
