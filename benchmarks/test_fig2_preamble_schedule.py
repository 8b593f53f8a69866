"""Figure 2 — the MIMO preamble transmission pattern.

The paper's Fig. 2 shows the staggered preamble: STS from antenna 0 only,
then each antenna transmits the LTS in its own slot before the data starts
on all antennas simultaneously.  The benchmark regenerates the schedule,
verifies the occupancy pattern sample by sample, and confirms that the
staggering is what makes per-column channel estimation possible (estimating
a full 4x4 matrix from the received LTS slots).
"""

import numpy as np

from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.receiver import TIMING_ADVANCE, MimoReceiver
from repro.core.transmitter import MimoTransmitter


def _generate_burst():
    transmitter = MimoTransmitter(TransceiverConfig())
    payload = transmitter.random_payload(96, np.random.default_rng(7))
    return transmitter.transmit(payload[None])[0]


def test_fig2_preamble_schedule(table_printer):
    burst = _generate_burst()
    transmitter = MimoTransmitter(TransceiverConfig())
    schedule = transmitter.preamble.transmission_schedule(4)

    table_printer(
        "Fig. 2: MIMO preamble schedule (section, antenna, start sample, length)",
        ["section", "antenna", "start", "length"],
        schedule,
    )

    layout = burst.layout
    samples = burst.samples
    # STS section: antenna 0 active, antennas 1-3 silent.
    assert np.any(np.abs(samples[0, : layout.sts_length]) > 0)
    assert np.allclose(samples[1:, : layout.sts_length], 0)
    # Each LTS slot: exactly one antenna active.
    for antenna in range(4):
        start = layout.lts_slot_start(antenna)
        stop = start + layout.lts_slot_length
        active = [a for a in range(4) if np.any(np.abs(samples[a, start:stop]) > 0)]
        assert active == [antenna]
    # Data section: every antenna active.
    data = samples[:, layout.data_start : layout.data_start + 80]
    assert all(np.any(np.abs(data[a]) > 0) for a in range(4))

    # The staggering enables full channel estimation: a 4x4 flat channel is
    # recovered column by column from the received preamble, up to the
    # phase ramp of the receiver's FFT windows starting TIMING_ADVANCE
    # samples into their cyclic prefix.
    fading = FlatRayleighChannel(rng=8)
    channel = MimoChannel(fading)
    received = channel.transmit(burst.samples).samples
    receiver = MimoReceiver(TransceiverConfig())
    (front,) = receiver.detect_stack(
        receiver.demodulate_stack([received], 96, [layout.sts_length])
    )
    estimate = front.channel_estimate
    active_subcarriers = np.nonzero(estimate.active_mask)[0]
    for k in active_subcarriers[::13]:
        ramp = np.exp(-2j * np.pi * k * TIMING_ADVANCE / 64)
        np.testing.assert_allclose(estimate.matrices[k], ramp * fading.matrix, atol=1e-6)
