"""Tests for non-4x4 antenna configurations (SISO and 2x2).

The paper repeatedly relates the MIMO design to "the SISO system" (each
transmitter entity is replicated per channel); these tests confirm the
reproduction degrades gracefully to smaller antenna counts — the SISO and
2x2 systems use the same code path with fewer streams.
"""

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import IdealChannel, MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.hardware.estimator import TransmitterResourceModel


class TestSisoMode:
    def test_siso_burst_structure(self, random_burst):
        config = TransceiverConfig(n_antennas=1)
        transmitter = MimoTransmitter(config)
        burst = random_burst(transmitter, 96, np.random.default_rng(0))
        # Preamble is STS + a single LTS slot.
        assert burst.layout.n_lts_slots == 1
        assert burst.layout.preamble_length == 160 + 160
        assert burst.samples.shape[0] == 1

    def test_siso_ideal_loopback(self, link_burst):
        config = TransceiverConfig(n_antennas=1)
        channel = MimoChannel(IdealChannel(1), snr_db=30.0, rng=1)
        air, outcome = link_burst(config, channel, 300, rng=2)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_siso_fading_loopback(self, link_burst):
        config = TransceiverConfig(n_antennas=1)
        channel = MimoChannel(FlatRayleighChannel(n_rx=1, n_tx=1, rng=3), snr_db=30.0, rng=4)
        air, outcome = link_burst(config, channel, 300, rng=5)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_siso_channel_estimate_is_scalar_per_subcarrier(self, random_burst):
        config = TransceiverConfig(n_antennas=1)
        transmitter = MimoTransmitter(config)
        receiver = MimoReceiver(config)
        burst = random_burst(transmitter, 96, np.random.default_rng(6))
        result = receiver.receive(burst.samples, n_info_bits=96)
        assert result.channel_estimate.matrices.shape == (64, 1, 1)

    def test_throughput_scales_with_streams(self):
        siso = TransceiverConfig(n_antennas=1)
        mimo = TransceiverConfig(n_antennas=4)
        assert mimo.info_bit_rate_bps == pytest.approx(4 * siso.info_bit_rate_bps)


class TestTwoByTwoMode:
    def test_2x2_fading_loopback(self, link_burst):
        config = TransceiverConfig(n_antennas=2)
        channel = MimoChannel(FlatRayleighChannel(n_rx=2, n_tx=2, rng=7), snr_db=32.0, rng=8)
        air, outcome = link_burst(config, channel, 200, rng=9)
        assert outcome.total_bit_errors(air.burst.info_bits) == 0

    def test_2x2_preamble_has_two_lts_slots(self, random_burst):
        config = TransceiverConfig(n_antennas=2)
        burst = random_burst(MimoTransmitter(config), 96, np.random.default_rng(10))
        assert burst.layout.n_lts_slots == 2
        assert burst.samples.shape[0] == 2


class TestResourceReplicationClaim:
    def test_per_channel_entities_scale_linearly_with_channels(self):
        # "The greater resources required are simply due to replication for
        #  the four channels" — per-channel TX entities are 4x the SISO cost.
        siso = TransmitterResourceModel(TransceiverConfig(n_antennas=1))
        mimo = TransmitterResourceModel(TransceiverConfig(n_antennas=4))
        for entity in ("conv_encoder", "block_interleaver", "ifft", "cyclic_prefix"):
            assert mimo.entity_usage(entity).aluts == pytest.approx(
                4 * siso.entity_usage(entity).aluts, rel=0.01
            )
