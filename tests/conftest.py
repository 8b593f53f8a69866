"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.receiver import MimoReceiver
from repro.core.transceiver import transmit_bursts
from repro.core.transmitter import MimoTransmitter


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: end-to-end example runs that take seconds each"
    )
    # A stray numpy RuntimeWarning (NaN arithmetic, overflow) is a bug in
    # the datapath, not noise: fail the test that raised it.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator shared by tests that need randomness."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def paper_config() -> TransceiverConfig:
    """The paper's synthesised configuration (4x4, 16-QAM, 64-pt, rate 1/2)."""
    return TransceiverConfig.paper_default()


@pytest.fixture
def gigabit_config() -> TransceiverConfig:
    """The 1 Gbps configuration (64-QAM, rate 3/4)."""
    return TransceiverConfig.gigabit()


@pytest.fixture
def random_channel_matrix(rng: np.random.Generator) -> np.ndarray:
    """A well-conditioned random 4x4 complex channel matrix."""
    return (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / np.sqrt(2.0)


@pytest.fixture
def flat_fading_channel() -> MimoChannel:
    """A reproducible flat-Rayleigh channel with 35 dB SNR."""
    return MimoChannel(FlatRayleighChannel(rng=11), snr_db=35.0, rng=12)


@pytest.fixture(scope="session")
def random_burst():
    """One burst of random payload: ``draw(transmitter, n_info_bits, rng)``.

    The payload is ``transmitter.random_payload(n_info_bits, rng)``, sent
    through :meth:`~repro.core.transmitter.MimoTransmitter.transmit` as a
    one-burst stack.
    """

    def draw(transmitter, n_info_bits, rng):
        return transmitter.transmit(transmitter.random_payload(n_info_bits, rng)[None])[0]

    return draw


@pytest.fixture
def link_burst():
    """One burst over a link: a round of one through ``transmit_bursts``, then
    ``receive_stack``.

    Returns ``run(config, channel, n_info_bits, rng, known_timing=False)``,
    which gives ``(air, outcome)``: the :class:`~repro.core.transceiver.AirBurst`
    and the receiver's :class:`~repro.core.frame.ReceiveResult` (or the
    :class:`~repro.exceptions.DecodingError` it gave up with).
    """

    def run(config, channel, n_info_bits, rng, known_timing=False):
        (air,) = transmit_bursts(
            MimoTransmitter(config), [channel], n_info_bits, [rng], known_timing=known_timing
        )
        (outcome,) = MimoReceiver(config).receive_stack(
            [air.samples], n_info_bits, [air.lts_start], [air.noise_variance]
        )
        return air, outcome

    return run
