"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: end-to-end example runs that take seconds each"
    )


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
