"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError

from repro.utils.rng import make_rng


def test_seed_produces_reproducible_stream():
    a = make_rng(42).integers(0, 100, 10)
    b = make_rng(42).integers(0, 100, 10)
    np.testing.assert_array_equal(a, b)


def test_existing_generator_is_passed_through():
    generator = np.random.default_rng(1)
    assert make_rng(generator) is generator


def test_none_is_refused():
    with pytest.raises(ConfigurationError):
        make_rng(None)
