"""Tests for repro.dsp.backend — the pluggable transform-arithmetic seam."""

import numpy as np
import pytest

from repro.dsp.backend import (
    DspBackend,
    NumpyBackend,
    SinglePrecisionBackend,
    available_backends,
    default_backend,
    get_backend,
    register_backend,
)
from repro.dsp.fft import fft, ifft


class TestRegistry:
    def test_default_is_numpy(self):
        assert get_backend(None).name == "numpy"
        assert default_backend().name == "numpy"

    def test_lookup_by_name(self):
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert isinstance(get_backend("numpy32"), SinglePrecisionBackend)

    def test_instance_passes_through(self):
        backend = NumpyBackend()
        assert get_backend(backend) is backend

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="numpy"):
            get_backend("does-not-exist")

    def test_available_backends(self):
        names = available_backends()
        assert "numpy" in names
        assert "numpy32" in names

    def test_register_custom_backend(self):
        class Custom(NumpyBackend):
            name = "custom-for-test"

        try:
            register_backend(Custom())
            assert get_backend("custom-for-test").name == "custom-for-test"
        finally:
            available = available_backends()
            if "custom-for-test" in available:
                from repro.dsp import backend as backend_module

                del backend_module._BACKENDS["custom-for-test"]

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSP_BACKEND", "numpy32")
        assert default_backend().name == "numpy32"

    def test_abstract_backend_rejects_transforms(self):
        backend = DspBackend()
        with pytest.raises(NotImplementedError):
            backend.fft(np.zeros(8, dtype=complex))
        with pytest.raises(NotImplementedError):
            backend.ifft(np.zeros(8, dtype=complex))


class TestNumpyBackend:
    def test_bit_identical_to_module_transforms(self):
        rng = np.random.default_rng(40)
        backend = NumpyBackend()
        for shape in [(64,), (5, 64), (4, 7, 128)]:
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            rows = x.reshape(-1, shape[-1])
            expected_fft = np.stack([fft(row) for row in rows]).reshape(shape)
            expected_ifft = np.stack([ifft(row) for row in rows]).reshape(shape)
            np.testing.assert_array_equal(backend.fft(x), expected_fft)
            np.testing.assert_array_equal(backend.ifft(x), expected_ifft)

    def test_round_trip(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
        backend = NumpyBackend()
        np.testing.assert_allclose(backend.ifft(backend.fft(x)), x, atol=1e-12)


class TestSinglePrecisionBackend:
    def test_dtype_is_complex64(self):
        backend = SinglePrecisionBackend()
        x = np.ones((2, 64), dtype=np.complex128)
        assert backend.fft(x).dtype == np.complex64
        assert backend.ifft(x).dtype == np.complex64

    def test_close_to_double_precision(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 9, 64)) + 1j * rng.normal(size=(4, 9, 64))
        double = NumpyBackend()
        single = SinglePrecisionBackend()
        np.testing.assert_allclose(single.fft(x), double.fft(x), atol=1e-4)
        np.testing.assert_allclose(single.ifft(x), double.ifft(x), atol=1e-6)

    def test_round_trip(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(2, 128)) + 1j * rng.normal(size=(2, 128))
        backend = SinglePrecisionBackend()
        np.testing.assert_allclose(backend.ifft(backend.fft(x)), x, atol=1e-4)


class TestTransmitterThroughBackends:
    def test_numpy32_burst_close_but_not_exact(self):
        from repro.core.config import TransceiverConfig
        from repro.core.transmitter import MimoTransmitter

        config = TransceiverConfig()
        rng = np.random.default_rng(44)
        bits = [
            rng.integers(0, 2, size=480, dtype=np.uint8)
            for _ in range(config.n_streams)
        ]
        reference = MimoTransmitter(config).transmit(bits)
        single = MimoTransmitter(config, backend="numpy32").transmit(bits)
        assert not np.array_equal(single.samples, reference.samples)
        np.testing.assert_allclose(single.samples, reference.samples, atol=1e-5)

    @pytest.mark.parametrize("n_symbols", [0, 3])
    def test_numpy32_modulate_block_stays_single_precision(self, n_symbols):
        # Every payload sample the transmitter builds passes through the
        # backend, so under "numpy32" it is complex64 — including the
        # empty block, which must not fall back to a complex128 buffer.
        from repro.core.config import TransceiverConfig
        from repro.core.transmitter import MimoTransmitter

        config = TransceiverConfig()
        transmitter = MimoTransmitter(config, backend="numpy32")
        block = np.ones((config.n_streams, n_symbols, config.fft_size), dtype=np.complex128)
        samples = transmitter._modulate_block(block)
        assert samples.dtype == np.complex64
        assert samples.shape == (config.n_streams, n_symbols * config.samples_per_symbol)

    def test_transmitted_burst_is_complex128_under_every_backend(self):
        # The assembled burst is the air interface: always complex128.
        from repro.core.config import TransceiverConfig
        from repro.core.transmitter import MimoTransmitter

        config = TransceiverConfig()
        bits = [np.ones(96, dtype=np.uint8)] * config.n_streams
        for backend in ("numpy", "numpy32"):
            burst = MimoTransmitter(config, backend=backend).transmit(bits)
            assert burst.samples.dtype == np.complex128
