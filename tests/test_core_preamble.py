"""Tests for repro.core.preamble."""

import numpy as np
import pytest

from repro.core.config import TransceiverConfig
from repro.core.preamble import PreambleGenerator, STS_REPETITIONS, burst_layout
from repro.core.receiver import MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.dsp.fft import FftPlan, ifft
from repro.exceptions import ConfigurationError


@pytest.fixture
def preamble() -> PreambleGenerator:
    return PreambleGenerator(64)


class TestFrequencySequences:
    def test_lts_is_plus_minus_one_on_52_subcarriers(self, preamble):
        lts = preamble.lts_frequency
        active = np.abs(lts) > 0
        assert active.sum() == 52
        assert np.all(np.isin(lts[active].real, [-1.0, 1.0]))
        assert np.all(lts[active].imag == 0)

    def test_lts_dc_is_zero(self, preamble):
        assert preamble.lts_frequency[0] == 0

    def test_lts_matches_80211a_first_values(self, preamble):
        # Subcarriers +1..+4 of the 802.11a LTS are 1, -1, -1, 1.
        np.testing.assert_allclose(preamble.lts_frequency[1:5], [1, -1, -1, 1])

    def test_sts_occupies_every_fourth_subcarrier(self, preamble):
        sts = preamble.sts_frequency
        nonzero_bins = np.nonzero(np.abs(sts) > 0)[0]
        logical = np.where(nonzero_bins <= 32, nonzero_bins, nonzero_bins - 64)
        assert np.all(logical % 4 == 0)
        assert nonzero_bins.size == 12

    def test_sts_magnitude_scaling(self, preamble):
        nonzero = preamble.sts_frequency[np.abs(preamble.sts_frequency) > 0]
        np.testing.assert_allclose(np.abs(nonzero), np.sqrt(13 / 6) * np.sqrt(2))


class TestTimeDomainSections:
    def test_sts_length_and_periodicity(self, preamble):
        sts = preamble.sts_time()
        assert sts.size == STS_REPETITIONS * 16
        np.testing.assert_allclose(sts[:16], sts[16:32], atol=1e-12)
        np.testing.assert_allclose(sts[:16], sts[144:160], atol=1e-12)

    def test_lts_length_and_structure(self, preamble):
        lts = preamble.lts_time()
        assert lts.size == 32 + 64 + 64
        # The long cyclic prefix is the tail of the LTS symbol.
        np.testing.assert_allclose(lts[:32], lts[64:96], atol=1e-12)
        # Two identical repetitions follow.
        np.testing.assert_allclose(lts[32:96], lts[96:160], atol=1e-12)

    def test_lts_symbol_transforms_back_to_frequency_sequence(self, preamble):
        symbol = preamble.lts_time()[preamble.lts_cp_length :][:64]
        np.testing.assert_allclose(np.fft.fft(symbol), preamble.lts_frequency, atol=1e-9)

    def test_512_point_sections_scale(self):
        preamble512 = PreambleGenerator(512)
        assert preamble512.sts_time().size == STS_REPETITIONS * 128
        assert preamble512.lts_time().size == 256 + 2 * 512


class TestMimoSchedule:
    def test_layout_lengths(self):
        # 96 info bits -> 204 coded bits -> 2 symbols of 192 coded bits.
        layout = burst_layout(TransceiverConfig(), 96)
        assert layout.sts_length == 160
        assert layout.lts_slot_length == 160
        assert layout.preamble_length == 160 + 4 * 160
        assert layout.data_start == 800
        assert (layout.coded_length, layout.n_symbols) == (204, 2)
        assert layout.length == 800 + 2 * 80 + 16

    def test_sts_only_from_antenna_zero(self, preamble):
        waveform = preamble.mimo_preamble(4)
        sts_region = waveform[:, :160]
        assert np.any(np.abs(sts_region[0]) > 0)
        np.testing.assert_allclose(sts_region[1:], 0)

    def test_lts_slots_are_staggered(self, preamble):
        waveform = preamble.mimo_preamble(4)
        layout = burst_layout(TransceiverConfig(), 96)
        for antenna in range(4):
            start = layout.lts_slot_start(antenna)
            slot = waveform[:, start : start + layout.lts_slot_length]
            assert np.any(np.abs(slot[antenna]) > 0)
            others = [a for a in range(4) if a != antenna]
            np.testing.assert_allclose(slot[others], 0)

    def test_schedule_description_matches_figure2(self, preamble):
        schedule = preamble.transmission_schedule(4)
        assert schedule[0] == ("STS", 0, 0, 160)
        assert schedule[1] == ("LTS", 0, 160, 160)
        assert schedule[4] == ("LTS", 3, 640, 160)

    def test_lts_slot_start_bounds(self):
        layout = burst_layout(TransceiverConfig(), 96)
        with pytest.raises(ValueError):
            layout.lts_slot_start(4)

    def test_invalid_antenna_count(self, preamble):
        with pytest.raises(ConfigurationError):
            preamble.mimo_preamble(0)

    def test_invalid_fft_size(self):
        with pytest.raises(ConfigurationError):
            PreambleGenerator(32)


class TestCachedWaveforms:
    """Waveforms are built once per generator and handed out read-only."""

    def test_cached_waveforms_equal_a_fresh_computation(self, preamble):
        symbol = ifft(preamble.lts_frequency)
        lts = np.concatenate([symbol[-preamble.lts_cp_length :], symbol, symbol])
        sts = np.tile(ifft(preamble.sts_frequency)[:16], STS_REPETITIONS)
        mimo = np.zeros((4, 800), dtype=np.complex128)
        mimo[0, :160] = sts
        for antenna in range(4):
            start = 160 * (antenna + 1)
            mimo[antenna, start : start + 160] = lts
        for cached, fresh in (
            (preamble.lts_time(), lts),
            (preamble.sts_time(), sts),
            (preamble.mimo_preamble(4), mimo),
        ):
            np.testing.assert_array_equal(cached, fresh)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0

    def test_repeated_calls_return_the_cached_objects(self, preamble):
        assert preamble.sts_time() is preamble.sts_time()
        assert preamble.lts_time() is preamble.lts_time()
        config = TransceiverConfig(n_antennas=2)
        assert burst_layout(config, 96) is burst_layout(config, 96)
        assert preamble.mimo_preamble(2) is preamble.mimo_preamble(2)
        assert preamble.mimo_preamble(2).shape == (2, burst_layout(config, 96).preamble_length)

    def test_warm_burst_runs_at_most_three_forward_ffts(self, monkeypatch, random_burst):
        # The data IFFT (one forward pass inside FftPlan.inverse), the
        # stacked LTS FFT and the stacked data FFT: no preamble waveform is
        # recomputed per burst.
        config = TransceiverConfig()
        transmitter = MimoTransmitter(config)
        receiver = MimoReceiver(config)

        def one_burst(seed):
            burst = random_burst(transmitter, 120, np.random.default_rng(seed))
            receiver.detect_stack(receiver.demodulate_stack([burst.samples], 120))

        one_burst(0)
        calls = []
        forward = FftPlan.forward

        def counted(plan, x):
            calls.append(np.shape(x))
            return forward(plan, x)

        monkeypatch.setattr(FftPlan, "forward", counted)
        one_burst(1)
        assert len(calls) <= 3


class TestOneGeneratorPerSize:
    def test_for_fft_size_is_shared_and_read_only(self):
        shared = PreambleGenerator.for_fft_size(64)
        assert PreambleGenerator.for_fft_size(64) is shared
        assert PreambleGenerator.for_fft_size(128) is not shared
        for table in (shared.lts_frequency, shared.sts_frequency, shared.sts_time()):
            assert not table.flags.writeable

    def test_for_fft_size_still_validates(self):
        PreambleGenerator.for_fft_size(64)
        with pytest.raises(ConfigurationError):
            PreambleGenerator.for_fft_size(64.0)
        with pytest.raises(ConfigurationError):
            PreambleGenerator.for_fft_size(48)

    def test_wide_sweep_transceivers_build_one_generator_per_size(self, monkeypatch):
        # The 16 configurations of a 2-stream modulation x rate x detector
        # grid, CFO correction on: transmitter, receiver and CFO estimator
        # of every one share the size's generator.
        built = []
        init = PreambleGenerator.__init__

        def counting(self, fft_size=64):
            built.append(fft_size)
            init(self, fft_size)

        monkeypatch.setattr(PreambleGenerator, "__init__", counting)
        generators = []
        for modulation in ("bpsk", "qpsk", "16qam", "64qam"):
            for code_rate in ("1/2", "3/4"):
                for detector in ("zf", "mmse"):
                    config = TransceiverConfig(
                        n_antennas=2,
                        modulation=modulation,
                        code_rate=code_rate,
                        detector=detector,
                        correct_cfo=True,
                    )
                    receiver = MimoReceiver(config)
                    generators.extend(
                        owner.preamble
                        for owner in (MimoTransmitter(config), receiver, receiver.cfo_estimator)
                    )
        assert built.count(64) <= 1
        assert len(generators) == 48
        assert all(generator is generators[0] for generator in generators)
