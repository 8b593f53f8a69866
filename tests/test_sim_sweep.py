"""Tests for the repro.sim sweep engine: specs, runner, caching, determinism."""

import json

import numpy as np
import pytest

import repro.sim.engine as engine
from repro.channel.model import build_fading_model
from repro.core.config import TransceiverConfig
from repro.core.transceiver import impaired_config
from repro.dsp.fixedpoint import (
    FixedPointFormat,
    MULTIPLIER_FORMAT_18BIT,
    SAMPLE_FORMAT_16BIT,
)
from repro.exceptions import ConfigurationError
from repro.sim import ImpairmentSpec, SweepRunner, SweepSpec
from repro.sim.spec import SweepPoint, SweepPointResult, SweepResult


def small_spec(**overrides) -> SweepSpec:
    """A fast two-point spec the runner tests share."""
    fields = dict(
        snr_db=(8.0, 30.0),
        modulations=("qpsk",),
        n_info_bits=80,
        n_bursts=3,
        target_errors=None,
        base_seed=3,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestImpairmentSpec:
    def test_dict_round_trip_is_loss_free(self):
        spec = ImpairmentSpec(
            cfo_normalized=2e-3,
            sample_delay=5,
            iq_amplitude_db=0.5,
            iq_phase_deg=2.0,
            tx_format=SAMPLE_FORMAT_16BIT,
            rx_format=FixedPointFormat(10, 8),
            rx_multiplier_format=MULTIPLIER_FORMAT_18BIT,
        )
        clone = ImpairmentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.rx_format is not None
        assert clone.rx_format.word_length == 10

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            ImpairmentSpec(sample_delay=-1)

    def test_bad_format_type_rejected(self):
        with pytest.raises(ConfigurationError):
            ImpairmentSpec(tx_format="16bit")

    def test_quantized_helper_keeps_full_scale_range(self):
        spec = ImpairmentSpec.quantized(8, cfo_normalized=1e-3)
        assert spec.tx_format == spec.rx_format == FixedPointFormat(8, 6)
        # The full-scale value, where both formats saturate, stays near 2.0.
        assert spec.tx_format.quantize(1e3) == pytest.approx(
            SAMPLE_FORMAT_16BIT.quantize(1e3), rel=0.01
        )
        assert spec.cfo_normalized == 1e-3

    def test_paper_frontend_formats(self):
        spec = ImpairmentSpec.paper_frontend()
        assert spec.tx_format == SAMPLE_FORMAT_16BIT
        assert spec.rx_format == SAMPLE_FORMAT_16BIT
        assert spec.rx_multiplier_format == MULTIPLIER_FORMAT_18BIT


class TestSweepSpec:
    def test_scalar_axes_are_normalised_to_tuples(self):
        spec = SweepSpec(snr_db=10, modulations="qpsk", stream_counts=2)
        assert spec.snr_db == (10.0,)
        assert spec.modulations == ("qpsk",)
        assert spec.stream_counts == (2,)

    def test_grid_expansion_order_and_count(self):
        spec = SweepSpec(
            snr_db=(0.0, 10.0),
            modulations=("qpsk", "16qam"),
            detectors=("zf", "mmse"),
        )
        points = spec.points()
        assert len(points) == spec.n_points == 8
        assert [p.index for p in points] == list(range(8))
        # SNR varies fastest.
        assert (points[0].snr_db, points[1].snr_db) == (0.0, 10.0)
        assert points[0].modulation == points[1].modulation == "qpsk"

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(channels=("fancy",))
        with pytest.raises(ValueError):
            SweepSpec(detectors=("dfe",))
        with pytest.raises(ValueError):
            SweepSpec(n_bursts=0)
        with pytest.raises(ValueError):
            SweepSpec(target_errors=0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: SweepSpec(fft_size=64.0),
            lambda: SweepSpec(target_errors=100.0),
            lambda: SweepSpec(base_seed=-1, fresh_fading_per_burst=False),
            lambda: SweepSpec(n_bursts=2.5),
            lambda: SweepRunner(small_spec(), n_workers=1.5, cache=None),
            lambda: SweepRunner(small_spec(), batch_size="3", cache=None),
            lambda: SweepRunner(small_spec(), n_workers=1, cache=None).run_adaptive(
                extra_bursts=2.5
            ),
            lambda: SweepRunner(small_spec(), n_workers=1, cache=None).run_adaptive(
                extra_bursts=2, rounds=1.5
            ),
        ],
        ids=[
            "fft_size-float",
            "target_errors-float",
            "base_seed-negative",
            "n_bursts-float",
            "n_workers-float",
            "batch_size-str",
            "extra_bursts-float",
            "rounds-float",
        ],
    )
    def test_malformed_sweep_arguments_raise_configuration_error(self, call):
        with pytest.raises(ConfigurationError):
            call()

    def test_numpy_integers_key_like_python_integers(self):
        spec = SweepSpec(
            n_info_bits=np.int64(64),
            n_bursts=np.int32(3),
            target_errors=np.int64(10),
            base_seed=np.uint8(5),
            fft_size=np.int16(64),
        )
        plain = SweepSpec(n_info_bits=64, n_bursts=3, target_errors=10, base_seed=5)
        assert spec == plain
        assert spec.points()[0].content_key(spec) == plain.points()[0].content_key(plain)

    def test_numpy_booleans_key_like_python_booleans(self):
        spec = SweepSpec(
            fresh_fading_per_burst=np.False_, known_timing=np.True_, soft_decision=np.True_
        )
        plain = SweepSpec(fresh_fading_per_burst=False, known_timing=True, soft_decision=True)
        assert spec == plain
        assert spec.known_timing is True
        assert spec.points()[0].content_key(spec) == plain.points()[0].content_key(plain)

    def test_dict_round_trip_through_json(self):
        spec = small_spec()
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_impairment_axis_normalisation(self):
        # Scalars, dict payloads and None all normalise onto the axis.
        ideal_only = SweepSpec()
        assert ideal_only.impairments == (None,)
        single = SweepSpec(impairments=ImpairmentSpec(sample_delay=3))
        assert single.impairments == (ImpairmentSpec(sample_delay=3),)
        mixed = SweepSpec(
            impairments=[None, {"cfo_normalized": 1e-3}, ImpairmentSpec.quantized(8)]
        )
        assert mixed.impairments == (
            None,
            ImpairmentSpec(cfo_normalized=1e-3),
            ImpairmentSpec.quantized(8),
        )
        with pytest.raises(ConfigurationError):
            SweepSpec(impairments=("bad",))
        with pytest.raises(ValueError):
            SweepSpec(impairments=())

    def test_impairment_axis_multiplies_grid(self):
        spec = SweepSpec(
            snr_db=(0.0, 10.0),
            impairments=(None, ImpairmentSpec(cfo_normalized=1e-3)),
        )
        points = spec.points()
        assert len(points) == spec.n_points == 4
        # SNR still varies fastest; impairment varies next.
        assert [p.snr_db for p in points] == [0.0, 10.0, 0.0, 10.0]
        assert [p.impairment for p in points[:2]] == [None, None]
        assert points[2].impairment == ImpairmentSpec(cfo_normalized=1e-3)

    def test_impairment_spec_round_trip_through_json(self):
        spec = small_spec(
            impairments=(None, ImpairmentSpec.quantized(8, cfo_normalized=2e-3))
        )
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.points()[2].impairment == spec.impairments[1]


class TestEngine:
    def test_build_config_maps_point_fields(self):
        spec = SweepSpec(snr_db=(0.0,), soft_decision=True, fft_size=64)
        point = SweepPoint(
            index=0,
            modulation="64qam",
            code_rate="3/4",
            n_streams=2,
            channel="ideal",
            detector="mmse",
            snr_db=12.0,
        )
        config = engine.build_config(point, spec)
        assert config.n_antennas == 2
        assert config.modulation.value == "64qam"
        assert config.code_rate.value == "3/4"
        assert config.detector == "mmse"
        assert config.soft_decision

    def test_burst_seed_is_deterministic(self):
        spec = small_spec()
        low, high = spec.points()
        a = engine.burst_seed(engine.air_key(high, spec), 2).generate_state(4)
        b = engine.burst_seed(engine.air_key(high, spec), 2).generate_state(4)
        c = engine.burst_seed(engine.air_key(high, spec), 3).generate_state(4)
        d = engine.burst_seed(engine.air_key(low, spec), 2).generate_state(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_burst_seed_is_content_keyed_not_index_keyed(self):
        # The same physical cell must draw the same bursts in any grid —
        # the property cross-sweep sharing in the result store rests on.
        spec = small_spec()
        high = spec.points()[1]
        solo_spec = spec.subset(snr_db=(30.0,))
        solo = solo_spec.points()[0]
        assert solo.index != high.index or solo.index == 0
        a = engine.burst_seed(engine.air_key(high, spec), 5).generate_state(4)
        b = engine.burst_seed(engine.air_key(solo, solo_spec), 5).generate_state(4)
        assert np.array_equal(a, b)
        # Budget knobs do not reroll the stream: a bigger budget extends it.
        c = engine.burst_seed(
            engine.air_key(high, spec.subset(n_bursts=50, target_errors=None)), 5
        ).generate_state(4)
        assert np.array_equal(a, c)

    def test_every_channel_model_builds(self):
        spec = small_spec()
        for channel in ("ideal", "flat_rayleigh", "frequency_selective"):
            point = spec.subset(channels=(channel,)).points()[0]
            fading = build_fading_model(
                point.channel, point.n_streams, np.random.default_rng(0)
            )
            assert fading.n_rx == fading.n_tx == point.n_streams

    def test_build_config_wires_the_impairment_into_the_receiver(self):
        spec = small_spec()
        impairment = ImpairmentSpec.paper_frontend(cfo_normalized=1e-3)
        point = spec.subset(impairments=(impairment,)).points()[0]
        config = engine.build_config(point, spec)
        assert config.correct_cfo  # a CFO axis enables the estimator
        assert config.rx_sample_format == SAMPLE_FORMAT_16BIT
        assert config.rx_multiplier_format == MULTIPLIER_FORMAT_18BIT

    def test_build_config_ideal_front_end_stays_floating_point(self):
        spec = small_spec()
        config = engine.build_config(spec.points()[0], spec)
        assert not config.correct_cfo
        assert config.rx_sample_format is None
        assert config.rx_multiplier_format is None

    def test_impaired_config_keeps_what_the_base_enables(self):
        # The streaming scheduler overlays its impairment on a caller's
        # config: an ideal front end leaves that config as it was, and an
        # impairment only adds to it.
        base = TransceiverConfig(correct_cfo=True, rx_sample_format=SAMPLE_FORMAT_16BIT)
        assert impaired_config(base, ImpairmentSpec()) == base
        overlaid = impaired_config(
            base, ImpairmentSpec(rx_multiplier_format=MULTIPLIER_FORMAT_18BIT)
        )
        assert overlaid.correct_cfo
        assert overlaid.rx_sample_format == SAMPLE_FORMAT_16BIT
        assert overlaid.rx_multiplier_format == MULTIPLIER_FORMAT_18BIT


class TestSweepRunner:
    @pytest.mark.parametrize("n_workers", [0, -1, -8])
    def test_non_positive_worker_count_rejected(self, n_workers):
        # Regression: 0/negative used to silently mean "use every CPU".
        with pytest.raises(ValueError):
            SweepRunner(small_spec(), n_workers=n_workers)

    def test_none_workers_uses_every_cpu(self):
        import os

        runner = SweepRunner(small_spec(), n_workers=None, cache=False)
        assert runner.n_workers == (os.cpu_count() or 1)

    def test_results_are_deterministic(self, tmp_path):
        a = SweepRunner(small_spec(), n_workers=1, cache=False).run()
        b = SweepRunner(small_spec(), n_workers=1, cache=False).run()
        assert [p.bit_errors for p in a.points] == [p.bit_errors for p in b.points]
        assert [p.total_bits for p in a.points] == [p.total_bits for p in b.points]

    def test_physics_independent_of_batch_size(self):
        a = SweepRunner(small_spec(), n_workers=1, cache=False, batch_size=3).run()
        b = SweepRunner(small_spec(), n_workers=1, cache=False, batch_size=1).run()
        assert [p.bit_errors for p in a.points] == [p.bit_errors for p in b.points]

    def test_early_stopped_statistics_independent_of_batch_size(self):
        # The burst-level fold must stop at the same burst no matter how
        # the budget is batched — batch_size is deliberately not part of
        # the cache key, which is only sound if this holds.
        spec = small_spec(snr_db=(8.0,), n_bursts=12, target_errors=200)
        results = [
            SweepRunner(spec, n_workers=1, cache=False, batch_size=size).run()
            for size in (1, 2, 5, 12)
        ]
        stats = [
            (p.bit_errors, p.total_bits, p.frame_errors, p.n_bursts)
            for result in results
            for p in result.points
        ]
        assert all(cell == stats[0] for cell in stats)
        assert results[0].points[0].early_stopped

    def test_pool_matches_serial(self):
        spec = small_spec(n_bursts=2)
        serial = SweepRunner(spec, n_workers=1, cache=False, batch_size=1).run()
        pooled = SweepRunner(spec, n_workers=2, cache=False, batch_size=1).run()
        assert [(p.bit_errors, p.total_bits, p.frame_errors) for p in serial.points] == [
            (p.bit_errors, p.total_bits, p.frame_errors) for p in pooled.points
        ]

    def test_early_stopped_pool_matches_serial_bit_for_bit(self):
        # The running per-point error total that gates batch dispatch must
        # leave the statistics exactly where the old full-rescan logic did,
        # for both execution paths.
        spec = small_spec(snr_db=(8.0,), n_bursts=12, target_errors=150)
        serial = SweepRunner(spec, n_workers=1, cache=False, batch_size=2).run()
        pooled = SweepRunner(spec, n_workers=3, cache=False, batch_size=2).run()
        stats = lambda r: [
            (p.bit_errors, p.total_bits, p.frame_errors, p.n_bursts, p.early_stopped)
            for p in r.points
        ]
        assert stats(serial) == stats(pooled)
        assert serial.points[0].early_stopped

    def test_early_stopping_cuts_burst_count(self):
        # 8 dB QPSK over fresh Rayleigh fading is error-rich: a single burst
        # collects far more than 10 bit errors.
        spec = small_spec(snr_db=(8.0,), n_bursts=6, target_errors=10)
        result = SweepRunner(spec, n_workers=1, cache=False, batch_size=1).run()
        point = result.points[0]
        assert point.early_stopped
        assert point.n_bursts < spec.n_bursts
        assert point.bit_errors >= 10

    def test_cached_rerun_simulates_zero_bursts(self, tmp_path, monkeypatch):
        spec = small_spec()
        first = SweepRunner(spec, n_workers=1, cache=tmp_path).run()
        assert not first.from_cache
        assert first.n_bursts_simulated == spec.n_points * spec.n_bursts

        calls = []
        original = engine.simulate_batch

        def counting(unit):
            calls.append(unit)
            return original(unit)

        monkeypatch.setattr("repro.sim.runner.simulate_batch", counting)
        second = SweepRunner(spec, n_workers=1, cache=tmp_path).run()
        assert second.from_cache
        assert second.n_bursts_simulated == 0
        assert calls == []  # the cache hit performed zero new burst simulations
        assert [p.bit_errors for p in second.points] == [
            p.bit_errors for p in first.points
        ]

    def test_cache_ignored_when_disabled(self, tmp_path):
        spec = small_spec()
        SweepRunner(spec, n_workers=1, cache=tmp_path).run()
        fresh = SweepRunner(spec, n_workers=1, cache=False).run()
        assert not fresh.from_cache

    def test_detector_axis_runs_both_detectors(self):
        spec = small_spec(
            snr_db=(25.0,), detectors=("zf", "mmse"), n_bursts=1
        )
        result = SweepRunner(spec, n_workers=1, cache=False).run()
        detectors = {p.point.detector for p in result.points}
        assert detectors == {"zf", "mmse"}

    def test_impairment_axis_degrades_the_link(self):
        # A coarse 6-bit front end must do no better than the ideal one at
        # the same operating point; at 15 dB QPSK it is strictly worse.
        spec = small_spec(
            snr_db=(15.0,),
            n_bursts=2,
            impairments=(None, ImpairmentSpec.quantized(6)),
            fresh_fading_per_burst=False,
        )
        result = SweepRunner(spec, n_workers=1, cache=False).run()
        ideal = result.filter(impairment=None)[0]
        coarse = result.filter(impairment=ImpairmentSpec.quantized(6))[0]
        assert coarse.bit_errors > ideal.bit_errors

    def test_cfo_axis_is_corrected_at_high_snr(self):
        # The engine flips on the receiver's CFO estimator for CFO points;
        # at 30 dB a 2e-3 offset must decode cleanly.
        spec = small_spec(
            snr_db=(30.0,),
            n_bursts=2,
            impairments=(ImpairmentSpec(cfo_normalized=2e-3),),
        )
        result = SweepRunner(spec, n_workers=1, cache=False).run()
        assert result.points[0].bit_errors == 0

    def test_impairment_sweep_cache_round_trip(self, tmp_path):
        impairment = ImpairmentSpec.quantized(8, cfo_normalized=1e-3)
        spec = small_spec(n_bursts=2, impairments=(None, impairment))
        first = SweepRunner(spec, n_workers=1, cache=tmp_path).run()
        second = SweepRunner(spec, n_workers=1, cache=tmp_path).run()
        assert second.from_cache and second.n_bursts_simulated == 0
        # The cached points rebuild real ImpairmentSpec objects: value
        # filters and curves keep working after the round trip.
        assert second.ber_curve(impairment=impairment) == first.ber_curve(
            impairment=impairment
        )
        assert second.points[2].point.impairment == impairment

    def test_fixed_fading_is_shared_across_points(self):
        # In shared-fading mode the high-SNR point must be at least as good
        # as the low-SNR point over the *same* channel realisation.
        spec = small_spec(
            snr_db=(5.0, 35.0), fresh_fading_per_burst=False, n_bursts=2
        )
        result = SweepRunner(spec, n_workers=1, cache=False).run()
        curve = result.ber_curve(modulation="qpsk")
        assert curve[35.0] <= curve[5.0]

    def test_per_curve_is_sorted_by_snr_and_rejects_ambiguous_filters(self):
        spec = small_spec(snr_db=(30.0, 8.0), detectors=("zf", "mmse"), n_bursts=4)
        result = SweepResult(
            spec=spec,
            points=[
                SweepPointResult(
                    point=point,
                    bit_errors=index,
                    total_bits=320,
                    frame_errors=index,
                    n_bursts=4,
                    early_stopped=False,
                )
                for index, point in enumerate(spec.points())
            ],
        )
        per = {
            (p.point.detector, p.point.snr_db): p.packet_error_rate
            for p in result.points
        }
        curve = result.per_curve(detector="mmse")
        assert list(curve) == [8.0, 30.0]
        assert curve == {8.0: per["mmse", 8.0], 30.0: per["mmse", 30.0]}
        with pytest.raises(ValueError, match="more than one point per SNR"):
            result.per_curve(modulation="qpsk")


class TestDecodeFailureAccounting:
    def test_late_sync_lock_with_cfo_counts_as_lost_frames(self):
        # Regression: deep in the noise the synchroniser can lock within
        # the last LTS span of the burst, and the CFO estimator's
        # SynchronizationError used to escape the engine and kill the
        # sweep at burst 0.  It is a DecodingError now: a lost frame.
        spec = SweepSpec(
            snr_db=(-20.0,),
            modulations=("qpsk",),
            stream_counts=(2,),
            channels=("flat_rayleigh",),
            impairments=(ImpairmentSpec(cfo_normalized=1e-3),),
            n_info_bits=48,
            n_bursts=1,
            target_errors=None,
            base_seed=3,
        )
        result = SweepRunner(spec, n_workers=1, cache=False).run()
        assert result.points[0].decode_failures > 0
        assert result.points[0].packet_error_rate == 1.0

    def test_truncated_window_counts_as_lost_frames(self, monkeypatch):
        # Regression: a mis-synchronised burst whose FFT window starts before
        # sample zero now raises DecodingError (instead of clamping to a
        # garbage window); the engine must fold it into the statistics as a
        # fully errored frame, like any other decode failure.
        from repro.core.receiver import MimoReceiver

        monkeypatch.setattr(MimoReceiver, "synchronize", lambda self, samples: -200)
        spec = small_spec(snr_db=(30.0,))
        result = SweepRunner(spec, n_workers=1, cache=False).run()
        point = result.points[0]
        assert point.decode_failures == spec.n_bursts
        assert point.packet_error_rate == 1.0
        assert point.bit_error_rate == 1.0

    def test_singular_subcarrier_counts_as_lost_frames(self, monkeypatch):
        # One rank-deficient subcarrier inside the stacked channel inversion
        # raises ChannelEstimationError; the engine must count the burst as
        # a fully errored frame rather than abort the sweep.
        import repro.mimo.channel_estimation as estimation

        real_estimate = estimation.estimate_channel_from_lts

        def one_singular_subcarrier(*args, **kwargs):
            matrices = real_estimate(*args, **kwargs)
            # Subcarrier 1 of every stacked burst's estimate: rank one.
            matrices[..., 1, :, :] = 1.0
            return matrices

        monkeypatch.setattr(estimation, "estimate_channel_from_lts", one_singular_subcarrier)
        spec = small_spec(snr_db=(30.0,))
        result = SweepRunner(spec, n_workers=1, cache=False).run()
        point = result.points[0]
        assert point.decode_failures == spec.n_bursts
        assert point.packet_error_rate == 1.0
        assert point.bit_error_rate == 1.0
