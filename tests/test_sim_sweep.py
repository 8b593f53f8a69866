"""Tests for the repro.sim sweep engine: specs, runner, caching, determinism."""

import json

import numpy as np
import pytest

import repro.sim.engine as engine
from repro.dsp.fixedpoint import (
    FixedPointFormat,
    MULTIPLIER_FORMAT_18BIT,
    SAMPLE_FORMAT_16BIT,
)
from repro.sim import ImpairmentSpec, JsonCache, SweepRunner, SweepSpec, run_sweep
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
    def test_defaults_are_ideal(self):
        assert ImpairmentSpec().is_ideal
        assert not ImpairmentSpec(cfo_normalized=1e-3).is_ideal

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
        with pytest.raises(TypeError):
            ImpairmentSpec(tx_format="16bit")

    def test_quantized_helper_keeps_full_scale_range(self):
        spec = ImpairmentSpec.quantized(8, cfo_normalized=1e-3)
        assert spec.tx_format == spec.rx_format == FixedPointFormat(8, 6)
        assert spec.tx_format.max_value == pytest.approx(
            SAMPLE_FORMAT_16BIT.max_value, rel=0.01
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

    def test_dict_round_trip_and_hash_stability(self):
        spec = small_spec()
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_hash_changes_with_any_field(self):
        spec = small_spec()
        assert spec.spec_hash() != spec.subset(base_seed=4).spec_hash()
        assert spec.spec_hash() != spec.subset(n_bursts=4).spec_hash()
        assert spec.spec_hash() != spec.subset(snr_db=(8.0, 31.0)).spec_hash()
        assert (
            spec.spec_hash()
            != spec.subset(
                impairments=(ImpairmentSpec(cfo_normalized=1e-3),)
            ).spec_hash()
        )

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
        with pytest.raises(TypeError):
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
        assert clone.spec_hash() == spec.spec_hash()
        assert clone.points()[2].impairment == spec.impairments[1]

    def test_result_round_trip(self):
        spec = small_spec()
        point = spec.points()[0]
        result = SweepResult(
            spec=spec,
            points=[
                SweepPointResult(
                    point=point,
                    bit_errors=5,
                    total_bits=100,
                    frame_errors=1,
                    n_bursts=2,
                    early_stopped=False,
                )
            ],
            elapsed_s=1.5,
        )
        rebuilt = SweepResult.from_dict(
            json.loads(json.dumps(result.to_dict())), from_cache=True
        )
        assert rebuilt.spec == spec
        assert rebuilt.from_cache
        assert rebuilt.n_bursts_simulated == 0
        assert rebuilt.points[0].bit_error_rate == pytest.approx(0.05)
        assert rebuilt.points[0].point == point


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
        a = engine.burst_seed(spec, high, 2).generate_state(4)
        b = engine.burst_seed(spec, high, 2).generate_state(4)
        c = engine.burst_seed(spec, high, 3).generate_state(4)
        d = engine.burst_seed(spec, low, 2).generate_state(4)
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
        a = engine.burst_seed(spec, high, 5).generate_state(4)
        b = engine.burst_seed(solo_spec, solo, 5).generate_state(4)
        assert np.array_equal(a, b)
        # Budget knobs do not reroll the stream: a bigger budget extends it.
        c = engine.burst_seed(
            spec.subset(n_bursts=50, target_errors=None), high, 5
        ).generate_state(4)
        assert np.array_equal(a, c)

    def test_every_channel_model_builds(self):
        spec = small_spec()
        for channel in ("ideal", "flat_rayleigh", "frequency_selective"):
            point = spec.subset(channels=(channel,)).points()[0]
            fading = engine.build_fading(point, np.random.default_rng(0))
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

        def counting(task):
            calls.append(task)
            return original(task)

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

    def test_run_sweep_convenience(self, tmp_path):
        result = run_sweep(small_spec(), n_workers=1, cache=tmp_path)
        assert result.spec == small_spec()
        assert len(result.points) == 2

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


class TestDecodeFailureAccounting:
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
            matrices[1] = 1.0  # rank one
            return matrices

        monkeypatch.setattr(estimation, "estimate_channel_from_lts", one_singular_subcarrier)
        spec = small_spec(snr_db=(30.0,))
        result = SweepRunner(spec, n_workers=1, cache=False).run()
        point = result.points[0]
        assert point.decode_failures == spec.n_bursts
        assert point.packet_error_rate == 1.0
        assert point.bit_error_rate == 1.0


class TestJsonCache:
    def test_round_trip_and_miss(self, tmp_path):
        cache = JsonCache(tmp_path)
        assert cache.get("absent") is None
        cache.put("key", {"value": 3})
        assert cache.get("key") == {"value": 3}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = JsonCache(tmp_path)
        cache.path_for("bad").parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("bad").write_text("not json{")
        assert cache.get("bad") is None

    @pytest.mark.parametrize("payload", ["[1, 2, 3]", '"a string"', "42", "null"])
    def test_non_dict_entry_is_a_miss(self, tmp_path, payload):
        # Regression: any valid-JSON file was returned verbatim, so a
        # truncated or foreign file parsing to a list/string/number escaped
        # get() and crashed SweepResult.from_dict downstream.  put() only
        # ever stores dicts, so anything else is corruption -> a miss.
        cache = JsonCache(tmp_path)
        cache.path_for("odd").parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("odd").write_text(payload)
        assert cache.get("odd") is None

    def test_clear(self, tmp_path):
        cache = JsonCache(tmp_path)
        cache.put("a", {})
        cache.put("b", {})
        assert cache.clear() == 2
        assert cache.get("a") is None

    def test_put_routes_through_the_atomic_store_commit(self, tmp_path, monkeypatch):
        # Regression (torn-write risk): put() used to json.dump straight
        # into the temp file and rename without fsync, so a crash after the
        # rename was issued but before the data hit disk could leave a torn
        # destination.  The shim now delegates to commit_json_file, whose
        # fsync-before-replace ordering closes that window.
        import repro.sim.store as store_module

        calls = []
        original = store_module.commit_json_file
        monkeypatch.setattr(
            "repro.sim.store.commit_json_file",
            lambda path, payload: calls.append(path) or original(path, payload),
        )
        cache = JsonCache(tmp_path)
        cache.put("key", {"value": 1})
        assert calls == [cache.path_for("key")]
        assert cache.get("key") == {"value": 1}

    def test_failed_put_preserves_the_previous_entry(self, tmp_path, monkeypatch):
        # The other half of the torn-write guarantee: dying mid-put must
        # leave the previous value fully readable, never a partial file.
        cache = JsonCache(tmp_path)
        cache.put("key", {"value": "old"})

        def boom(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.sim.store.os.replace", boom)
        with pytest.raises(KeyboardInterrupt):
            cache.put("key", {"value": "new"})
        monkeypatch.undo()
        assert cache.get("key") == {"value": "old"}
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_interrupted_put_leaves_no_entry_and_clear_removes_temp(self, tmp_path, monkeypatch):
        # Regression: clear() only globbed *.json, stranding the
        # .<key>.<random>.tmp files an interrupted put() leaves behind.
        cache = JsonCache(tmp_path)

        def boom(src, dst):
            raise KeyboardInterrupt  # simulate the process dying mid-write

        monkeypatch.setattr("repro.sim.cache.os.replace", boom)
        with pytest.raises(KeyboardInterrupt):
            cache.put("key", {"value": 1})
        monkeypatch.undo()
        assert cache.get("key") is None

        # put()'s cleanup handled that interrupt; now plant a stale temp file
        # as left by a hard kill (no chance to unlink) and clear everything.
        stale = tmp_path / ".key.abc123.tmp"
        stale.write_text("{}")
        cache.put("other", {"value": 2})
        assert cache.clear() == 2
        assert not stale.exists()
        assert list(tmp_path.iterdir()) == []
