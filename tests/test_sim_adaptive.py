"""Tests for adaptive refinement and the repro.sim.stats interval math."""

import math

import pytest

from repro.sim import ResultStore, SweepPointResult, SweepRunner, SweepSpec
from repro.sim.stats import (
    allocate_bursts,
    clopper_pearson_interval,
    wilson_interval,
)


class TestWilsonInterval:
    def test_brackets_the_point_estimate(self):
        low, high = wilson_interval(30, 1000)
        assert low < 30 / 1000 < high

    def test_zero_errors_has_positive_upper_bound(self):
        # The property that makes Wilson the right default for BER sweeps:
        # a clean high-SNR point still reports genuine uncertainty.
        low, high = wilson_interval(0, 500)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert 0.001 < high < 0.02

    def test_all_errors_mirror(self):
        low0, high0 = wilson_interval(0, 200)
        low1, high1 = wilson_interval(200, 200)
        assert low1 == pytest.approx(1.0 - high0, abs=1e-12)
        assert high1 == 1.0

    def test_width_shrinks_with_trials(self):
        wide = wilson_interval(10, 100)
        narrow = wilson_interval(100, 1000)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_width_grows_with_confidence(self):
        w95 = wilson_interval(10, 100, confidence=0.95)
        w99 = wilson_interval(10, 100, confidence=0.99)
        assert (w99[1] - w99[0]) > (w95[1] - w95[0])

    def test_matches_normal_quantile_at_half(self):
        # At p-hat = 0.5 and large n the Wilson interval converges to the
        # Wald interval: +/- z * sqrt(p(1-p)/n).
        n = 100_000
        low, high = wilson_interval(n // 2, n)
        expected_half = 1.959963985 * math.sqrt(0.25 / n)
        assert (high - low) / 2 == pytest.approx(expected_half, rel=1e-3)

    def test_no_information(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_point_interval_is_the_95_percent_wilson_interval(self):
        result = SweepPointResult(SweepSpec().points()[0], 5, 100, 1, 1, False)
        assert result.ber_interval() == wilson_interval(5, 100, confidence=0.95)
        low, high = result.ber_interval()
        assert result.ber_interval_width() == high - low

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.0)


class TestClopperPearson:
    def test_wider_than_wilson_at_interior_points(self):
        # Clopper-Pearson is exact and therefore conservative: away from
        # the k = 0 / k = n closures it is wider than the approximate
        # Wilson interval (the endpoints need not strictly nest, but the
        # two-sided width does).
        for errors, trials in [(3, 100), (10, 200), (40, 80)]:
            w = wilson_interval(errors, trials)
            cp = clopper_pearson_interval(errors, trials)
            assert (cp[1] - cp[0]) > (w[1] - w[0])
            assert cp[0] < errors / trials < cp[1]  # brackets p-hat

    def test_closures_at_the_edges(self):
        low, high = clopper_pearson_interval(0, 100)
        assert low == 0.0 and 0.0 < high < 0.1
        low, high = clopper_pearson_interval(100, 100)
        assert 0.9 < low < 1.0 and high == 1.0


class TestAllocateBursts:
    def test_widest_point_gets_the_budget(self):
        allocation = allocate_bursts(
            widths={0: 0.10, 1: 0.001},
            observations={0: 1000, 1: 1000},
            per_burst={0: 100, 1: 100},
            budget=4,
        )
        assert allocation == {0: 4}

    def test_equal_widths_split_evenly(self):
        allocation = allocate_bursts(
            widths={0: 0.05, 1: 0.05},
            observations={0: 1000, 1: 1000},
            per_burst={0: 100, 1: 100},
            budget=6,
        )
        assert allocation == {0: 3, 1: 3}

    def test_zero_width_points_get_nothing(self):
        allocation = allocate_bursts(
            widths={0: 0.0, 1: 0.0},
            observations={0: 10, 1: 10},
            per_burst={0: 10, 1: 10},
            budget=5,
        )
        assert allocation == {}

    def test_deterministic_tie_break_on_lowest_index(self):
        allocation = allocate_bursts(
            widths={2: 0.05, 7: 0.05},
            observations={2: 100, 7: 100},
            per_burst={2: 10, 7: 10},
            budget=1,
        )
        assert allocation == {2: 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate_bursts({0: 0.1}, {1: 10}, {0: 5}, budget=1)
        with pytest.raises(ValueError):
            allocate_bursts({0: 0.1}, {0: 10}, {0: 5}, budget=-1)


def adaptive_spec() -> SweepSpec:
    """Two QPSK points with wildly different BERs (~0.32 vs ~0.11)."""
    return SweepSpec(
        snr_db=(8.0, 12.0),
        modulations=("qpsk",),
        stream_counts=(2,),
        n_info_bits=64,
        n_bursts=4,
        target_errors=None,
        base_seed=5,
    )


class TestRunAdaptive:
    def test_refinement_targets_the_wide_interval(self, tmp_path):
        spec = adaptive_spec()
        base = SweepRunner(spec, n_workers=1, cache=None).run()
        base_widths = [p.ber_interval_width() for p in base.points]
        assert base_widths[0] > base_widths[1]  # 8 dB is the wide point

        refined = SweepRunner(spec, n_workers=1, cache=None).run_adaptive(
            extra_bursts=24, rounds=4
        )
        extra = [
            refined.points[i].n_bursts - base.points[i].n_bursts for i in range(2)
        ]
        assert sum(extra) == 24
        # The wide-CI point receives at least twice the bursts of the other.
        assert extra[0] >= 2 * extra[1]
        # Refinement equalises precision: final widths within a factor of 2.
        widths = [p.ber_interval_width() for p in refined.points]
        assert max(widths) <= 2 * min(widths)
        # And strictly improves on the base widths wherever bursts landed.
        assert widths[0] < base_widths[0]

    def test_refined_points_extend_the_base_stream(self):
        # The extension bursts are the exact bursts a bigger base budget
        # would have drawn: refined statistics equal a single run with the
        # refined budget.
        spec = adaptive_spec()
        refined = SweepRunner(spec, n_workers=1, cache=None).run_adaptive(
            extra_bursts=24, rounds=4
        )
        for point_result in refined.points:
            straight = SweepRunner(
                spec.subset(n_bursts=point_result.n_bursts, target_errors=None),
                n_workers=1,
                cache=None,
            ).run()
            match = [
                p
                for p in straight.points
                if p.point.snr_db == point_result.point.snr_db
            ][0]
            assert (point_result.bit_errors, point_result.total_bits) == (
                match.bit_errors,
                match.total_bits,
            )

    def test_refinement_extends_an_early_stopped_base(self):
        # Both base points cross the error target in their first burst; the
        # refinement rounds then run without a target, so every refined
        # point equals a straight target-free run at its refined budget.
        spec = SweepSpec(
            snr_db=(4.0, 12.0),
            modulations=("qpsk",),
            stream_counts=(2,),
            n_info_bits=64,
            n_bursts=6,
            target_errors=20,
            base_seed=5,
        )
        runner = SweepRunner(spec, n_workers=1, batch_size=2, cache=None)
        base = runner.run()
        assert [(p.n_bursts, p.early_stopped) for p in base.points] == [(1, True)] * 2
        refined = runner.run_adaptive(extra_bursts=6, rounds=2)
        assert sum(p.n_bursts for p in refined.points) == 2 + 6
        for point_result in refined.points:
            assert not point_result.early_stopped
            straight = SweepRunner(
                spec.subset(n_bursts=point_result.n_bursts, target_errors=None),
                n_workers=1,
                cache=None,
            ).run()
            match = [
                p
                for p in straight.points
                if p.point.snr_db == point_result.point.snr_db
            ][0]
            assert (
                point_result.bit_errors,
                point_result.total_bits,
                point_result.frame_errors,
            ) == (match.bit_errors, match.total_bits, match.frame_errors)

    def test_warm_adaptive_rerun_replays_from_the_store(self, tmp_path):
        spec = adaptive_spec()
        store = ResultStore(tmp_path / "points")
        first = SweepRunner(spec, n_workers=1, cache=store).run_adaptive(
            extra_bursts=24, rounds=4
        )
        assert first.n_bursts_simulated > 0
        second = SweepRunner(spec, n_workers=1, cache=store).run_adaptive(
            extra_bursts=24, rounds=4
        )
        # The deterministic allocator replays the same refinement path, so
        # every refined record is a store hit.
        assert second.from_cache
        assert second.n_bursts_simulated == 0
        assert [
            (p.bit_errors, p.total_bits, p.n_bursts) for p in second.points
        ] == [(p.bit_errors, p.total_bits, p.n_bursts) for p in first.points]

    def test_pooled_adaptive_matches_serial(self):
        spec = adaptive_spec()
        serial = SweepRunner(spec, n_workers=1, cache=None).run_adaptive(
            extra_bursts=8, rounds=2
        )
        pooled = SweepRunner(spec, n_workers=2, cache=None).run_adaptive(
            extra_bursts=8, rounds=2
        )
        assert [
            (p.bit_errors, p.total_bits, p.n_bursts) for p in serial.points
        ] == [(p.bit_errors, p.total_bits, p.n_bursts) for p in pooled.points]

    def test_validation(self):
        spec = adaptive_spec()
        runner = SweepRunner(spec, n_workers=1, cache=None)
        with pytest.raises(ValueError):
            runner.run_adaptive(extra_bursts=0)
        with pytest.raises(ValueError):
            runner.run_adaptive(extra_bursts=4, rounds=0)
