"""The sweep engine's work unit: the points of one air group, one trellis.

:func:`repro.sim.engine.simulate_batch` advances the items of a unit in
lockstep.  A round puts every distinct burst of the live items on air
once — twins, items that differ only in the detector, share it — runs
the distinct bursts through one shared receive stage, each detector's
items through their detector stage, and decodes all their code blocks
together.  These tests pin the contract that makes that invisible: every
item reports exactly what it reports when run on its own (also when the
front end gives up on one item's burst mid-round, when twins retire at
different bursts, when only the MMSE twin gives up, and when a twin was
adopted from the store), each burst's outcome, give-up cause included,
is what receiving that burst alone gives, an item that reaches
``target_errors`` stops simulating, the runner's results do not depend
on queue backend, pool size or batch size, a unit larger than one decode
slice still decodes bit-exactly, and the runner keys and configures each
point once.
"""

from dataclasses import replace

import pytest

import repro.coding.viterbi as viterbi_module
import repro.sim.cache as cache_module
import repro.sim.engine as engine_module
import repro.sim.runner as runner_module
from repro.core.frame import BurstOutcome
from repro.core.receiver import DECODE_SLICE, MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.exceptions import ConfigurationError
from repro.mimo.channel_estimation import ChannelEstimator
from repro.sim import ImpairmentSpec, ResultStore, SweepRunner, SweepSpec
from repro.sim.engine import (
    BatchItem,
    WorkUnit,
    air_burst,
    air_key,
    build_config,
    burst_seed,
    simulate_batch,
)
from repro.sim.queue import MultiprocessingQueue
from repro.sim.runner import _pack_units


def _item(spec, point, start_burst, n_bursts, batch_index=0):
    return BatchItem(
        point=point,
        config=build_config(point, spec),
        air_key=air_key(point, spec),
        start_burst=start_burst,
        n_bursts=n_bursts,
        batch_index=batch_index,
    )


def _items(spec, start_burst, n_bursts):
    return [
        _item(spec, point, start_burst, n_bursts - point.index % 2, point.index)
        for point in spec.points()
    ]


def _run(spec, items):
    return simulate_batch(WorkUnit(spec, tuple(items)))


def _alone(spec, item):
    (report,) = _run(spec, [item])
    return report


def _without_timing(report):
    return (report.batch_index, report.outcomes)


@pytest.mark.parametrize("target_errors", [None, 100])
@pytest.mark.parametrize(
    "soft, detector, rate",
    [(False, "zf", "1/2"), (True, "mmse", "3/4")],
    ids=["hard-zf-r1/2", "soft-mmse-r3/4"],
)
def test_unit_reports_each_item_as_if_run_alone(soft, detector, rate, target_errors):
    # -10 dB over flat Rayleigh makes the receiver give up on some bursts
    # (sync miss); 30 dB decodes clean; the middle SNRs leave bit errors.
    spec = SweepSpec(
        snr_db=(-10.0, 0.0, 12.0, 30.0),
        modulations=("qpsk",),
        code_rates=(rate,),
        detectors=(detector,),
        soft_decision=soft,
        stream_counts=(2,),
        n_info_bits=64,
        n_bursts=6,
        target_errors=target_errors,
        base_seed=21,
    )
    items = _items(spec, start_burst=1, n_bursts=4)
    reports = _run(spec, items)

    assert [_without_timing(r) for r in reports] == [
        _without_timing(_alone(spec, item)) for item in items
    ]
    bursts = [outcome for report in reports for outcome in report.outcomes]
    assert any(outcome.decode_failure for outcome in bursts)
    assert any(outcome.bit_errors and not outcome.decode_failure for outcome in bursts)
    if target_errors is None:
        assert [len(r.outcomes) for r in reports] == [item.n_bursts for item in items]
    else:
        assert any(len(r.outcomes) < item.n_bursts for r, item in zip(reports, items))


def _counting(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, first, *args, **kwargs):
        calls.append(len(first))
        return original(self, first, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _counting_air_bursts(monkeypatch):
    calls = []
    original = engine_module.air_burst

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine_module, "air_burst", counted)
    return calls


def _early_stop_spec():
    # At 0 dB every burst errs, so the 0 dB item crosses target_errors=1 at
    # its first burst; the 30 dB item decodes clean and runs all four.
    spec = SweepSpec(
        snr_db=(0.0, 30.0),
        modulations=("qpsk",),
        stream_counts=(2,),
        n_info_bits=64,
        n_bursts=4,
        target_errors=1,
        base_seed=5,
    )
    items = _items(spec, start_burst=0, n_bursts=4)
    items[1] = replace(items[1], n_bursts=4)
    return spec, items


def test_item_past_its_error_target_stops_simulating(monkeypatch):
    spec, items = _early_stop_spec()
    transmitted = _counting_air_bursts(monkeypatch)
    decoded = _counting(monkeypatch, viterbi_module.ViterbiDecoder, "decode")
    reports = _run(spec, items)

    assert [len(report.outcomes) for report in reports] == [1, 4]
    assert len(transmitted) == 5
    # One trellis pass per lockstep round: both items, then the clean one.
    assert decoded == [4, 2, 2, 2]


def test_each_lockstep_round_is_one_shared_stage_and_one_decode(monkeypatch):
    spec, items = _early_stop_spec()
    demodulated = _counting(monkeypatch, MimoReceiver, "demodulate_stack")
    decoded = _counting(monkeypatch, MimoReceiver, "decode")
    _run(spec, items)
    # Round one takes both items' bursts, rounds two to four the clean one.
    assert demodulated == [2, 1, 1, 1]
    assert decoded == [4, 2, 2, 2]


def _twin_spec(**changes):
    # ZF and MMSE twins of two air cells: at 4 dB ZF crosses 40 bit errors
    # at its first burst and MMSE at its second; at 20 dB both run clean.
    fields = dict(
        snr_db=(4.0, 20.0),
        modulations=("16qam",),
        stream_counts=(2,),
        detectors=("zf", "mmse"),
        n_info_bits=64,
        n_bursts=4,
        target_errors=40,
        base_seed=11,
    )
    fields.update(changes)
    spec = SweepSpec(**fields)
    items = [_item(spec, point, 0, 4, point.index) for point in spec.points()]
    return spec, items


def _assert_each_item_as_if_run_alone(spec, items):
    reports = _run(spec, items)
    assert [_without_timing(r) for r in reports] == [
        _without_timing(_alone(spec, item)) for item in items
    ]
    return reports


def _capturing_samples(monkeypatch):
    captured = []
    original = MimoReceiver.demodulate_stack

    def capture(self, samples, *args, **kwargs):
        captured.append([burst.tobytes() for burst in samples])
        return original(self, samples, *args, **kwargs)

    monkeypatch.setattr(MimoReceiver, "demodulate_stack", capture)
    return captured


def test_twins_receive_byte_identical_samples(monkeypatch):
    spec, items = _twin_spec(snr_db=(20.0,), target_errors=None)
    zf, mmse = items
    captured = _capturing_samples(monkeypatch)
    _alone(spec, zf)
    zf_alone = captured[:]
    captured.clear()
    _alone(spec, mmse)
    assert captured == zf_alone
    captured.clear()
    _run(spec, items)
    # One shared burst per round, the very bytes either twin gets alone.
    assert captured == zf_alone
    assert [len(round_) for round_ in captured] == [1] * 4


def test_mixed_detector_unit_transmits_once_per_air_cell_and_burst(monkeypatch):
    spec, items = _twin_spec(target_errors=None)
    transmitted = []
    original = engine_module.transmit_burst

    def counted(*args, **kwargs):
        transmitted.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine_module, "transmit_burst", counted)
    _assert_each_item_as_if_run_alone(spec, items)
    transmitted.clear()
    _run(spec, items)
    # Two air cells x four bursts, not four items x four bursts.
    assert len(transmitted) == 2 * 4
    # Twins one burst apart share no burst index in a round: each goes on air.
    shifted = [replace(items[0], n_bursts=2), replace(items[2], start_burst=1, n_bursts=2)]
    _assert_each_item_as_if_run_alone(spec, shifted)
    transmitted.clear()
    _run(spec, shifted)
    assert len(transmitted) == 4


def test_twins_retiring_at_different_bursts_report_as_if_run_alone(monkeypatch):
    spec, items = _twin_spec()
    transmitted = _counting_air_bursts(monkeypatch)
    reports = _assert_each_item_as_if_run_alone(spec, items)
    points = spec.points()
    lengths = {(p.detector, p.snr_db): len(r.outcomes) for p, r in zip(points, reports)}
    assert lengths == {("zf", 4.0): 1, ("mmse", 4.0): 2, ("zf", 20.0): 4, ("mmse", 20.0): 4}
    transmitted.clear()
    _run(spec, items)
    # 4 dB: the shared first burst, then the MMSE twin's second alone.
    assert len(transmitted) == 2 + 4


def test_mmse_only_give_up_leaves_the_zf_twin_decoding(monkeypatch):
    # Two identical columns on subcarrier 7 of every estimate leave the ZF
    # inverses (already computed) alone, and at 300 dB the noise variance
    # vanishes in rounding against the Gram diagonal: only MMSE gives up.
    estimate = ChannelEstimator.estimate

    def duplicate_columns(self, received):
        outcomes = estimate(self, received)
        for outcome in outcomes:
            outcome.matrices[7, :, 1] = outcome.matrices[7, :, 0]
        return outcomes

    monkeypatch.setattr(ChannelEstimator, "estimate", duplicate_columns)
    spec, items = _twin_spec(snr_db=(300.0,), channels=("ideal",), target_errors=None)
    reports = _assert_each_item_as_if_run_alone(spec, items)
    zf, mmse = ([outcome.decode_failure for outcome in r.outcomes] for r in reports)
    assert zf == [False] * 4
    assert mmse == [True] * 4


def _received_alone(spec, item, burst):
    """One burst of an item, put on air and received by a fresh transceiver."""
    receiver = MimoReceiver(item.config)
    air = air_burst(
        MimoTransmitter(item.config),
        burst_seed(item.air_key, burst),
        item.point.channel,
        item.point.snr_db,
        item.point.impairment or ImpairmentSpec(),
        spec.n_info_bits,
        known_timing=spec.known_timing,
    )
    (received,) = receiver.receive_stack(
        [air.samples], spec.n_info_bits, [air.lts_start], [air.noise_variance]
    )
    return BurstOutcome.score(received, air.burst.info_bits)


def test_mixed_unit_outcomes_equal_each_burst_received_alone():
    # At -20 dB the receiver gives up on some bursts and the ZF and MMSE
    # twins reach target_errors=200 at different bursts; 4 and 20 dB run
    # all four.
    spec, items = _twin_spec(snr_db=(-20.0, 4.0, 20.0), target_errors=200)
    reports = _run(spec, items)
    for item, report in zip(items, reports):
        expected = []
        for burst in range(item.start_burst, item.start_burst + item.n_bursts):
            expected.append(_received_alone(spec, item, burst))
            if sum(outcome.bit_errors for outcome in expected) >= spec.target_errors:
                break
        assert report.outcomes == tuple(expected)
    outcomes = [outcome for report in reports for outcome in report.outcomes]
    assert any(outcome.cause for outcome in outcomes)
    assert all(
        outcome.bit_errors == outcome.payload_bits for outcome in outcomes if outcome.cause
    )
    lengths = {
        (item.point.detector, item.point.snr_db): len(report.outcomes)
        for item, report in zip(items, reports)
    }
    assert lengths[("zf", -20.0)] != lengths[("mmse", -20.0)]
    assert min(lengths.values()) < 4 == max(lengths.values())


def test_shared_stage_give_up_sinks_both_twins():
    # At -20 dB the synchroniser misses bursts before any detector runs.
    spec, items = _twin_spec(snr_db=(-20.0, 20.0), target_errors=None)
    reports = _assert_each_item_as_if_run_alone(spec, items)
    failures = {
        (p.detector, p.snr_db): [outcome.decode_failure for outcome in r.outcomes]
        for p, r in zip(spec.points(), reports)
    }
    assert failures[("zf", -20.0)] == failures[("mmse", -20.0)]
    assert any(failures[("zf", -20.0)])
    assert not any(failures[("zf", 20.0)] + failures[("mmse", 20.0)])


def test_unit_with_an_adopted_twin_simulates_the_other_alone(tmp_path, monkeypatch):
    spec, _ = _twin_spec(target_errors=None)
    store = ResultStore(tmp_path / "points")
    SweepRunner(spec.subset(detectors=("zf",)), n_workers=1, cache=store).run()
    # Hide the ZF records from the initial scan, so the runner adopts each
    # one right before dispatching its unit.
    monkeypatch.setattr(ResultStore, "get_many", lambda self, keys: {})
    transmitted = _counting_air_bursts(monkeypatch)
    result = SweepRunner(spec, n_workers=1, cache=store).run()
    # Only the MMSE twins simulate: two air cells x four bursts.
    assert result.n_bursts_simulated == len(transmitted) == 2 * 4
    monkeypatch.undo()
    assert _stats(result) == _stats(SweepRunner(spec, n_workers=1, cache=None).run())


def test_pool_run_of_twins_matches_the_serial_run():
    spec, _ = _twin_spec(
        snr_db=(4.0, 12.0, 20.0), target_errors=None, channels=("ideal", "flat_rayleigh")
    )
    serial = SweepRunner(spec, n_workers=1, cache=None, queue="serial").run()
    pooled = SweepRunner(spec, n_workers=2, batch_size=2, cache=None, queue="process").run()
    assert _stats(pooled) == _stats(serial)
    assert pooled.n_bursts_simulated == serial.n_bursts_simulated


def test_batch_reuses_the_cached_transmitter_and_receiver():
    spec, items = _early_stop_spec()
    config = build_config(spec.points()[0], spec)
    transmitter, receiver = engine_module._transceiver_for(config)
    _run(spec, items)
    cached_transmitter, cached_receiver = engine_module._transceiver_for(config)
    assert cached_transmitter is transmitter
    assert cached_receiver is receiver


def test_pack_units_groups_equal_air_group_and_batch_in_priority_order():
    wanting = [4, 0, 3, 1, 2, 5]
    groups = {0: "a", 1: "a", 2: "b", 3: "a", 4: "a", 5: "b"}
    no_twins = {index: index for index in wanting}
    batch_of = {0: 0, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0}
    assert _pack_units(wanting, groups, no_twins, batch_of, 1) == [[4, 0, 1], [3], [2, 5]]
    # Four "a" points over capacity 2: at most two per unit.
    assert _pack_units(wanting, groups, no_twins, batch_of, 2) == [[4, 0], [3], [1], [2], [5]]


def test_pack_units_keeps_twins_in_one_unit():
    wanting = [0, 1, 2, 3, 4, 5]
    groups = dict.fromkeys(wanting, "a")
    twins = {0: "x", 1: "y", 2: "z", 3: "x", 4: "y", 5: "z"}
    batch_of = dict.fromkeys(wanting, 0)
    assert _pack_units(wanting, groups, twins, batch_of, 1) == [[0, 3, 1, 4, 2, 5]]
    # A pool splits the group by cells, never between twins.
    assert _pack_units(wanting, groups, twins, batch_of, 2) == [[0, 3, 1, 4], [2, 5]]
    assert _pack_units(wanting, groups, twins, batch_of, 3) == [[0, 3], [1, 4], [2, 5]]


def test_unit_rejects_items_of_different_air_groups():
    spec = SweepSpec(
        snr_db=(20.0,), modulations=("qpsk", "16qam"), stream_counts=(2,), n_info_bits=48
    )
    with pytest.raises(ConfigurationError):
        _run(spec, _items(spec, 0, 1))


def test_unit_accepts_items_of_different_detectors():
    spec = SweepSpec(
        snr_db=(20.0,), detectors=("zf", "mmse"), stream_counts=(2,), n_info_bits=48
    )
    items = [_item(spec, point, 0, 1) for point in spec.points()]
    reports = _run(spec, items)
    assert [len(report.outcomes) for report in reports] == [1, 1]


def test_unit_above_one_decode_slice_decodes_bit_exactly(monkeypatch):
    # 17 points x 4 streams = 68 code blocks in one round: one full slice
    # plus a rest.
    spec = SweepSpec(
        snr_db=tuple(6.0 + 0.5 * step for step in range(17)),
        modulations=("16qam",),
        n_info_bits=48,
        n_bursts=2,
        target_errors=None,
        base_seed=4,
    )
    items = [_item(spec, point, 0, 2) for point in spec.points()]
    decoded = _counting(monkeypatch, viterbi_module.ViterbiDecoder, "decode")
    reports = _run(spec, items)
    assert len(items) * 4 == DECODE_SLICE + 4
    assert decoded == [DECODE_SLICE, 4] * 2

    for item, report in zip(items, reports):
        alone = tuple(
            _alone(spec, replace(item, start_burst=burst, n_bursts=1)).outcomes[0]
            for burst in range(2)
        )
        assert report.outcomes == alone
    assert any(outcome.bit_errors for report in reports for outcome in report.outcomes)


def _one_slot_pool(n_workers):
    # A real forked pool that keeps one unit in flight: the runner sees
    # every completion before dispatching again, as with the serial queue.
    return MultiprocessingQueue(1, lookahead=1)


def _stats(result):
    return [
        (p.bit_errors, p.total_bits, p.frame_errors, p.n_bursts, p.early_stopped, p.decode_failures)
        for p in result.points
    ]


def test_runner_results_identical_across_queues_and_batch_sizes():
    # target_errors=1 stops a point at its first errored burst, where its
    # batch-local and global error counts agree, so the bursts simulated
    # are a pure function of the spec for any queue that sees each
    # completion before dispatching again.
    spec = SweepSpec(
        snr_db=(-10.0, 8.0, 14.0, 30.0),
        modulations=("qpsk",),
        stream_counts=(2,),
        n_info_bits=48,
        n_bursts=5,
        target_errors=1,
        base_seed=8,
    )
    reference = SweepRunner(spec, n_workers=1, batch_size=1, cache=None, queue="serial").run()
    assert any(p.early_stopped for p in reference.points)
    assert not all(p.early_stopped for p in reference.points)

    for batch_size in (1, 3, 10):
        for queue in ("serial", _one_slot_pool):
            result = SweepRunner(
                spec, n_workers=1, batch_size=batch_size, cache=None, queue=queue
            ).run()
            assert _stats(result) == _stats(reference)
            assert result.n_bursts_simulated == reference.n_bursts_simulated
        # A wider pool may simulate bursts past a point's stop (in flight
        # when it crossed); the fold discards them.
        pooled = SweepRunner(
            spec, n_workers=2, batch_size=batch_size, cache=None, queue="process"
        ).run()
        assert _stats(pooled) == _stats(reference)
        assert pooled.n_bursts_simulated >= reference.n_bursts_simulated


def test_mid_round_give_up_reports_each_item_as_if_run_alone():
    # The -20 dB item sits between two clean ones.  With a CFO to estimate,
    # its bursts are given up on (sync misses and late locks the CFO
    # estimator rejects) inside the stacked front end, and only that
    # item's frames are lost.
    spec = SweepSpec(
        snr_db=(30.0, -20.0, 25.0),
        modulations=("qpsk",),
        stream_counts=(2,),
        channels=("flat_rayleigh",),
        impairments=(ImpairmentSpec(cfo_normalized=1e-3),),
        n_info_bits=48,
        n_bursts=6,
        target_errors=None,
        base_seed=3,
    )
    items = [_item(spec, point, 0, 6, point.index) for point in spec.points()]
    reports = _run(spec, items)

    assert [_without_timing(r) for r in reports] == [
        _without_timing(_alone(spec, item)) for item in items
    ]
    failures = [sum(outcome.decode_failure for outcome in r.outcomes) for r in reports]
    assert failures[0] == failures[2] == 0
    assert failures[1] > 0


def _counting_calls(monkeypatch, function, *modules):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, function.__name__, counted)
    return calls


def test_cold_serial_run_keys_and_configures_each_point_once(tmp_path, monkeypatch):
    # Per point: one store key (SweepPoint.content_key) and one air key,
    # both content hashes, and one build_config -- however many batches
    # and units the point's bursts take.
    spec = SweepSpec(
        snr_db=(10.0, 20.0, 30.0),
        modulations=("qpsk",),
        detectors=("zf", "mmse"),
        stream_counts=(2,),
        n_info_bits=48,
        n_bursts=2,
        target_errors=None,
    )
    hashes = _counting_calls(monkeypatch, cache_module.content_key, cache_module, engine_module)
    configs = _counting_calls(monkeypatch, engine_module.build_config, engine_module, runner_module)
    result = SweepRunner(
        spec, n_workers=1, batch_size=1, cache=ResultStore(tmp_path), queue="serial"
    ).run()
    assert result.n_bursts_simulated == spec.n_points * spec.n_bursts
    assert len(hashes) == 2 * spec.n_points
    assert len(configs) == spec.n_points
