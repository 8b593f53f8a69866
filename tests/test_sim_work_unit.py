"""The sweep engine's work unit: several same-config points, one trellis.

:func:`repro.sim.engine.simulate_batch` advances the items of a unit in
lockstep, running one burst of every live item through one stacked
receive front end and decoding all their code blocks together.  These
tests pin the contract that makes that invisible: every item reports
exactly what it reports when run on its own (also when the front end
gives up on one item's burst mid-round), an item that reaches
``target_errors`` stops simulating, the runner's results do not depend on
queue backend or batch size, and a unit larger than one decode slice
still decodes bit-exactly.
"""

import pytest

import repro.coding.viterbi as viterbi_module
from repro.core.receiver import DECODE_SLICE
from repro.core.transceiver import MimoTransceiver
from repro.exceptions import ConfigurationError
from repro.sim import ImpairmentSpec, SweepRunner, SweepSpec
from repro.sim.engine import simulate_batch
from repro.sim.queue import MultiprocessingQueue
from repro.sim.runner import _pack_units


def _items(spec, start_burst, n_bursts):
    return [
        {
            "point": point.to_dict(),
            "start_burst": start_burst,
            "n_bursts": n_bursts - point.index % 2,
            "batch_index": point.index,
        }
        for point in spec.points()
    ]


def _alone(spec, item):
    (report,) = simulate_batch({"spec": spec.to_dict(), "items": [item]})
    return report


def _without_timing(report):
    return {key: value for key, value in report.items() if key != "elapsed_s"}


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
    reports = simulate_batch({"spec": spec.to_dict(), "items": items})

    assert [_without_timing(r) for r in reports] == [
        _without_timing(_alone(spec, item)) for item in items
    ]
    bursts = [burst for report in reports for burst in report["bursts"]]
    assert any(burst["decode_failure"] for burst in bursts)
    assert any(burst["bit_errors"] and not burst["decode_failure"] for burst in bursts)
    if target_errors is None:
        assert [len(r["bursts"]) for r in reports] == [item["n_bursts"] for item in items]
    else:
        assert any(len(r["bursts"]) < item["n_bursts"] for r, item in zip(reports, items))


def _counting(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, first, *args, **kwargs):
        calls.append(len(first) if name == "decode" else 1)
        return original(self, first, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_item_past_its_error_target_stops_simulating(monkeypatch):
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
    items[1]["n_bursts"] = 4
    transmitted = _counting(monkeypatch, MimoTransceiver, "transmit_burst")
    decoded = _counting(monkeypatch, viterbi_module.ViterbiDecoder, "decode")
    reports = simulate_batch({"spec": spec.to_dict(), "items": items})

    assert [len(report["bursts"]) for report in reports] == [1, 4]
    assert len(transmitted) == 5
    # One trellis pass per lockstep round: both items, then the clean one.
    assert decoded == [4, 2, 2, 2]


def test_pack_units_groups_equal_config_and_batch_in_priority_order():
    wanting = [4, 0, 3, 1, 2, 5]
    configs = {0: "a", 1: "a", 2: "b", 3: "a", 4: "a", 5: "b"}
    batch_of = {0: 0, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0}
    assert _pack_units(wanting, configs, batch_of, 1) == [[4, 0, 1], [3], [2, 5]]
    # Four "a" points over capacity 2: at most two per unit.
    assert _pack_units(wanting, configs, batch_of, 2) == [[4, 0], [3], [1], [2], [5]]


def test_unit_rejects_items_of_different_configurations():
    spec = SweepSpec(
        snr_db=(20.0,), modulations=("qpsk", "16qam"), stream_counts=(2,), n_info_bits=48
    )
    with pytest.raises(ConfigurationError):
        simulate_batch({"spec": spec.to_dict(), "items": _items(spec, 0, 1)})


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
    items = [
        {"point": point.to_dict(), "start_burst": 0, "n_bursts": 2, "batch_index": 0}
        for point in spec.points()
    ]
    decoded = _counting(monkeypatch, viterbi_module.ViterbiDecoder, "decode")
    reports = simulate_batch({"spec": spec.to_dict(), "items": items})
    assert len(items) * 4 == DECODE_SLICE + 4
    assert decoded == [DECODE_SLICE, 4] * 2

    for item, report in zip(items, reports):
        alone = [
            _alone(spec, dict(item, start_burst=burst, n_bursts=1))["bursts"][0]
            for burst in range(2)
        ]
        assert report["bursts"] == alone
    assert any(burst["bit_errors"] for report in reports for burst in report["bursts"])


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
    items = [
        {"point": point.to_dict(), "start_burst": 0, "n_bursts": 6, "batch_index": point.index}
        for point in spec.points()
    ]
    reports = simulate_batch({"spec": spec.to_dict(), "items": items})

    assert [_without_timing(r) for r in reports] == [
        _without_timing(_alone(spec, item)) for item in items
    ]
    failures = [sum(burst["decode_failure"] for burst in r["bursts"]) for r in reports]
    assert failures[0] == failures[2] == 0
    assert failures[1] > 0
