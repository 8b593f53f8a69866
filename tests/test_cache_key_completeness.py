"""Cache-key completeness: every spec field reaches the keys it must.

Enumerates ``dataclasses.fields`` of :class:`SweepSpec`,
:class:`ImpairmentSpec` and :class:`SweepPoint` and asserts the caching
contracts hold at runtime: every field round-trips through
``to_dict``/``from_dict``, every field perturbs the serialization it is
supposed to reach (``seed_payload``, ``content_key``), and
the deliberately-absent fields stay absent.  A spec field that could
silently alias cached points fails here.  ``TestTheCheckerItself`` proves
the perturbation helpers catch a forgotten field.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.fixedpoint import SAMPLE_FORMAT_16BIT, FixedPointFormat
from repro.modulation.constellations import Modulation
from repro.sim.engine import air_key
from repro.sim.spec import CHANNEL_MODELS, DETECTORS, ImpairmentSpec, SweepPoint, SweepSpec

#: SweepPoint fields contractually absent from the physics identity.
POINT_SEED_EXEMPT = {"index", "detector"}

#: SweepSpec fields contractually absent from the physics identity:
#: budget/receiver knobs plus the axis tuples (their values reach the
#: payload through the expanded point).
SPEC_AXIS_FIELDS = {
    "snr_db",
    "modulations",
    "code_rates",
    "stream_counts",
    "channels",
    "detectors",
    "impairments",
}
SPEC_SEED_EXEMPT = SPEC_AXIS_FIELDS | {"n_bursts", "target_errors", "soft_decision"}


def perturb(name: str, value):
    """A valid, different value for one dataclass field."""
    if name == "impairments":
        return tuple(value) + (ImpairmentSpec(sample_delay=3),)
    if name == "impairment":
        return ImpairmentSpec(sample_delay=3)
    if name == "fft_size":
        return value * 2
    if name in {"tx_format", "rx_format", "rx_multiplier_format"}:
        return SAMPLE_FORMAT_16BIT if value is None else None
    if isinstance(value, tuple):
        return tuple(value) + (value[0],)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, str):
        alternates = {
            "modulation": "qpsk",
            "code_rate": "3/4",
            "channel": "ideal",
            "detector": "mmse",
        }
        replacement = alternates.get(name, value + "x")
        return replacement if replacement != value else "bpsk"
    if value is None:
        return 1
    raise TypeError(f"no perturbation for {name}={value!r}")


def variants(cls, base):
    """(field_name, perturbed_instance) for every dataclass field."""
    for f in dataclasses.fields(cls):
        yield f.name, dataclasses.replace(
            base, **{f.name: perturb(f.name, getattr(base, f.name))}
        )


def unmoved_fields(cls, base, serializer):
    """Fields whose perturbation leaves ``serializer(instance)`` unchanged."""
    baseline = serializer(base)
    return [name for name, variant in variants(cls, base) if serializer(variant) == baseline]


class TestTheCheckerItself:
    def test_a_toy_spec_with_a_forgotten_axis_is_caught(self):
        @dataclasses.dataclass(frozen=True)
        class ToySpec:
            snr_db: float = 0.0
            new_axis: int = 0

            def key(self):
                return f"key-{self.snr_db}"  # forgot new_axis

        assert unmoved_fields(ToySpec, ToySpec(), ToySpec.key) == ["new_axis"]

    def test_a_serializer_that_drops_fft_size_is_caught(self):
        def without_fft_size(spec):
            return {k: v for k, v in spec.to_dict().items() if k != "fft_size"}

        assert unmoved_fields(SweepSpec, SweepSpec(), without_fft_size) == ["fft_size"]

    def test_a_payload_that_leaks_the_grid_index_is_caught(self):
        spec = SweepSpec()
        point = spec.points()[0]

        def leaky(p):
            return {**p.seed_payload(spec), "index": p.index}

        # ``index`` now moves the payload, which would break cross-grid sharing.
        assert set(unmoved_fields(SweepPoint, point, leaky)) == POINT_SEED_EXEMPT - {"index"}


class TestRoundTrips:
    @pytest.mark.parametrize(
        "cls, instance",
        [
            (SweepSpec, SweepSpec()),
            (ImpairmentSpec, ImpairmentSpec()),
            (ImpairmentSpec, ImpairmentSpec.paper_frontend(cfo_normalized=1e-4)),
        ],
        ids=["spec", "impairment-default", "impairment-paper"],
    )
    def test_to_dict_covers_every_field_and_round_trips(self, cls, instance):
        payload = instance.to_dict()
        assert set(payload) == {f.name for f in dataclasses.fields(cls)}
        assert cls.from_dict(payload) == instance

    def test_point_to_dict_covers_every_field_and_round_trips(self):
        point = SweepSpec(impairments=(ImpairmentSpec(sample_delay=2),)).points()[0]
        payload = point.to_dict()
        assert set(payload) == {f.name for f in dataclasses.fields(SweepPoint)}
        # The constructor turns the serialised impairment dict back into
        # an ImpairmentSpec.
        assert SweepPoint(**payload) == point


formats = st.none() | st.builds(
    FixedPointFormat,
    word_length=st.integers(4, 24),
    frac_bits=st.integers(0, 3),
)
finite = st.floats(-1e3, 1e3, allow_nan=False)
impairment_specs = st.builds(
    ImpairmentSpec,
    cfo_normalized=finite,
    sample_delay=st.integers(0, 64),
    iq_amplitude_db=finite,
    iq_phase_deg=finite,
    tx_format=formats,
    rx_format=formats,
    rx_multiplier_format=formats,
)
impairments = st.none() | impairment_specs
specs = st.builds(
    SweepSpec,
    snr_db=st.lists(finite, min_size=1, max_size=3).map(tuple),
    modulations=st.lists(st.sampled_from(["bpsk", "qpsk", "16qam", "64qam"]), min_size=1, max_size=2).map(tuple),
    code_rates=st.lists(st.sampled_from(["1/2", "2/3", "3/4"]), min_size=1, max_size=2).map(tuple),
    stream_counts=st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
    channels=st.lists(st.sampled_from(CHANNEL_MODELS), min_size=1, max_size=2).map(tuple),
    detectors=st.lists(st.sampled_from(DETECTORS), min_size=1, max_size=2).map(tuple),
    impairments=st.lists(impairments, min_size=1, max_size=2).map(tuple),
    n_info_bits=st.integers(1, 4096),
    n_bursts=st.integers(1, 1000),
    target_errors=st.none() | st.integers(1, 1000),
    base_seed=st.integers(0, 2**32),
    fresh_fading_per_burst=st.booleans(),
    known_timing=st.booleans(),
    fft_size=st.sampled_from([64, 128, 256, 512]),
    soft_decision=st.booleans(),
)


def _asdict(instance) -> dict:
    """``dataclasses.asdict``, plus the two constant quantiser entries that
    every :meth:`FixedPointFormat.to_dict` writes as well."""

    def factory(items) -> dict:
        payload = dict(items)
        if list(payload) == ["word_length", "frac_bits"]:
            payload.update(rounding="round", overflow="saturate")
        return payload

    return dataclasses.asdict(instance, dict_factory=factory)


class TestToDictMatchesAsdict:
    """The record path's ``to_dict`` methods give what ``dataclasses.asdict``
    gives, nested :class:`FixedPointFormat` and impairment dicts included."""

    @settings(max_examples=60, deadline=None)
    @given(specs)
    def test_spec_and_every_point(self, spec):
        assert spec.to_dict() == _asdict(spec)
        for point in spec.points():
            assert point.to_dict() == _asdict(point)

    @settings(max_examples=60, deadline=None)
    @given(impairment_specs)
    def test_impairment(self, impairment):
        assert impairment.to_dict() == _asdict(impairment)


class TestSeedPayloadContract:
    def test_physics_fields_perturb_seed_payload(self):
        spec = SweepSpec()
        point = spec.points()[0]
        unmoved = unmoved_fields(SweepPoint, point, lambda p: p.seed_payload(spec))
        # A field missing here would make two different cells draw identical
        # bursts; the exempt ones stay out so grids share stored points.
        assert set(unmoved) == POINT_SEED_EXEMPT

    def test_spec_fields_follow_the_budget_extension_contract(self):
        spec = SweepSpec()
        point = spec.points()[0]
        unmoved = unmoved_fields(SweepSpec, spec, point.seed_payload)
        # Axis values flow through the expanded point.  Budget knobs must not
        # re-roll burst streams (bigger budgets extend the same stream); any
        # other field missing would repeat bursts across different physics.
        assert set(unmoved) - SPEC_AXIS_FIELDS == SPEC_SEED_EXEMPT - SPEC_AXIS_FIELDS


class TestContentKeyCompleteness:
    def test_every_point_field_but_index_perturbs_content_key(self):
        spec = SweepSpec()
        point = spec.points()[0]
        # Store records are grid-shape independent, so only ``index`` is out;
        # any other field missing would make two cells share one record.
        assert unmoved_fields(SweepPoint, point, lambda p: p.content_key(spec)) == ["index"]

    def test_every_scalar_spec_field_perturbs_content_key(self):
        spec = SweepSpec()
        point = spec.points()[0]
        unmoved = unmoved_fields(SweepSpec, spec, point.content_key)
        # Records for different budgets/physics would alias in the store.
        assert set(unmoved) - SPEC_AXIS_FIELDS == set()

    def test_every_impairment_field_perturbs_content_key(self):
        spec = SweepSpec()
        base_point = dataclasses.replace(
            spec.points()[0], impairment=ImpairmentSpec()
        )

        def key(impairment):
            return dataclasses.replace(base_point, impairment=impairment).content_key(spec)

        # Two front-end conditions would share one store record.
        assert unmoved_fields(ImpairmentSpec, ImpairmentSpec(), key) == []

    def test_extra_bursts_key_refined_records_separately(self):
        spec = SweepSpec()
        point = spec.points()[0]
        assert point.content_key(spec, extra_bursts=0) != point.content_key(
            spec, extra_bursts=50
        )

    @pytest.mark.parametrize(
        "alias, canonical",
        [(m.upper(), m.value) for m in Modulation]
        + [(f" {m.value}-", m.value) for m in Modulation]
        + [(m, m.value) for m in Modulation]
        + [
            ("QAM16", "16qam"),
            ("qam16", "16qam"),
            ("16-QAM", "16qam"),
            ("qam_16", "16qam"),
            ("QAM64", "64qam"),
            ("qam64", "64qam"),
            ("64-QAM", "64qam"),
        ],
    )
    def test_modulation_aliases_key_their_canonical_cell(self, alias, canonical):
        # An alias is the same physical cell: the same bursts on air and
        # the same store record as its canonical name.
        spec = SweepSpec(modulations=(alias,))
        reference = SweepSpec(modulations=(canonical,))
        point, reference_point = spec.points()[0], reference.points()[0]
        assert spec.modulations == (canonical,)
        assert air_key(point, spec) == air_key(reference_point, reference)
        assert point.content_key(spec) == reference_point.content_key(reference)


class TestPinnedKeyFormat:
    """Literal keys: any drift in the key payloads or their hashing fails here.

    Stores written by earlier versions resume only while these literals
    hold.  An ``ENGINE_VERSION`` bump must change every one of them (it
    is meant to orphan every old record), so update them together with it.
    The fixed-point point hashes its formats' ``to_dict`` entries, so its
    keys also pin that payload.
    """

    SPEC = SweepSpec(
        snr_db=(10.0, 20.0),
        modulations=("qpsk",),
        stream_counts=(2,),
        n_info_bits=64,
        n_bursts=4,
        base_seed=7,
    )

    def test_point_content_key(self):
        point = self.SPEC.points()[1]
        assert point.content_key(self.SPEC) == "pt-a8aca9a79220ccf9c235"

    def test_refined_point_content_key(self):
        point = self.SPEC.points()[1]
        assert point.content_key(self.SPEC, extra_bursts=6) == "pt-edf25049c0ea6aaa2f38"

    FIXED_POINT_SPEC = dataclasses.replace(
        SPEC, impairments=(ImpairmentSpec.paper_frontend(),)
    )

    def test_fixed_point_content_key(self):
        point = self.FIXED_POINT_SPEC.points()[1]
        assert point.content_key(self.FIXED_POINT_SPEC) == "pt-21580e87181003b0aa54"

    def test_fixed_point_air_key(self):
        point = self.FIXED_POINT_SPEC.points()[1]
        assert air_key(point, self.FIXED_POINT_SPEC) == "a2c998e9cf48f268c4d5"

    @pytest.mark.parametrize(
        "word_length, frac_bits",
        [(16, 14), (np.int64(16), np.int64(14)), (np.int16(16), 14)],
        ids=["int", "int64", "int16"],
    )
    def test_a_format_keys_by_its_value_not_its_type(self, word_length, frac_bits):
        # Formats are stored as Python ints, so equal formats key one point.
        spec = SweepSpec(
            impairments=(ImpairmentSpec(rx_format=FixedPointFormat(word_length, frac_bits)),)
        )
        assert spec.points()[0].content_key(spec) == "pt-2450d362a55478cc6e90"
