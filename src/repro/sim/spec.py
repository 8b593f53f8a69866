"""Typed sweep descriptions and results for the batched simulation engine.

A :class:`SweepSpec` declares a grid of link-simulation operating points —
the Cartesian product of SNR, modulation, code rate, stream count, channel
model, detector and front-end impairment axes — together with the per-point
burst budget, the early-stopping error target and the base seed.
:meth:`SweepSpec.points` expands the grid into :class:`SweepPoint` cells;
the :class:`~repro.sim.runner.SweepRunner` simulates each cell into a
:class:`SweepPointResult` and aggregates them into a :class:`SweepResult`.

:class:`ImpairmentSpec` describes one front-end condition — carrier
frequency offset, sample-timing delay, IQ imbalance and fixed-point
quantisation — so the paper's "survives real front-end conditions" claims
(BER vs CFO, BER vs word length) are sweepable exactly like SNR or
modulation; ``None`` on the axis is the ideal front end.

Specs, points and point results are frozen dataclasses: they pickle into
the multiprocessing workers as they are, and the per-point result store
(:mod:`repro.sim.store`) keys and records their ``to_dict`` forms — a
point's store key hashes its canonical JSON (:meth:`SweepPoint.content_key`),
and a stored point result is rebuilt without re-running a single burst.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.convolutional import CodeRate
from repro.core.config import OfdmNumerology
from repro.dsp.backend import DSP_ARITHMETIC
from repro.dsp.fixedpoint import (
    FixedPointFormat,
    MULTIPLIER_FORMAT_18BIT,
    SAMPLE_FORMAT_16BIT,
)
from repro.exceptions import ConfigurationError
from repro.modulation.constellations import Modulation

#: Bumped whenever the engine's statistics change meaning, so stale cache
#: entries from an older engine can never be mistaken for fresh results.
#: Version 2: front-end impairment axes (the expansion order of the grid
#: gained an axis, so every point's RNG stream moved).
#: Version 3: SNR calibrated against occupied-sample signal power (delay
#: padding and idle tails no longer dilute it), the receive-mixer IQ
#: imbalance moved after noise injection, and receivers use the exact
#: injected noise variance instead of re-measuring the noisy output.
#: Version 4: burst RNG streams are keyed by the point's *content*
#: (:meth:`SweepPoint.seed_payload`) instead of its grid index, so the same
#: physical cell simulates identically in any grid — the property that lets
#: overlapping sweeps share per-point records in the result store.
ENGINE_VERSION = 4

#: Channel models the engine knows how to build (see ``repro.sim.engine``).
CHANNEL_MODELS = ("ideal", "flat_rayleigh", "frequency_selective")

#: Detector choices, matching ``TransceiverConfig.detector``.
DETECTORS = ("zf", "mmse")


def _field_values(instance) -> dict:
    """Every dataclass field of ``instance`` by name, one level deep.

    The record path's ``to_dict`` methods build on this and convert their
    own nested dataclasses, which is what ``dataclasses.asdict`` gives
    without its recursive walk and deep copies.
    """
    return {item.name: getattr(instance, item.name) for item in fields(instance)}


def integer_at_least(name: str, value, minimum: int) -> int:
    """``value``, a Python or numpy integer of at least ``minimum``, as an
    ``int`` (so no equal value of another type hashes to another key);
    anything else raises :class:`~repro.exceptions.ConfigurationError`."""
    if not isinstance(value, (int, np.integer)) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _as_tuple(value, caster) -> tuple:
    """Normalise a scalar, sequence or numpy-array axis into a tuple."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        return (caster(value),)
    return tuple(caster(item) for item in value)


@dataclass(frozen=True)
class ImpairmentSpec:
    """One front-end condition of the sweep's impairment axis.

    All defaults describe the ideal front end, so partial specs read
    naturally: ``ImpairmentSpec(cfo_normalized=1e-3)`` is "CFO only".

    Parameters
    ----------
    cfo_normalized:
        Carrier-frequency offset in cycles per sample (the paper's 100 MHz
        clock makes ``1e-4`` a 10 kHz offset).  A non-zero value makes the
        engine enable the receiver's preamble-based CFO estimator
        (``TransceiverConfig.correct_cfo``).
    sample_delay:
        Integer sample-timing delay of the burst; exercises the time
        synchroniser's search.
    iq_amplitude_db / iq_phase_deg:
        Receive-mixer IQ amplitude (dB) and phase (degrees) imbalance.

    ``cfo_normalized``, ``iq_amplitude_db`` and ``iq_phase_deg`` must be
    finite: a NaN or infinite value raises
    :class:`~repro.exceptions.ConfigurationError` here rather than
    turning every burst of the sweep into a decode failure.
    tx_format:
        Optional :class:`~repro.dsp.fixedpoint.FixedPointFormat` quantising
        the transmit samples (the DAC word length).
    rx_format:
        Optional format quantising the received sample stream at the
        receiver input (``TransceiverConfig.rx_sample_format`` — the
        paper's 16-bit I/Q interface).
    rx_multiplier_format:
        Optional format quantising the receiver's FFT outputs
        (``TransceiverConfig.rx_multiplier_format`` — the paper's 18-bit
        embedded multipliers).
    """

    cfo_normalized: float = 0.0
    sample_delay: int = 0
    iq_amplitude_db: float = 0.0
    iq_phase_deg: float = 0.0
    tx_format: Optional[FixedPointFormat] = None
    rx_format: Optional[FixedPointFormat] = None
    rx_multiplier_format: Optional[FixedPointFormat] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cfo_normalized", float(self.cfo_normalized))
        object.__setattr__(self, "sample_delay", int(self.sample_delay))
        object.__setattr__(self, "iq_amplitude_db", float(self.iq_amplitude_db))
        object.__setattr__(self, "iq_phase_deg", float(self.iq_phase_deg))
        for name in ("cfo_normalized", "iq_amplitude_db", "iq_phase_deg"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.sample_delay < 0:
            raise ConfigurationError("sample_delay must be non-negative")
        for name in ("tx_format", "rx_format", "rx_multiplier_format"):
            object.__setattr__(
                self, name, FixedPointFormat.coerce(getattr(self, name), name)
            )

    # ------------------------------------------------------------------
    @property
    def is_ideal(self) -> bool:
        """True when every field sits at its ideal-front-end default."""
        return self == ImpairmentSpec()

    @classmethod
    def quantized(cls, word_length: int, **changes) -> "ImpairmentSpec":
        """Symmetric TX/RX sample quantisation at ``word_length`` bits.

        Uses ``Q(word_length, word_length - 2)`` — the paper's 16-bit
        sample format shrunk bit by bit while keeping its ±2.0 full-scale
        range — which is what a BER-vs-word-length sensitivity curve wants.
        Extra keyword arguments set other impairment fields.
        """
        fmt = FixedPointFormat(word_length=word_length, frac_bits=word_length - 2)
        return cls(tx_format=fmt, rx_format=fmt, **changes)

    @classmethod
    def paper_frontend(cls, **changes) -> "ImpairmentSpec":
        """The paper's fixed-point interfaces: 16-bit samples, 18-bit multipliers."""
        return cls(
            tx_format=SAMPLE_FORMAT_16BIT,
            rx_format=SAMPLE_FORMAT_16BIT,
            rx_multiplier_format=MULTIPLIER_FORMAT_18BIT,
            **changes,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON representation (nested formats become dicts)."""
        payload = _field_values(self)
        for name in ("tx_format", "rx_format", "rx_multiplier_format"):
            if payload[name] is not None:
                payload[name] = payload[name].to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ImpairmentSpec":
        """Rebuild a spec from :meth:`to_dict` output (loss-free)."""
        return cls(**payload)


def _as_impairment(value) -> Optional[ImpairmentSpec]:
    """Normalise one impairment-axis entry (``None`` = ideal front end)."""
    if value is None or isinstance(value, ImpairmentSpec):
        return value
    if isinstance(value, dict):
        return ImpairmentSpec.from_dict(value)
    raise ConfigurationError(
        f"impairments entries must be ImpairmentSpec, dict or None, got {value!r}"
    )


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a link-level sweep.

    Grid axes (each accepts a scalar or a sequence; the grid is their
    Cartesian product):

    snr_db:
        SNR points in dB, each finite: ``None``, NaN and infinity are not
        allowed — use a very high SNR for a quasi-noiseless point.
    modulations:
        Constellations, e.g. ``("bpsk", "qpsk", "16qam", "64qam")``.
    code_rates:
        Convolutional code rates, e.g. ``("1/2", "2/3", "3/4")``.
    stream_counts:
        Antenna/stream counts of the square MIMO system (4 is the paper's).
    channels:
        Channel models: ``"ideal"``, ``"flat_rayleigh"`` or
        ``"frequency_selective"``.
    detectors:
        MIMO detectors: ``"zf"`` (paper) or ``"mmse"`` (baseline).
    impairments:
        Front-end conditions: :class:`ImpairmentSpec` instances (or their
        ``to_dict`` payloads), with ``None`` meaning the ideal front end.
        Like every other axis this participates in the Cartesian product,
        so BER-vs-CFO or BER-vs-word-length sensitivity grids are one spec.

    Per-point simulation budget:

    n_info_bits:
        Information bits per spatial stream per burst.
    n_bursts:
        Maximum bursts per grid point.
    target_errors:
        Early-stopping threshold: once a point has accumulated this many
        bit errors its BER estimate is statistically settled and no more
        bursts are simulated for it.  ``None`` disables early stopping.

    Reproducibility and physics knobs:

    base_seed:
        Root of the deterministic per-(point, batch) seed tree.  Two runs
        of the same spec produce identical results regardless of worker
        count or scheduling.
    fresh_fading_per_burst:
        When True (default) every burst sees an independent fading
        realisation (Monte-Carlo over the channel ensemble); when False one
        fading realisation — seeded only by ``base_seed`` and the antenna
        count — is shared by all bursts, all SNR points and all
        modulations, which is what a classic waterfall plot over a single
        channel draw wants.
    known_timing:
        Bypass time synchronisation and hand the receiver the true LTS
        position (isolates detection/decoding from sync errors).
    fft_size / soft_decision:
        Forwarded to :class:`~repro.core.config.TransceiverConfig`.

    The integer fields must be positive integers (``base_seed`` may be 0),
    as :func:`integer_at_least` checks.
    """

    snr_db: Tuple[float, ...] = (20.0,)
    modulations: Tuple[str, ...] = ("16qam",)
    code_rates: Tuple[str, ...] = ("1/2",)
    stream_counts: Tuple[int, ...] = (4,)
    channels: Tuple[str, ...] = ("flat_rayleigh",)
    detectors: Tuple[str, ...] = ("zf",)
    impairments: Tuple[Optional[ImpairmentSpec], ...] = (None,)
    n_info_bits: int = 512
    n_bursts: int = 100
    target_errors: Optional[int] = 100
    base_seed: int = 0
    fresh_fading_per_burst: bool = True
    known_timing: bool = False
    fft_size: int = 64
    soft_decision: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr_db", _as_tuple(self.snr_db, float))
        object.__setattr__(self, "modulations", _as_tuple(self.modulations, str))
        object.__setattr__(self, "code_rates", _as_tuple(self.code_rates, str))
        object.__setattr__(self, "stream_counts", _as_tuple(self.stream_counts, int))
        object.__setattr__(self, "channels", _as_tuple(self.channels, str))
        object.__setattr__(self, "detectors", _as_tuple(self.detectors, str))
        object.__setattr__(
            self, "impairments", _as_tuple(self.impairments, _as_impairment)
        )
        for name in ("n_info_bits", "n_bursts", "target_errors", "base_seed", "fft_size"):
            value = getattr(self, name)
            if value is not None or name != "target_errors":
                minimum = 0 if name == "base_seed" else 1
                object.__setattr__(self, name, integer_at_least(name, value, minimum))
        # Parse the axes the worker parses, but keep the strings as given:
        # they are part of every point's store key.
        for modulation in self.modulations:
            Modulation.from_any(modulation)
        for code_rate in self.code_rates:
            CodeRate(code_rate)
        OfdmNumerology.for_fft_size(self.fft_size)
        for channel in self.channels:
            if channel not in CHANNEL_MODELS:
                raise ConfigurationError(
                    f"unknown channel model {channel!r}; expected one of {CHANNEL_MODELS}"
                )
        for detector in self.detectors:
            if detector not in DETECTORS:
                raise ConfigurationError(
                    f"unknown detector {detector!r}; expected one of {DETECTORS}"
                )
        if not self.snr_db:
            raise ConfigurationError("the sweep needs at least one SNR point")
        if not np.all(np.isfinite(self.snr_db)):
            raise ConfigurationError(f"SNR points must be finite, got {self.snr_db}")
        if not self.impairments:
            raise ConfigurationError(
                "the sweep needs at least one impairment entry (None = ideal)"
            )

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Number of grid cells the spec expands to."""
        return (
            len(self.modulations)
            * len(self.code_rates)
            * len(self.stream_counts)
            * len(self.channels)
            * len(self.detectors)
            * len(self.impairments)
            * len(self.snr_db)
        )

    def points(self) -> List["SweepPoint"]:
        """Expand the grid into its cells (SNR varies fastest).

        Since engine version 4 the expansion order is presentation only:
        each cell's RNG streams are keyed by its *content*
        (:meth:`SweepPoint.seed_payload`), so reordering or subsetting the
        axes leaves every cell's simulated physics — and its result-store
        record — unchanged.
        """
        cells = itertools.product(
            self.modulations,
            self.code_rates,
            self.stream_counts,
            self.channels,
            self.detectors,
            self.impairments,
            self.snr_db,
        )
        return [
            SweepPoint(
                index=index,
                modulation=modulation,
                code_rate=code_rate,
                n_streams=n_streams,
                channel=channel,
                detector=detector,
                snr_db=snr,
                impairment=impairment,
            )
            for index, (
                modulation,
                code_rate,
                n_streams,
                channel,
                detector,
                impairment,
                snr,
            ) in enumerate(cells)
        ]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain representation: axes stay tuples, impairments become dicts."""
        payload = _field_values(self)
        payload["impairments"] = tuple(
            None if impairment is None else impairment.to_dict()
            for impairment in self.impairments
        )
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(**payload)

    def subset(self, **changes) -> "SweepSpec":
        """A copy of the spec with some fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid (``impairment=None`` = ideal front end)."""

    index: int
    modulation: str
    code_rate: str
    n_streams: int
    channel: str
    detector: str
    snr_db: float
    impairment: Optional[ImpairmentSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "impairment", _as_impairment(self.impairment))

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        payload = _field_values(self)
        if self.impairment is not None:
            payload["impairment"] = self.impairment.to_dict()
        return payload

    # ------------------------------------------------------------------
    def seed_payload(self, spec: "SweepSpec") -> dict:
        """The cell's *physics identity* — everything that shapes its RNG draws.

        This payload seeds the point's burst streams
        (:func:`repro.sim.engine.burst_seed`), so it contains exactly the
        fields that change what payload, fading and noise get drawn — and
        nothing else.  Deliberately absent:

        * the grid ``index`` and the axis order — the same physical cell
          must simulate identically in any grid, or overlapping sweeps
          could not share per-point results;
        * budget knobs (``n_bursts``, ``target_errors``) — a bigger budget
          extends the same burst stream instead of re-rolling it, which is
          what lets adaptive refinement append bursts to a stored point;
        * ``detector`` and ``soft_decision`` — the receive half.  Points
          that differ only there share this payload, and so every burst:
          the same payload bits, fading and noise, so ZF and MMSE (or hard
          and soft decoding) are compared over identical noise
          realisations.  ZF and MMSE twins also share an air group
          (:meth:`repro.core.config.TransceiverConfig.air_group`): the
          engine's work unit puts each of their bursts on air and through
          the shared receive stage once, then detects it once per
          detector.
        """
        return {
            "base_seed": spec.base_seed,
            "modulation": self.modulation,
            "code_rate": self.code_rate,
            "n_streams": self.n_streams,
            "channel": self.channel,
            "snr_db": self.snr_db,
            "impairment": self.impairment.to_dict() if self.impairment else None,
            "n_info_bits": spec.n_info_bits,
            "fresh_fading_per_burst": spec.fresh_fading_per_burst,
            "known_timing": spec.known_timing,
            "fft_size": spec.fft_size,
        }

    def content_key(self, spec: "SweepSpec", extra_bursts: int = 0) -> str:
        """Stable store key of the cell's result record.

        Extends :meth:`seed_payload` with everything else that determines
        the *reported statistics*: the receiver-side knobs (``detector``,
        ``soft_decision``), the budget contract (``n_bursts``,
        ``target_errors``), the engine version and the constant
        transform-arithmetic name (kept so that older stores resume).
        Two grids hashing a cell to the same key are guaranteed the same
        folded counts, so the record is shared; ``extra_bursts`` keys the
        refined records adaptive mode appends on top of the base budget.
        """
        from repro.sim.cache import content_key as _content_key

        payload = {
            "record": "sweep-point",
            "engine_version": ENGINE_VERSION,
            "dsp_backend": DSP_ARITHMETIC,
            **self.seed_payload(spec),
            "detector": self.detector,
            "soft_decision": spec.soft_decision,
            "n_bursts": spec.n_bursts,
            "target_errors": spec.target_errors,
            "extra_bursts": int(extra_bursts),
        }
        return _content_key(payload, prefix="pt-")


@dataclass(frozen=True)
class SweepPointResult:
    """Aggregate link statistics of one simulated grid point.

    ``decode_failures`` counts bursts the receiver gave up on entirely
    (time-sync miss deep in the noise); each is folded into the BER/PER
    statistics as a fully errored frame.
    """

    point: SweepPoint
    bit_errors: int
    total_bits: int
    frame_errors: int
    n_bursts: int
    early_stopped: bool
    decode_failures: int = 0

    @property
    def bit_error_rate(self) -> float:
        """Monte-Carlo BER estimate of the point."""
        return self.bit_errors / self.total_bits if self.total_bits else 0.0

    @property
    def packet_error_rate(self) -> float:
        """Fraction of simulated bursts with at least one bit error."""
        return self.frame_errors / self.n_bursts if self.n_bursts else 0.0

    def ber_interval(
        self, confidence: float = 0.95, method: str = "wilson"
    ) -> Tuple[float, float]:
        """Confidence interval on the point's BER (see :mod:`repro.sim.stats`).

        ``method`` is ``"wilson"`` (default) or ``"clopper-pearson"``.
        Adaptive refinement allocates extra bursts where this interval is
        widest.
        """
        from repro.sim.stats import ber_interval

        return ber_interval(self.bit_errors, self.total_bits, confidence, method)

    def ber_interval_width(
        self, confidence: float = 0.95, method: str = "wilson"
    ) -> float:
        """Width of :meth:`ber_interval` — the refinement mode's priority."""
        low, high = self.ber_interval(confidence, method)
        return high - low

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        payload = _field_values(self)
        payload["point"] = self.point.to_dict()
        return payload


@dataclass
class SweepResult:
    """Outcome of a whole sweep.

    Attributes
    ----------
    spec:
        The spec that produced the result.
    points:
        One :class:`SweepPointResult` per grid cell, in grid order.
    elapsed_s:
        Wall-clock time of *this* call — near zero when every point was
        served from the result store.
    from_cache:
        True when every point was served from the result store without
        simulating a burst.
    n_bursts_simulated:
        Bursts actually simulated by *this* call — 0 on a cache hit, and
        potentially far below ``spec.n_bursts * n_points`` when early
        stopping kicks in.
    """

    spec: SweepSpec
    points: List[SweepPointResult] = field(default_factory=list)
    elapsed_s: float = 0.0
    from_cache: bool = False
    n_bursts_simulated: int = 0

    # ------------------------------------------------------------------
    def _curve(self, metric: str, filters: dict) -> Dict[float, float]:
        """A per-SNR curve of one :class:`SweepPointResult` metric."""
        curve: Dict[float, float] = {}
        for result in self.filter(**filters):
            snr = result.point.snr_db
            if snr in curve:
                raise ValueError(
                    f"{metric} curve filters leave more than one point per "
                    "SNR; add more filters"
                )
            curve[snr] = getattr(result, metric)
        return dict(sorted(curve.items()))

    def ber_curve(self, **filters) -> Dict[float, float]:
        """BER keyed by SNR for the points matching ``filters``.

        ``filters`` compare against :class:`SweepPoint` fields, e.g.
        ``result.ber_curve(modulation="16qam", detector="zf")``.  Raises if
        the filter leaves more than one point per SNR (an ambiguous curve).
        """
        return self._curve("bit_error_rate", filters)

    def per_curve(self, **filters) -> Dict[float, float]:
        """Packet-error rate keyed by SNR for the points matching ``filters``."""
        return self._curve("packet_error_rate", filters)

    def filter(self, **filters) -> List[SweepPointResult]:
        """Point results whose grid cell matches every filter field.

        Filters compare against :class:`SweepPoint` attributes by value, so
        ``impairment=ImpairmentSpec(...)`` (or ``impairment=None`` for the
        ideal front end) works like any string or numeric axis.
        """
        matched = []
        for result in self.points:
            point = result.point
            if all(
                getattr(point, key) == value for key, value in filters.items()
            ):
                matched.append(result)
        return matched
