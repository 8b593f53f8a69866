"""Per-symbol transceiver references: sync, map/modulate, LTS FFTs, equalise, pilots.

These are the one-unit-at-a-time transmit and receive loops the
production :class:`~repro.core.transmitter.MimoTransmitter` and
:class:`~repro.core.receiver.MimoReceiver` replaced with whole-burst
gathers, one planned FFT/IFFT, block pilot passes and one flat
(antenna, window) synchroniser argmax.  They reuse the production objects
only for stages that have a single implementation (FFT, quantiser,
interleaver, mapper, channel estimator, CFO estimator); every
batched stage is recomputed here one unit at a time, down to the
per-antenna synchroniser search, per-subcarrier MMSE solves and
per-symbol detection, per-symbol pilot insertion, serial demapper, Viterbi decoder, encoder and scrambler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.coding.interleaver import deinterleave, interleave
from repro.coding.scrambler import Scrambler
from repro.core.frame import ReceiveResult
from repro.core.pilots import PilotProcessor
from repro.core.receiver import TIMING_ADVANCE, MimoReceiver
from repro.core.transmitter import MimoTransmitter
from repro.dsp.fft import fft
from repro.exceptions import SynchronizationError
from repro.mimo.channel_estimation import ChannelEstimate

from reference.coding import encode_serial, scramble_serial, viterbi_decode_serial
from reference.dsp import ofdm_modulate
from reference.mimo import mmse_weights_serial
from reference.modulation import demap_serial


@dataclass(frozen=True)
class PilotCorrection:
    """Diagnostics of the pilot-based corrections for one OFDM symbol."""

    common_phase: float
    tau: float
    pilot_magnitude: float


def pilot_polarity(processor: PilotProcessor, symbol_index: int) -> float:
    """Pilot polarity ``p_n`` of OFDM symbol ``symbol_index``."""
    return float(processor._polarity[symbol_index % processor._polarity.size])


def pilot_values(processor: PilotProcessor, symbol_index: int) -> np.ndarray:
    """Pilot tone values of one OFDM symbol (base values times polarity)."""
    base = np.array(processor.numerology.pilot_values, dtype=np.complex128)
    return base * pilot_polarity(processor, symbol_index)


def extract_pilots(processor: PilotProcessor, frequency_domain: np.ndarray) -> np.ndarray:
    """The pilot subcarriers of one frequency-domain symbol."""
    symbol = np.asarray(frequency_domain, dtype=np.complex128)
    return symbol[list(processor.numerology.pilot_bins)]


def _logical_indices(fft_size: int) -> np.ndarray:
    logical = np.arange(fft_size, dtype=np.float64)
    logical[logical > fft_size / 2] -= fft_size
    return logical


def insert_pilots_serial(
    processor: PilotProcessor, frequency_domain: np.ndarray, symbol_index: int
) -> np.ndarray:
    """Write the pilots of symbol ``symbol_index`` into one frequency-domain symbol."""
    symbol = np.asarray(frequency_domain, dtype=np.complex128).copy()
    if symbol.size != processor.numerology.fft_size:
        raise ValueError("frequency-domain symbol has the wrong length")
    symbol[list(processor.numerology.pilot_bins)] = pilot_values(processor, symbol_index)
    return symbol


def correct_pilots_serial(
    processor: PilotProcessor, frequency_domain: np.ndarray, symbol_index: int
) -> Tuple[np.ndarray, PilotCorrection]:
    """Common-phase and timing (tau) correction of one OFDM symbol."""
    numerology = processor.numerology
    symbol = np.asarray(frequency_domain, dtype=np.complex128).copy()
    if symbol.size != numerology.fft_size:
        raise ValueError("frequency-domain symbol has the wrong length")
    expected = pilot_values(processor, symbol_index)
    measured = extract_pilots(processor, symbol)

    correlation = np.sum(measured * np.conj(expected))
    if np.abs(correlation) == 0:
        return symbol, PilotCorrection(common_phase=0.0, tau=0.0, pilot_magnitude=0.0)
    common_phase = float(np.angle(correlation))
    symbol = symbol * np.exp(-1j * common_phase)

    measured = extract_pilots(processor, symbol)
    pilot_indices = np.array(numerology.pilot_logical, dtype=np.float64)
    phases = np.angle(measured * np.conj(expected))
    weights = np.abs(measured)
    denom = float(np.sum(weights * pilot_indices * pilot_indices))
    tau = float(np.sum(weights * pilot_indices * phases) / denom) if denom else 0.0

    symbol = symbol * np.exp(-1j * tau * _logical_indices(numerology.fft_size))
    magnitude = float(np.mean(np.abs(measured)))
    return symbol, PilotCorrection(
        common_phase=common_phase, tau=tau, pilot_magnitude=magnitude
    )


def transmit_serial(
    transmitter: MimoTransmitter, stream_bits: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """``(samples, frequency_symbols, padded coded bits)`` of one burst.

    Every stream is scrambled and encoded bit by bit, then interleaved,
    mapped, pilot-inserted and IFFT'd one OFDM symbol at a time.
    """
    config = transmitter.config
    n_cbps = config.coded_bits_per_symbol
    n_bpsc = config.bits_per_subcarrier
    fft_size = config.fft_size
    cp = config.cyclic_prefix_length
    data_bins = list(transmitter.numerology.data_bins)

    coded = []
    for bits in stream_bits:
        info = scramble_serial(Scrambler(), np.asarray(bits, dtype=np.uint8))
        coded.append(encode_serial(transmitter.code, info))
    n_symbols = max(-(-bits.size // n_cbps) for bits in coded)
    padded = []
    for bits in coded:
        full = np.zeros(n_symbols * n_cbps, dtype=np.uint8)
        full[: bits.size] = bits
        padded.append(full)

    n_streams = len(padded)
    frequency_symbols = np.zeros((n_streams, n_symbols, fft_size), dtype=np.complex128)
    preamble = transmitter.preamble.mimo_preamble(n_streams)
    data_start = preamble.shape[1]
    data_end = data_start + n_symbols * config.samples_per_symbol
    samples = np.zeros((n_streams, data_end + cp), dtype=np.complex128)
    samples[:, :data_start] = preamble
    for stream, bits in enumerate(padded):
        for n in range(n_symbols):
            block = interleave(bits[n * n_cbps : (n + 1) * n_cbps], n_cbps, n_bpsc)
            frequency = np.zeros(fft_size, dtype=np.complex128)
            frequency[data_bins] = transmitter.mapper.map_bits(block)
            frequency_symbols[stream, n] = insert_pilots_serial(
                transmitter.pilots, frequency, n
            )
        samples[stream, data_start:data_end] = np.concatenate(
            [ofdm_modulate(symbol, cp) for symbol in frequency_symbols[stream]]
        )
    return samples, frequency_symbols, padded


def normalized_metric_serial(reference: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """One antenna's energy-normalised correlation metric per window."""
    stream = np.asarray(samples, dtype=np.complex128).ravel()
    magnitude = np.abs(np.correlate(stream, np.conj(reference), mode="valid"))
    window_energy = np.convolve(
        np.abs(stream) ** 2,
        np.ones(reference.size),
        mode="valid",
    )
    reference_energy = float(np.sum(np.abs(reference) ** 2))
    with np.errstate(invalid="ignore", over="ignore"):
        metric = magnitude / np.sqrt(
            np.maximum(window_energy * reference_energy, 1e-30)
        )
    metric[~np.isfinite(metric)] = 0.0
    return metric


def synchronize_serial(receiver: MimoReceiver, samples: np.ndarray) -> int:
    """LTS start from a per-antenna peak search; the strictly strongest antenna wins."""
    synchronizer = receiver.synchronizer
    streams = np.asarray(samples, dtype=np.complex128)
    best_start = None
    best_peak = 0.0
    for antenna in range(streams.shape[0]):
        if streams.shape[1] < synchronizer.window_length:
            raise SynchronizationError("sample stream shorter than the correlator window")
        metric = normalized_metric_serial(synchronizer.reference, streams[antenna])
        peak_index = int(np.argmax(metric))
        if metric[peak_index] > best_peak:
            best_peak = metric[peak_index]
            best_start = peak_index + synchronizer.window_sts
    if best_start is None:
        raise SynchronizationError("no receive antenna yielded a correlation peak")
    return int(best_start)


def _quantize_multiplier(receiver: MimoReceiver, values: np.ndarray) -> np.ndarray:
    fmt = receiver.config.rx_multiplier_format
    return fmt.quantize_complex(values) if fmt is not None else values


def estimate_channel_serial(
    receiver: MimoReceiver, samples: np.ndarray, lts_start: int
) -> ChannelEstimate:
    """Channel estimate from one FFT per (LTS slot, repetition, antenna)."""
    streams = np.asarray(samples, dtype=np.complex128)
    n_rx = streams.shape[0]
    n_tx = receiver.config.n_antennas
    fft_size = receiver.config.fft_size
    slot_length = receiver.preamble.lts_time().size
    received_lts = np.zeros((n_tx, n_rx, fft_size), dtype=np.complex128)
    for slot in range(n_tx):
        start = (
            lts_start
            + slot * slot_length
            + receiver.preamble.lts_cp_length
            - TIMING_ADVANCE
        )
        for rx in range(n_rx):
            first = _quantize_multiplier(receiver, fft(streams[rx, start : start + fft_size]))
            second = _quantize_multiplier(
                receiver, fft(streams[rx, start + fft_size : start + 2 * fft_size])
            )
            received_lts[slot, rx] = (first + second) / 2.0
    estimate, (error,) = receiver.channel_estimator.estimate(received_lts[None])
    if error is not None:
        raise error
    return estimate[0]


def equalize_burst_serial(
    receiver: MimoReceiver,
    streams: np.ndarray,
    estimate: ChannelEstimate,
    data_start: int,
    n_symbols: int,
    noise_variance: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """FFT, detect and pilot-correct one data OFDM symbol at a time.

    Returns ``(equalized, pilot_phases)`` with the phases appended in
    (symbol, stream) order.
    """
    config = receiver.config
    fft_size = config.fft_size
    data_bins = list(receiver.numerology.data_bins)
    if config.detector == "mmse":
        weights = mmse_weights_serial(estimate.matrices, estimate.active_mask, noise_variance)
    else:
        weights = estimate.inverses

    equalized = np.zeros((config.n_antennas, n_symbols, len(data_bins)), dtype=np.complex128)
    phases = []
    for n in range(n_symbols):
        start = (
            data_start
            + n * config.samples_per_symbol
            + config.cyclic_prefix_length
            - TIMING_ADVANCE
        )
        frequency = _quantize_multiplier(receiver, fft(streams[:, start : start + fft_size]))
        detected = np.einsum("kij,jk->ik", weights, frequency)  # W[k] @ y[:, k]
        for stream in range(config.n_antennas):
            corrected, diag = correct_pilots_serial(receiver.pilots, detected[stream], n)
            phases.append(diag.common_phase)
            equalized[stream, n] = corrected[data_bins]
    return equalized, np.array(phases, dtype=np.float64)


def receive_serial(
    receiver: MimoReceiver,
    samples: np.ndarray,
    n_info_bits: int,
    noise_variance: float = 1.0,
) -> ReceiveResult:
    """Decode one burst symbol by symbol and stream by stream."""
    config = receiver.config
    streams = np.asarray(samples, dtype=np.complex128)
    if config.rx_sample_format is not None:
        streams = config.rx_sample_format.quantize_complex(streams)
    lts_start = synchronize_serial(receiver, streams)
    estimated_cfo = 0.0
    if receiver.cfo_estimator is not None:
        cfo = receiver.cfo_estimator.estimate(streams, lts_start)
        streams = receiver.cfo_estimator.correct(streams, cfo)
        estimated_cfo = cfo.combined

    estimate = estimate_channel_serial(receiver, streams, lts_start)
    n_tx = config.n_antennas
    data_start = lts_start + n_tx * receiver.preamble.lts_time().size
    coded_length = encode_serial(receiver.code, np.zeros(n_info_bits, dtype=np.uint8)).size
    n_symbols = -(-coded_length // config.coded_bits_per_symbol)
    equalized, phases = equalize_burst_serial(
        receiver, streams, estimate, data_start, n_symbols, noise_variance
    )

    decision = "soft" if config.soft_decision else "hard"
    coded, decoded_bits = [], []
    for stream in range(n_tx):
        demapped = demap_serial(
            receiver.demapper,
            equalized[stream],
            soft=config.soft_decision,
            noise_variance=noise_variance,
        )
        received = deinterleave(
            demapped, config.coded_bits_per_symbol, config.bits_per_subcarrier
        )
        coded.append(received[:coded_length])
        decoded = viterbi_decode_serial(receiver.code, decision, coded[-1], n_info_bits)
        decoded_bits.append(scramble_serial(Scrambler(), decoded))
    return ReceiveResult(
        coded=np.array(coded),
        equalized=equalized,
        lts_start=int(lts_start),
        channel_estimate=estimate,
        estimated_cfo=estimated_cfo,
        mean_pilot_phase=float(np.mean(phases)) if len(phases) else 0.0,
        decoded_bits=np.array(decoded_bits),
    )
