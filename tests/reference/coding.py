"""Serial coding references: bit-by-bit encoder and scrambler, per-branch Viterbi."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.coding.convolutional import ConvolutionalCode, ConvolutionalEncoder
from repro.coding.scrambler import Scrambler

_METRIC_INF = 1e18


def encode_serial(
    encoder: ConvolutionalEncoder,
    bits: np.ndarray,
    terminate: bool = True,
    reset: bool = True,
) -> np.ndarray:
    """Encode one bit at a time through the streaming ``encode_bit``."""
    if reset:
        encoder.reset()
    stream = [int(bit) for bit in np.asarray(bits, dtype=np.uint8).ravel()]
    if terminate:
        stream.extend([0] * encoder.code.memory)
    coded: List[int] = []
    for bit in stream:
        coded.extend(encoder.encode_bit(bit))
    return np.array(coded, dtype=np.uint8)


def scramble_serial(scrambler: Scrambler, bits: np.ndarray, reset: bool = True) -> np.ndarray:
    """XOR the data with LFSR bits drawn one ``next_bit`` at a time."""
    if reset:
        scrambler.reset()
    data = np.asarray(bits, dtype=np.uint8).ravel()
    keystream = np.array([scrambler.next_bit() for _ in range(data.size)], dtype=np.uint8)
    return data ^ keystream


def viterbi_decode_serial(
    code: ConvolutionalCode,
    decision: str,
    received: np.ndarray,
    n_info_bits: Optional[int] = None,
    terminated: bool = True,
) -> np.ndarray:
    """Decode one block with the per-branch add-compare-select.

    Every step sorts all ``(state, bit)`` candidates stably and lets the
    first one reaching each next state win, so a tie goes to the smaller
    flat index ``state * 2 + bit``.
    """
    values = np.asarray(received, dtype=np.float64).ravel()
    tail = code.memory if terminated else 0
    pattern = code.puncture_pattern
    period = code.puncture_period
    if n_info_bits is None:
        n_info_bits = values.size * period // int(pattern.sum()) - tail
    n_steps = n_info_bits + tail
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)

    # Depuncture by walking the pattern bit by bit.
    n_out = code.n_outputs
    observations = np.zeros((n_steps, n_out))
    mask = np.zeros((n_steps, n_out))
    position = 0
    for step in range(n_steps):
        for out in range(n_out):
            if pattern[out, step % period]:
                observations[step, out] = values[position]
                mask[step, out] = 1.0
                position += 1
    if position != values.size:
        raise ValueError("received length does not match the block")

    next_states, outputs = code.build_trellis()
    shifts = np.arange(n_out - 1, -1, -1)
    output_bits = ((outputs[..., None] >> shifts) & 1).astype(np.float64)
    n_states = code.n_states
    metrics = np.full(n_states, _METRIC_INF)
    metrics[0] = 0.0
    survivors = np.zeros((n_steps, n_states), dtype=np.int64)
    survivor_bits = np.zeros((n_steps, n_states), dtype=np.uint8)
    flat_next = next_states.ravel()
    for step in range(n_steps):
        observation, present = observations[step], mask[step]
        if decision == "hard":
            branch = (np.abs(output_bits - observation[None, None, :]) * present).sum(axis=-1)
        else:
            signs = 1.0 - 2.0 * output_bits
            branch = -(signs * (observation * present)[None, None, :]).sum(axis=-1)
        flat_metric = (metrics[:, None] + branch).ravel()
        new_metrics = np.full(n_states, _METRIC_INF)
        seen = np.zeros(n_states, dtype=bool)
        for idx in np.argsort(flat_metric, kind="stable"):
            ns = flat_next[idx]
            if seen[ns]:
                continue
            seen[ns] = True
            new_metrics[ns] = flat_metric[idx]
            survivors[step, ns] = idx // 2
            survivor_bits[step, ns] = idx % 2
            if seen.all():
                break
        metrics = new_metrics

    state = 0 if terminated else int(np.argmin(metrics))
    decoded = np.zeros(n_steps, dtype=np.uint8)
    for step in range(n_steps - 1, -1, -1):
        decoded[step] = survivor_bits[step, state]
        state = survivors[step, state]
    return decoded[:n_info_bits]
