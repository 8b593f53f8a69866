"""Serial coding references: per-state trellis tables, bit-by-bit encoder
and scrambler, per-branch Viterbi.

Each works on one independent block, as the production coding stages do:
the encoder and the scrambler start from their reset state and the
decoder's trellis starts and ends in the all-zero state.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.coding.convolutional import GENERATORS, N_STATES, ConvolutionalCode
from repro.coding.scrambler import Scrambler

_METRIC_INF = 1e18


def build_trellis_serial(code: ConvolutionalCode) -> Tuple[np.ndarray, np.ndarray]:
    """``(next_states, outputs)`` of ``code`` built one ``(state, bit)`` at a time.

    The shift register holds the newest bit in its MSB; each output is the
    parity of the register's tapped bits, packed MSB-first (output 0 in
    the MSB) -- the layout of
    :data:`~repro.coding.convolutional.NEXT_STATES` and
    :data:`~repro.coding.convolutional.OUTPUTS`.
    """
    next_states = np.zeros((N_STATES, 2), dtype=np.int64)
    outputs = np.zeros((N_STATES, 2), dtype=np.int64)
    for state in range(N_STATES):
        for bit in (0, 1):
            register = (bit << code.memory) | state
            next_states[state, bit] = register >> 1
            value = 0
            for g in GENERATORS:
                value = (value << 1) | (bin(register & g).count("1") & 1)
            outputs[state, bit] = value
    return next_states, outputs


def encode_serial(code: ConvolutionalCode, bits: np.ndarray) -> np.ndarray:
    """Encode one terminated block one bit at a time through a shift register.

    The register starts all-zero and the puncture phase at the pattern's
    first column; ``code.memory`` zero tail bits end the block.
    """
    stream = [int(bit) for bit in np.asarray(bits, dtype=np.uint8).ravel()]
    stream.extend([0] * code.memory)
    state = 0
    coded: List[int] = []
    for step, bit in enumerate(stream):
        # The newest bit enters the register's MSB; each output is the
        # parity of the tapped bits, and the oldest bit drops out.
        register = (bit << code.memory) | state
        outputs = [bin(register & g).count("1") & 1 for g in GENERATORS]
        state = register >> 1
        column = step % code.puncture_period
        coded.extend(
            out for row, out in enumerate(outputs) if code.puncture_pattern[row, column]
        )
    return np.array(coded, dtype=np.uint8)


def scramble_serial(scrambler: Scrambler, bits: np.ndarray) -> np.ndarray:
    """XOR the data with x^7 + x^4 + 1 LFSR bits stepped one at a time from the seed."""
    data = np.asarray(bits, dtype=np.uint8).ravel()
    state = scrambler.seed
    keystream = np.zeros(data.size, dtype=np.uint8)
    for k in range(data.size):
        feedback = ((state >> 6) & 1) ^ ((state >> 3) & 1)
        state = ((state << 1) & 0x7F) | feedback
        keystream[k] = feedback
    return data ^ keystream


def viterbi_decode_serial(
    code: ConvolutionalCode,
    decision: str,
    received: np.ndarray,
    n_info_bits: int,
) -> np.ndarray:
    """Decode one terminated block with the per-branch add-compare-select.

    Every step sorts all ``(state, bit)`` candidates stably and lets the
    first one reaching each next state win, so a tie goes to the smaller
    flat index ``state * 2 + bit``.
    """
    values = np.asarray(received, dtype=np.float64).ravel()
    pattern = code.puncture_pattern
    period = code.puncture_period
    n_steps = n_info_bits + code.memory

    # Depuncture by walking the pattern bit by bit.
    n_out = len(GENERATORS)
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

    next_states, outputs = build_trellis_serial(code)
    shifts = np.arange(n_out - 1, -1, -1)
    output_bits = ((outputs[..., None] >> shifts) & 1).astype(np.float64)
    n_states = N_STATES
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

    state = 0
    decoded = np.zeros(n_steps, dtype=np.uint8)
    for step in range(n_steps - 1, -1, -1):
        decoded[step] = survivor_bits[step, state]
        state = survivors[step, state]
    return decoded[:n_info_bits]
