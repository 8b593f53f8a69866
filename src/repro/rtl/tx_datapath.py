"""Streaming transmit datapath built from the hardware memory idioms.

:class:`TxStreamDatapath` is the structural counterpart of
:class:`repro.core.transmitter.MimoTransmitter` for a single spatial stream:
it pushes coded bits through the ping-pong interleaver memories, the dual
look-up-table symbol mapper and the double-buffered cyclic-prefix memory one
"clock cycle" at a time, counting cycles as it goes.  Tests check that the
waveform it produces is identical to the functional transmitter's and that
the cycle accounting matches the streaming-rate arithmetic behind the
throughput model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.coding.interleaver import interleaver_permutation
from repro.core.config import TransceiverConfig
from repro.core.pilots import PilotProcessor
from repro.dsp.fft import get_plan
from repro.hardware.memory import DualPortRam, PingPongBuffer, Rom
from repro.modulation.mapper import SymbolMapper
from repro.utils.bits import _as_bit_array, pack_bits


@dataclass
class TxDatapathReport:
    """Cycle accounting of one streaming run."""

    input_bits: int
    ofdm_symbols: int
    output_samples: int
    cycles_consumed: int

    @property
    def samples_per_symbol(self) -> float:
        """Average output samples per OFDM symbol."""
        if self.ofdm_symbols == 0:
            return 0.0
        return self.output_samples / self.ofdm_symbols


class TxStreamDatapath:
    """Single-stream structural transmit pipeline (interleaver -> mapper -> IFFT -> CP)."""

    def __init__(self, config: Optional[TransceiverConfig] = None) -> None:
        self.config = config if config is not None else TransceiverConfig()
        self.numerology = self.config.numerology
        n_cbps = self.config.coded_bits_per_symbol
        self.interleaver_memory = PingPongBuffer(block_size=n_cbps, word_bits=1)
        self._permutation = interleaver_permutation(
            n_cbps, self.config.bits_per_subcarrier
        )
        mapper = SymbolMapper(self.config.modulation)
        self.mapper_rom = Rom(list(mapper.lut_contents()), word_bits=32)
        self.pilots = PilotProcessor(self.numerology)
        self.fft_plan = get_plan(self.config.fft_size)
        # The CP memory is twice the OFDM symbol so one half can fill while
        # the other is read out (Fig. 3); 32-bit words hold the I/Q pair.
        self.cp_memory = DualPortRam(depth=2 * self.config.fft_size, word_bits=32)
        self._cycles = 0
        self._symbol_index = 0

    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        """Clock cycles consumed so far."""
        return self._cycles

    def reset(self) -> None:
        """Reset cycle counters, symbol index and buffer occupancy."""
        self._cycles = 0
        self._symbol_index = 0
        n_cbps = self.config.coded_bits_per_symbol
        self.interleaver_memory = PingPongBuffer(block_size=n_cbps, word_bits=1)

    # ------------------------------------------------------------------
    def _map_block(self, interleaved: np.ndarray) -> np.ndarray:
        """Look the interleaved bit groups up in the mapper ROM."""
        addresses = pack_bits(interleaved, self.config.bits_per_subcarrier)
        return np.array([self.mapper_rom.read(int(a)) for a in addresses])

    def _ofdm_symbol(self, data_symbols: np.ndarray) -> np.ndarray:
        """Assemble, transform and cyclic-prefix one OFDM symbol."""
        fft_size = self.config.fft_size
        cp = self.config.cyclic_prefix_length
        frequency = np.zeros(fft_size, dtype=np.complex128)
        frequency[list(self.numerology.data_bins)] = data_symbols
        frequency = self.pilots.insert(frequency, self._symbol_index)
        time_domain = self.fft_plan.inverse(frequency)
        # Model the CP double buffer: write the symbol into one half of the
        # memory, then read the tail followed by the body out of it.
        half = self._symbol_index % 2
        base = half * fft_size
        for idx, value in enumerate(time_domain):
            self.cp_memory.write(base + idx, complex(value))
        output = np.empty(fft_size + cp, dtype=np.complex128)
        for idx in range(cp):
            output[idx] = self.cp_memory.read(base + fft_size - cp + idx)
        for idx in range(fft_size):
            output[cp + idx] = self.cp_memory.read(base + idx)
        self._symbol_index += 1
        return output

    # ------------------------------------------------------------------
    def stream(self, coded_bits: np.ndarray) -> tuple[np.ndarray, TxDatapathReport]:
        """Push a coded bit stream through the pipeline.

        Only whole OFDM symbols are emitted; a partially filled interleaver
        memory stays buffered (exactly like the hardware, which cannot read a
        memory until it is full).

        Returns the concatenated time-domain samples and a cycle report.
        """
        bits = _as_bit_array(coded_bits)
        waveform: List[np.ndarray] = []
        n_cbps = self.config.coded_bits_per_symbol
        for bit in bits:
            self._cycles += 1
            block_ready = self.interleaver_memory.push(float(bit))
            if not block_ready:
                continue
            block = self.interleaver_memory.read_block().astype(np.uint8)
            interleaved = np.empty(n_cbps, dtype=np.uint8)
            interleaved[self._permutation] = block
            data_symbols = self._map_block(interleaved)
            symbol = self._ofdm_symbol(data_symbols)
            waveform.append(symbol)
            # Reading the symbol out of the CP memory costs one cycle per
            # output sample (the IFFT streams in parallel with the fill).
            self._cycles += symbol.size
        samples = (
            np.concatenate(waveform) if waveform else np.zeros(0, dtype=np.complex128)
        )
        report = TxDatapathReport(
            input_bits=int(bits.size),
            ofdm_symbols=len(waveform),
            output_samples=int(samples.size),
            cycles_consumed=self._cycles,
        )
        return samples, report
