"""Tests for repro.hardware.qrd — the one statement of the QRD array."""

import pytest

from repro.core.config import TransceiverConfig
from repro.exceptions import ConfigurationError
from repro.hardware.latency import LatencyModel
from repro.hardware.qrd import QrdArray


def test_paper_array_composition_and_latency():
    # "This array consists of four boundary cells and six internal cells"
    # (R array); the Q array adds a 4x4 grid of internal cells.  "The QRD
    # circuit therefore has a data-path latency of 440 clock cycles."
    array = QrdArray(4)
    assert array.boundary_cells == 4
    assert array.r_internal_cells == 6
    assert array.q_internal_cells == 16
    assert array.cordic_count == 4 * 2 + (6 + 16) * 3 == 74
    assert array.critical_path_cordics == 22
    assert array.latency_cycles == 440


@pytest.mark.parametrize("fft_size", [64, 512])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_latency_model_and_ablation_stream_by_the_one_rule(n, fft_size):
    # One channel-matrix entry per clock: n² cycles per subcarrier's matrix.
    rule = fft_size * n**2
    model = LatencyModel(TransceiverConfig(n_antennas=n, fft_size=fft_size))
    flush = model.qrd_cycles + model.r_inverse_cycles + model.matrix_multiply_cycles
    assert model.channel_estimation_cycles - flush == rule
    assert model.qrd_cycles == QrdArray(n).latency_cycles
    # Ablation A1's streaming term is QrdArray.streaming_cycles.
    assert QrdArray(n).streaming_cycles(fft_size) == rule


#: (n, boundary cells, R internal cells, Q internal cells, CORDICs, critical
#: path stages, latency cycles), worked by hand from Figs. 6-8: n boundary
#: cells of 2 CORDICs, n(n-1)/2 + n² internal cells of 3 CORDICs, 5n + 2
#: stages of 20 cycles.
ARRAY_SIZES = [
    (1, 1, 0, 1, 5, 7, 140),
    (2, 2, 1, 4, 19, 12, 240),
    (3, 3, 3, 9, 42, 17, 340),
    (4, 4, 6, 16, 74, 22, 440),
    (5, 5, 10, 25, 115, 27, 540),
    (6, 6, 15, 36, 165, 32, 640),
    (7, 7, 21, 49, 224, 37, 740),
    (8, 8, 28, 64, 292, 42, 840),
]


@pytest.mark.parametrize(
    "n, boundary, r_internal, q_internal, cordics, stages, latency", ARRAY_SIZES
)
def test_array_facts_for_each_size(n, boundary, r_internal, q_internal, cordics, stages, latency):
    array = QrdArray(n)
    assert (array.boundary_cells, array.r_internal_cells, array.q_internal_cells) == (
        boundary,
        r_internal,
        q_internal,
    )
    assert array.cordic_count == cordics
    assert array.critical_path_cordics == stages
    assert array.latency_cycles == latency
    assert LatencyModel(TransceiverConfig(n_antennas=n)).qrd_cycles == latency


@pytest.mark.parametrize("n", [0, -1])
def test_empty_array_rejected(n):
    with pytest.raises(ConfigurationError):
        QrdArray(n)
