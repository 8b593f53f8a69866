"""Claim C3 — 512-point OFDM scaling (Section V text).

Paper claims, for a 512-point OFDM system relative to the evaluated 64-point
build:

* the transmitter's IFFT and interleaver require ~8x the resources and the
  transmitter needs ~8x the memory bits;
* the receiver's channel-estimation and equalisation blocks stay constant;
* the receiver's memory bits grow by a factor of approximately eight;
* the FPGA still has ample memory to accommodate the 512-point system.
"""

import pytest

from repro.core.config import TransceiverConfig
from repro.hardware.estimator import (
    ReceiverResourceModel,
    STRATIX_IV_DEVICE,
    TransmitterResourceModel,
)

CONFIG_512 = TransceiverConfig(fft_size=512)


def _generate_scaling():
    tx64, tx512 = TransmitterResourceModel(), TransmitterResourceModel(CONFIG_512)
    rx64, rx512 = ReceiverResourceModel(), ReceiverResourceModel(CONFIG_512)
    return {
        "tx_ifft_ratio": tx512.entity_usage("ifft").aluts / tx64.entity_usage("ifft").aluts,
        "tx_interleaver_ratio": (
            tx512.entity_usage("block_interleaver").aluts
            / tx64.entity_usage("block_interleaver").aluts
        ),
        "tx_memory_ratio": tx512.system_totals().memory_bits / tx64.system_totals().memory_bits,
        "rx_memory_ratio": rx512.system_totals().memory_bits / rx64.system_totals().memory_bits,
        "rx_estimation_aluts_64": sum(
            rx64.entity_usage(e).aluts for e in ReceiverResourceModel.CHANNEL_ESTIMATION_ENTITIES
        ),
        "rx_estimation_aluts_512": sum(
            rx512.entity_usage(e).aluts for e in ReceiverResourceModel.CHANNEL_ESTIMATION_ENTITIES
        ),
        "rx512_memory_utilization": rx512.utilization(STRATIX_IV_DEVICE)["memory_bits"],
    }


def test_claim_512pt_scaling(table_printer):
    results = _generate_scaling()

    rows = [
        ("TX IFFT resource ratio (512/64)", f"{results['tx_ifft_ratio']:.2f}", "~8x"),
        ("TX interleaver resource ratio", f"{results['tx_interleaver_ratio']:.2f}", "~8x"),
        ("TX memory-bit ratio", f"{results['tx_memory_ratio']:.2f}", "~8x"),
        ("RX memory-bit ratio", f"{results['rx_memory_ratio']:.2f}", "~8x"),
        (
            "RX channel-estimation ALUTs (64 -> 512)",
            f"{results['rx_estimation_aluts_64']} -> {results['rx_estimation_aluts_512']}",
            "constant",
        ),
        (
            "RX memory utilisation at 512-pt (%)",
            f"{results['rx512_memory_utilization']:.1f}",
            "plenty available (<100)",
        ),
    ]
    table_printer("Claim C3: 512-point OFDM scaling", ["quantity", "measured", "paper"], rows)

    assert results["tx_ifft_ratio"] == pytest.approx(8.0, rel=0.01)
    assert results["tx_interleaver_ratio"] == pytest.approx(8.0, rel=0.01)
    assert results["tx_memory_ratio"] == pytest.approx(8.0, rel=0.05)
    assert 7.0 <= results["rx_memory_ratio"] <= 8.5
    assert results["rx_estimation_aluts_512"] == results["rx_estimation_aluts_64"]
    assert results["rx512_memory_utilization"] < 100.0
