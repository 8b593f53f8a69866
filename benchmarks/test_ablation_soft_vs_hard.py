"""Ablation A3 — hard vs soft symbol demapping into the Viterbi decoder.

The paper's demapper "can be set up to perform hard or soft symbol
demapping" and the de-interleaver is sized to carry soft values.  This
ablation measures what the soft option buys: coded BER of the full 4x4 link
with hard-decision and soft-decision (LLR) demapping at the same SNR points.
"""

from repro.channel.fading import FlatRayleighChannel
from repro.channel.model import MimoChannel
from repro.core.config import TransceiverConfig
from repro.core.transceiver import simulate_link

SNR_POINTS_DB = [16.0, 20.0, 24.0]
N_INFO_BITS = 300
N_BURSTS = 2


def _ber(soft: bool, snr_db: float) -> float:
    config = TransceiverConfig(soft_decision=soft)
    channel = MimoChannel(FlatRayleighChannel(rng=25), snr_db=snr_db, rng=701)
    stats = simulate_link(config, channel, n_info_bits=N_INFO_BITS, n_bursts=N_BURSTS, rng=702)
    return stats["bit_error_rate"]


def _sweep():
    return {
        snr: {"hard": _ber(False, snr), "soft": _ber(True, snr)} for snr in SNR_POINTS_DB
    }


def test_ablation_soft_vs_hard(table_printer):
    results = _sweep()
    table_printer(
        "Ablation A3: hard vs soft demapping (16-QAM rate 1/2, flat Rayleigh)",
        ["SNR (dB)", "hard BER", "soft BER"],
        [
            (snr, f"{row['hard']:.4f}", f"{row['soft']:.4f}")
            for snr, row in results.items()
        ],
    )
    # In the waterfall region soft-decision decoding never does worse than
    # hard-decision, and it closes the link at the top of the sweep.
    for row in results.values():
        assert row["soft"] <= row["hard"] + 1e-9
    assert results[SNR_POINTS_DB[-1]]["soft"] == 0.0
    assert results[SNR_POINTS_DB[0]]["hard"] > 0.0
