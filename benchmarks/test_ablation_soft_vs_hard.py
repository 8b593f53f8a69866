"""Ablation A3 — hard vs soft symbol demapping into the Viterbi decoder.

The paper's demapper "can be set up to perform hard or soft symbol
demapping" and the de-interleaver is sized to carry soft values.  This
ablation measures what the soft option buys: coded BER of the full 4x4 link
with hard-decision and soft-decision (LLR) demapping at the same SNR points.

Each demapper runs one :class:`repro.sim.SweepSpec` grid.  The demapping
mode is not part of a burst's seed, so hard and soft decode the very same
bursts: same payloads, fading draws and noise.
"""

from repro.sim import SweepRunner, SweepSpec

SNR_POINTS_DB = (16.0, 20.0, 24.0)
N_INFO_BITS = 300
N_BURSTS = 2
BASE_SEED = 702


def _curve(soft: bool) -> dict:
    spec = SweepSpec(
        snr_db=SNR_POINTS_DB,
        channels=("flat_rayleigh",),
        n_info_bits=N_INFO_BITS,
        n_bursts=N_BURSTS,
        target_errors=None,
        base_seed=BASE_SEED,
        soft_decision=soft,
    )
    return SweepRunner(spec, n_workers=1, cache=False).run().ber_curve()


def _sweep():
    hard, soft = _curve(False), _curve(True)
    return {snr: {"hard": hard[snr], "soft": soft[snr]} for snr in SNR_POINTS_DB}


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
