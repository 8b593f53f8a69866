"""Link-level validation — BER vs SNR of the complete 4x4 MIMO-OFDM chain.

The paper validates the datapath functionally (test benches feeding the
hardware) rather than publishing BER curves; this benchmark provides the
implicit link-level evidence behind the design: the end-to-end chain
(coding, interleaving, preamble, channel estimation, ZF detection, Viterbi)
closes the link, BER falls monotonically with SNR, and denser constellations
need more SNR — the qualitative shape any correct implementation must show.

Both curves are produced by one :class:`repro.sim.SweepSpec` grid each,
executed through :class:`repro.sim.SweepRunner` with the shared-fading mode
(every SNR point and modulation sees the same channel realisation, the
classic waterfall setup) and caching disabled so the benchmark always
measures real simulation time.
"""

from repro.sim import SweepRunner, SweepSpec

SNR_POINTS_DB = (6.0, 14.0, 22.0, 30.0)
N_INFO_BITS = 300
N_BURSTS = 2
BASE_SEED = 404


def _sweep(modulations):
    spec = SweepSpec(
        snr_db=SNR_POINTS_DB,
        modulations=modulations,
        channels=("flat_rayleigh",),
        n_info_bits=N_INFO_BITS,
        n_bursts=N_BURSTS,
        target_errors=None,
        fresh_fading_per_burst=False,
        base_seed=BASE_SEED,
    )
    return SweepRunner(spec, n_workers=1, cache=False).run()


def test_link_ber_16qam(table_printer):
    result = _sweep(("16qam",))
    curve = result.ber_curve(modulation="16qam")
    table_printer(
        "Link BER vs SNR — 16-QAM rate 1/2 (paper's synthesised configuration)",
        ["SNR (dB)", "BER"],
        [(snr, f"{ber:.4f}") for snr, ber in curve.items()],
    )
    bers = list(curve.values())
    # Monotone (non-increasing) BER with SNR and an error-free top point.
    assert all(bers[i] >= bers[i + 1] for i in range(len(bers) - 1))
    assert bers[-1] == 0.0
    assert bers[0] > 0.0


def test_link_ber_qpsk_vs_64qam(table_printer):
    result = _sweep(("qpsk", "64qam"))
    qpsk = result.ber_curve(modulation="qpsk")
    qam64 = result.ber_curve(modulation="64qam")
    table_printer(
        "Link BER vs SNR — QPSK vs 64-QAM (rate 1/2, flat Rayleigh)",
        ["SNR (dB)", "QPSK BER", "64-QAM BER"],
        [
            (snr, f"{qpsk[snr]:.4f}", f"{qam64[snr]:.4f}")
            for snr in SNR_POINTS_DB
        ],
    )
    # Denser constellations need more SNR: at every point 64-QAM is no
    # better than QPSK, and QPSK closes the link at a lower SNR.
    for snr in SNR_POINTS_DB:
        assert qam64[snr] >= qpsk[snr]
    assert qpsk[SNR_POINTS_DB[-2]] == 0.0
    assert qam64[SNR_POINTS_DB[-1]] <= 0.01
