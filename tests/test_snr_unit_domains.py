"""dB-vs-linear unit-domain regression tests.

If someone ever mixed ``snr_db`` into linear power arithmetic without a
conversion, the delivered noise variance would be wrong by orders of
magnitude, and every assertion here is chosen so that the most likely
wrong formulas (``power / snr_db``, ``power * snr_db``, ``10 ** snr_db``)
fail loudly.  The other call sites that cross domains have closed-form
tests next to their modules: ``test_analysis_capacity.py`` and
``test_channel_impairments_model.py``.
"""

import numpy as np
import pytest

from repro.channel.awgn import noise_variance_for_snr, occupied_power
from repro.channel.model import IdealChannel, MimoChannel
from repro.utils.units import amplitude_db_to_gain, db_to_linear


# ----------------------------------------------------------------------
# The converters themselves
# ----------------------------------------------------------------------

def test_converters_are_exact_inverses_at_reference_points():
    # Power domain: every 10 dB is exactly a factor of 10.
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(20.0) == 100.0
    assert db_to_linear(-10.0) == pytest.approx(0.1)
    # Amplitude domain: every 20 dB is a factor of 10 in gain.
    assert amplitude_db_to_gain(0.0) == 1.0
    assert amplitude_db_to_gain(20.0) == pytest.approx(10.0)


def test_converters_match_the_inline_idiom_bit_for_bit():
    # These helpers replaced inline ``10 ** (x / 10)`` idioms; the sweep
    # cache is only valid if they are bit-identical to the expressions
    # they replaced.
    for value_db in (-35.0, -3.0, 0.0, 12.5, 35.0):
        assert db_to_linear(value_db) == 10.0 ** (value_db / 10.0)
        assert amplitude_db_to_gain(value_db) == 10.0 ** (value_db / 20.0)


# ----------------------------------------------------------------------
# noise_variance_for_snr stays in the right domain
# ----------------------------------------------------------------------

def test_noise_variance_is_power_over_linear_snr():
    for snr_db in (-10.0, 0.0, 7.0, 35.0):
        for power in (0.25, 1.0, 3.7):
            assert noise_variance_for_snr(snr_db, power) == (
                power / db_to_linear(snr_db)
            )


def test_noise_variance_metamorphic_10_db_is_a_factor_of_10():
    # The defining property of the dB scale — any formula that uses
    # snr_db linearly (power / snr_db, power * snr_db, ...) breaks it.
    base = noise_variance_for_snr(5.0, signal_power=2.0)
    assert noise_variance_for_snr(15.0, signal_power=2.0) == pytest.approx(
        base / 10.0
    )
    assert noise_variance_for_snr(-5.0, signal_power=2.0) == pytest.approx(
        base * 10.0
    )


def test_noise_variance_at_zero_db_equals_signal_power():
    # 0 dB means noise power == signal power; a formula that divides by
    # snr_db would blow up here instead.
    assert noise_variance_for_snr(0.0, signal_power=0.5) == 0.5


def test_noise_variance_scales_linearly_with_signal_power():
    assert noise_variance_for_snr(8.0, 4.0) == pytest.approx(
        4.0 * noise_variance_for_snr(8.0, 1.0)
    )


# ----------------------------------------------------------------------
# End-to-end: the delivered SNR matches the requested one
# ----------------------------------------------------------------------

def test_channel_delivers_the_requested_snr():
    rng = np.random.default_rng(7)
    signal = np.exp(2j * np.pi * rng.random((4, 50_000)))  # unit power
    for snr_db in (0.0, 10.0, 20.0):
        noisy = MimoChannel(IdealChannel(), snr_db=snr_db, rng=rng).transmit(signal).samples
        measured = float(np.mean(np.abs(noisy - signal) ** 2))
        expected = db_to_linear(-snr_db)  # unit signal power
        assert measured == pytest.approx(expected, rel=0.05)


def test_channel_noise_variance_calibrated_against_occupied_power():
    # A burst padded with silence: the calibration must divide the
    # *occupied* power (not the diluted whole-window mean) by the
    # *linear* SNR.
    rng = np.random.default_rng(21)
    burst = np.zeros((4, 1024), dtype=np.complex128)
    burst[:, 256:768] = (
        rng.normal(size=(4, 512)) + 1j * rng.normal(size=(4, 512))
    ) / np.sqrt(2.0)

    snr_db = 12.0
    channel = MimoChannel(IdealChannel(), snr_db=snr_db, rng=5)
    output = channel.transmit(burst)

    power = occupied_power(burst)
    assert output.noise_variance == pytest.approx(
        power / db_to_linear(snr_db)
    )
    # Guard the guard: the wrong-domain and diluted-power variants are
    # all far away from the delivered value.
    assert output.noise_variance != pytest.approx(power / snr_db, rel=0.2)
    whole_window = float(np.mean(np.abs(burst) ** 2))
    assert output.noise_variance != pytest.approx(
        whole_window / db_to_linear(snr_db), rel=0.2
    )


def test_channel_noise_variance_converts_the_snr_from_db():
    channel = MimoChannel(IdealChannel(), snr_db=17.0, rng=3)
    output = channel.transmit(np.ones((4, 64), dtype=np.complex128))
    assert output.noise_variance is not None
    # snr_db is given in dB; noise_variance is linear power — they only
    # agree through the converter.
    assert output.noise_variance == pytest.approx(
        occupied_power(np.ones((4, 64))) / db_to_linear(17.0)
    )
