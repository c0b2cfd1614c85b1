"""Time-of-arrival bound and Monte Carlo estimator tests."""

import numpy as np
import pytest
from scipy.constants import c

from rangekit.ranging import (
    RangingScenario,
    crlb_range,
    crlb_result,
    crlb_toa,
    equivalent_accuracy_tradeoff,
    ml_toa_estimate,
    monte_carlo,
)
from rangekit.waveform import ToneSet, delay_signal, synth_two_tone, two_tone_rms_bandwidth

ZETA_500M = (np.pi * 5e8) ** 2  # two equal tones, 500 MHz apart


def smooth_template(duration=1e-6, sample_rate=4e9):
    """Gaussian-tapered multitone whose correlation has a single peak per
    record (1 MHz comb, so the ambiguity spacing equals the duration)."""
    freqs = np.arange(-60, 61) * 1e6
    amps = np.exp(-((freqs / 30e6) ** 2) / 2)
    return synth_two_tone(ToneSet.from_pairs(zip(freqs, amps)), duration, sample_rate)


def test_crlb_toa_value():
    # 1 / (2 * 10^1.6 * (pi * 5e8)^2), with the SNR defined as |alpha|^2/N0
    # for a unit-energy template
    var = crlb_toa(ZETA_500M, 16.0)
    assert var == pytest.approx(5.0901e-21, rel=1e-4)
    assert np.sqrt(var) == pytest.approx(7.1345e-11, rel=1e-4)


def test_crlb_toa_scaling():
    base = crlb_toa(ZETA_500M, 16.0)
    assert crlb_toa(4.0 * ZETA_500M, 16.0) == pytest.approx(base / 4.0, rel=1e-9)
    assert crlb_toa(ZETA_500M, 16.0 + 20.0 * np.log10(2.0)) == pytest.approx(
        base / 4.0, rel=1e-9
    )


def test_crlb_toa_monotone():
    for z1, z2 in ((1e18, 2e18), (2e18, 5e18)):
        assert crlb_toa(z2, 16.0) < crlb_toa(z1, 16.0)
    for s1, s2 in ((0.0, 5.0), (5.0, 16.0)):
        assert crlb_toa(1e18, s2) < crlb_toa(1e18, s1)
    with pytest.raises(ValueError):
        crlb_toa(0.0, 16.0)


def test_crlb_range_two_way_halving():
    var = crlb_toa(ZETA_500M, 16.0)
    one_way = crlb_range(var, two_way=False)
    assert one_way == c * np.sqrt(var)
    assert crlb_range(var, two_way=True) == one_way / 2.0
    assert crlb_range(0.0, two_way=True) == 0.0
    with pytest.raises(ValueError):
        crlb_range(-1.0, two_way=False)


def test_crlb_result_sixteen_db_anchor():
    res = crlb_result(ZETA_500M, 16.0, two_way=True)
    # under this SNR convention the 16 dB / 500 MHz two-way accuracy is
    # about a centimeter; the figure moves with the convention
    assert res.std_range == pytest.approx(0.0107, abs=2e-4)
    assert res.std_tau == np.sqrt(res.var_tau)


def test_equivalent_accuracy_tradeoff():
    assert equivalent_accuracy_tradeoff(5e8, 16.0, 1e9) == pytest.approx(9.98, abs=0.01)
    assert equivalent_accuracy_tradeoff(5e8, 16.0, 2.5e8) == pytest.approx(22.02, abs=0.01)
    assert equivalent_accuracy_tradeoff(5e8, 16.0, 5e8) == 16.0
    with pytest.raises(ValueError):
        equivalent_accuracy_tradeoff(0.0, 16.0, 1e9)


def test_tradeoff_leaves_crlb_unchanged():
    var1 = crlb_toa(two_tone_rms_bandwidth(5e8), 16.0)
    snr2 = equivalent_accuracy_tradeoff(5e8, 16.0, 1e9)
    var2 = crlb_toa(two_tone_rms_bandwidth(1e9), snr2)
    assert var2 == pytest.approx(var1, rel=1e-9)


def test_ml_toa_on_grid():
    tpl = smooth_template()
    rx = delay_signal(tpl, 17 / 4e9)
    tau = ml_toa_estimate(rx, tpl)
    assert abs(tau - 17 / 4e9) * 4e9 < 1e-3


def test_ml_toa_off_grid():
    tpl = smooth_template()
    rx = delay_signal(tpl, 17.3 / 4e9)
    tau = ml_toa_estimate(rx, tpl)
    assert abs(tau - 17.3 / 4e9) * 4e9 < 0.05


def test_ml_toa_two_tone_windowed():
    # ambiguous template: the caller supplies the a-priori window
    tpl = synth_two_tone(ToneSet.two_tone(5e8), 1e-6, 4e9)
    rx = delay_signal(tpl, 1.3 / 4e9)
    tau = ml_toa_estimate(rx, tpl, search_window=(0.0, 2e-9))
    assert abs(tau - 1.3 / 4e9) * 4e9 < 0.05


def test_ml_toa_errors():
    tpl = smooth_template()
    with pytest.raises(ValueError):
        ml_toa_estimate(
            type(tpl)(samples=np.zeros(len(tpl)), sample_rate=4e9),
            type(tpl)(samples=np.zeros(len(tpl)), sample_rate=4e9),
        )
    other = smooth_template(sample_rate=2e9)
    with pytest.raises(ValueError):
        ml_toa_estimate(other, tpl)


def test_scenario_validation():
    ts = ToneSet.two_tone(5e8)
    with pytest.raises(ValueError):  # delay outside the 2 ns ambiguity window
        RangingScenario(ts, 16.0, 3e-9, True, 4e9, 1e-6)
    with pytest.raises(ValueError):  # Nyquist
        RangingScenario(ToneSet.two_tone(4e9), 16.0, 0.0, True, 4e9, 1e-6)
    with pytest.raises(ValueError):
        RangingScenario(ts, 16.0, 0.0, True, 4e9, 0.0)
    for seed in (-1, 2**64, 2.7, True):
        with pytest.raises(ValueError, match="seed"):
            RangingScenario(ts, 16.0, 0.0, True, 4e9, 1e-6, seed=seed)


def test_monte_carlo_noiseless_limit():
    sc = RangingScenario(
        ToneSet.two_tone(5e8), np.inf, 0.6e-9, True, 4e9, 1e-6, seed=1
    )
    rep = monte_carlo(sc, 3)
    assert rep.failures == 0
    assert rep.rmse_tau * 4e9 < 0.05  # interpolation error only
    with pytest.raises(ValueError):
        monte_carlo(sc, 0)


def test_monte_carlo_near_bound():
    sc = RangingScenario(
        ToneSet.two_tone(5e8), 30.0, 0.6e-9, True, 4e9, 1e-6, seed=123
    )
    rep = monte_carlo(sc, 2000)
    assert rep.failures == 0
    assert 0.85 < rep.crlb_ratio < 1.3
    # sub-sample interpolation leaves a small systematic bias; it must stay
    # well under the random error
    assert abs(rep.bias_tau) < 0.1 * rep.rmse_tau


def test_monte_carlo_failures_reported_separately():
    # at 0 dB the wrong ambiguity lobe wins often; those trials must be
    # counted, not folded into the rmse
    sc = RangingScenario(ToneSet.two_tone(5e8), 0.0, 0.6e-9, True, 4e9, 1e-6, seed=9)
    rep = monte_carlo(sc, 200)
    assert rep.failures > 0
    assert rep.rmse_tau <= 1.0 / (2.0 * 5e8)


def test_monte_carlo_deterministic_across_workers():
    # a 50 ns record keeps the 2600-trial run (over five blocks) fast
    sc = RangingScenario(
        ToneSet.two_tone(5e8), 25.0, 0.6e-9, True, 4e9, 5e-8, seed=7
    )
    for trials in (1, 511, 512, 513, 2600):
        reports = [monte_carlo(sc, trials, workers=w) for w in (1, 2, 3, 8)]
        assert reports[0].failures == 0
        assert reports[0] == reports[1] == reports[2] == reports[3]
