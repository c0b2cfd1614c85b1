"""Time-of-arrival bound and Monte Carlo estimator tests."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rangekit import SPEED_OF_LIGHT, rand
from rangekit.cli import dispatch
from rangekit.ranging import (
    RangingScenario,
    _noise_sigma,
    _refine_peaks,
    _search_lags,
    _window_setup,
    crlb_range,
    crlb_result,
    crlb_toa,
    delay_to_range,
    equivalent_accuracy_tradeoff,
    ml_toa_estimate,
    monte_carlo,
)
from rangekit.waveform import ToneSet, delay_signal, synth_two_tone, two_tone_rms_bandwidth

ZETA_500M = (np.pi * 5e8) ** 2  # two equal tones, 500 MHz apart


def shifted_template(tpl, lags):
    """(n, L) matrix whose column j is conj(tpl) delayed by lags[j], so that
    ``rx @ shifted`` correlates a record against the template at those lags."""
    return np.conj(tpl[(np.arange(len(tpl))[:, np.newaxis] - lags) % len(tpl)])


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
    assert one_way == SPEED_OF_LIGHT * np.sqrt(var)
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
    for delay_samples, window, expected_samples in (
        (1.3, (0.0, 2e-9), 1.3),
        (0.3, (-1e-9, 1e-9), 0.3),  # window starts below lag 0
        (1.3, (1e-6 - 1e-9, 1e-6 + 1e-9), 4001.3),  # window crosses the record end
    ):
        rx = delay_signal(tpl, delay_samples / 4e9)
        tau = ml_toa_estimate(rx, tpl, search_window=window)
        assert window[0] <= tau <= window[1]
        assert abs(tau * 4e9 - expected_samples) < 0.05


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
    for sample_rate, duration, delay in ((np.inf, 1e-6, 0.0), (4e9, np.inf, 0.0), (4e9, 1e-6, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            RangingScenario(ts, 16.0, delay, True, sample_rate, duration)
    for snr_db in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="snr_db"):
            RangingScenario(ts, snr_db, 0.0, True, 4e9, 1e-6)
    # 1/df = 1 us on a 0.25 us record: lags past the record repeat the correlation
    with pytest.raises(ValueError, match="ambiguity window 1e-06 s is longer than the 2.5e-07 s"):
        RangingScenario(ToneSet.two_tone(1e6), 16.0, 0.0, True, 4e9, 2.5e-7)
    assert RangingScenario(ToneSet.two_tone(1e6), 16.0, 0.0, True, 4e9, 1e-6)  # window = record
    single = ToneSet.from_pairs([(0.0, 1.0)])  # a single tone's window is the record itself
    assert RangingScenario(single, 16.0, 1e-7, True, 4e9, 2.5e-7).ambiguity_window() == 2.5e-7


def test_monte_carlo_noiseless_limit():
    sc = RangingScenario(
        ToneSet.two_tone(5e8), np.inf, 0.6e-9, True, 4e9, 1e-6, seed=1
    )
    rep = monte_carlo(sc, 3)
    assert rep.failures == 0
    assert rep.rmse_tau * 4e9 < 0.05  # interpolation error only
    with pytest.raises(ValueError):
        monte_carlo(sc, 0)


# a 1 us record holds a whole number of cycles of both tones and occupies two
# bins; a 250 ns one does not, so every bin is occupied and the QR path runs
TONE_CASES = {
    "1us": (ToneSet.two_tone(5e8), 1e-6),
    "250ns": (ToneSet.two_tone(5e8), 2.5e-7),
    # unequal amplitudes make the covariance genuinely complex
    "1us-unequal": (ToneSet.from_pairs([(-2.5e8, 1.0), (2.5e8, 0.5)]), 1e-6),
}


@pytest.mark.parametrize("delay", [0.0, 0.6e-9, 1.3e-9])
def test_monte_carlo_matches_fft_reference(delay):
    # the Monte Carlo correlates at the window lags only; without noise it
    # must agree with the whole-record FFT search of ml_toa_estimate
    for tones, duration in TONE_CASES.values():
        sc = RangingScenario(tones, np.inf, delay, True, 4e9, duration)
        tpl = sc.template()
        ref = ml_toa_estimate(delay_signal(tpl, delay), tpl, (0.0, 1.0 / 5e8))
        rep = monte_carlo(sc, 3)
        assert rep.failures == 0
        assert abs(rep.bias_tau + delay - ref) * 4e9 < 1e-9


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


def test_monte_carlo_failures_at_window_start():
    # a true delay of 0 sits on the window's first lag; at 30 dB the noisy
    # estimates that land just below 0 are small errors, not failures
    sc = RangingScenario(ToneSet.two_tone(5e8), 30.0, 0.0, False, 4e9, 1e-6)
    rep = monte_carlo(sc, 10_000)
    assert rep.failures == 0
    assert 0.9 < rep.crlb_ratio < 1.1


def test_monte_carlo_failure_count_at_low_snr():
    # at 5 dB about 1.6% of trials land past 1.6 ns, more than half a window
    # from 0.6 ns; estimates that stray below 0 keep their small negative
    # error and stay in the rmse
    sc = RangingScenario(ToneSet.two_tone(5e8), 5.0, 0.6e-9, False, 4e9, 1e-6)
    rep = monte_carlo(sc, 10_000)
    assert 100 < rep.failures < 230
    assert rep.rmse_tau < 0.5e-9


@pytest.mark.parametrize("tones, duration", TONE_CASES.values(), ids=TONE_CASES.keys())
def test_lag_noise_factor_matches_sample_domain_gram(tones, duration):
    delay = 0.6e-9
    tpl = synth_two_tone(tones, duration, 4e9).samples
    lags, clean, factor = _window_setup(tones, duration, 4e9, delay, 2e-9)
    assert_array_equal(lags, _search_lags(4e9, (0.0, 2e-9)))
    shifted = shifted_template(tpl, lags)
    gram = shifted.T @ shifted.conj()
    # r = 2 occupied bins, or every bin reduced to L rows
    assert factor.shape == (2 if duration == 1e-6 else len(lags), len(lags))
    assert np.max(np.abs(factor.T @ factor.conj() - gram)) <= 1e-9 * np.max(np.abs(gram))
    reference = delay_signal(synth_two_tone(tones, duration, 4e9), delay).samples @ shifted
    assert np.max(np.abs(clean - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_window_setup_reused_across_snr(tmp_path, capsys):
    def run(snr_db):
        sc = RangingScenario(ToneSet.two_tone(5e8), snr_db, 0.6e-9, False, 4e9, 2.5e-7, seed=5)
        return monte_carlo(sc, 600)

    first, _, third = run(30.0), run(10.0), run(30.0)
    assert first == third
    for array in _window_setup(ToneSet.two_tone(5e8), 2.5e-7, 4e9, 0.6e-9, 2e-9):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0

    # a sweep cell served from the cache equals the same cell set up afresh
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--delta-f", "2.5e8:2.5e8:5e8", "--snr", "10:10:30", "--trials", "300",
            "--duration", "2.5e-7", "--seed", "3", "--out", str(out), "--quiet"]
    assert dispatch(argv) == 0
    capsys.readouterr()
    row = out.read_text().splitlines()[2].split(",")  # 250 MHz at 20 dB
    assert (float(row[0]), float(row[1])) == (2.5e8, 20.0)
    _window_setup.cache_clear()
    sc = RangingScenario(ToneSet.two_tone(2.5e8), 20.0, 0.3 / 2.5e8, False, 4e9, 2.5e-7, seed=3)
    rep = monte_carlo(sc, 300)
    assert float(row[3]) == delay_to_range(rep.rmse_tau, False)
    assert float(row[4]) == rep.crlb_ratio
    assert int(row[5]) == rep.failures


# a 1 us record holds a whole number of cycles of both tones, a 250 ns one does not
@pytest.mark.parametrize("duration", [1e-6, 2.5e-7])
def test_monte_carlo_matches_sample_domain(duration):
    # a brute-force Monte Carlo that adds white noise to every sample of the
    # record must agree in distribution with the lag-domain draw
    trials, delay, window = 4096, 0.6e-9, 2e-9
    sc = RangingScenario(ToneSet.two_tone(5e8), 5.0, delay, False, 4e9, duration, seed=11)
    tpl = sc.template()
    lags = _search_lags(4e9, (0.0, window))
    shifted = shifted_template(tpl.samples, lags)
    rx_clean = delay_signal(tpl, delay).samples
    scale = _noise_sigma(sc.snr_db, 4e9) / np.sqrt(2.0)
    rng = np.random.default_rng(2024)
    tau = []
    for block in range(0, trials, rand.BLOCK_TRIALS):
        noise = rng.standard_normal((rand.BLOCK_TRIALS, 2 * len(tpl))).view(complex)
        tau.append(_refine_peaks(np.abs((rx_clean + scale * noise) @ shifted), lags, 4e9))
    err = np.concatenate(tau) - delay
    failed = np.abs(err) > window / 2
    ok_sq = err[~failed] ** 2
    bound = crlb_toa(sc.zeta_f2(), sc.snr_db)
    ratio = np.mean(ok_sq) / bound
    ratio_se = np.std(ok_sq, ddof=1) / np.sqrt(len(ok_sq)) / bound

    rep = monte_carlo(sc, trials)
    # both sides share one distribution, so each has about the same standard error
    assert abs(rep.crlb_ratio - ratio) <= 4.0 * np.sqrt(2.0) * ratio_se
    p_bf, p_mc = np.mean(failed), rep.failures / trials
    fail_se = np.sqrt((p_bf * (1 - p_bf) + p_mc * (1 - p_mc)) / trials)
    assert abs(p_mc - p_bf) <= 4.0 * fail_se
