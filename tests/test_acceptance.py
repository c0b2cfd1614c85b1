"""Acceptance gate: the numbered capability criteria this toolkit must meet.

Each test prints exactly one "criterion N: PASS/FAIL - summary" line (run
with ``pytest tests/test_acceptance.py -v -s`` to see them) and asserts the
same condition, naming any failed sub-check.
"""

import time

import numpy as np
import pytest

from helpers import DIP_SPECS, three_dip_trace
from rangekit import SPEED_OF_LIGHT
from rangekit.antenna_metrics import find_bands, load_touchstone, write_touchstone
from rangekit.beamform import CoherenceScenario, analytic_gain_fraction, coherent_gain
from rangekit.cli import dispatch
from rangekit.fileio import load_farfield_cuts, save_farfield_cuts
from rangekit.geometry import load_dimensions, reference_dimensions, save_dimensions, validate
from rangekit.phase_center import (
    DisplacementSeries,
    FarFieldCut,
    displacement_stats,
    fit_phase_center,
    point_source_cut,
    wavelength_fraction,
)
from rangekit.ranging import (
    RangingScenario,
    crlb_toa,
    equivalent_accuracy_tradeoff,
    monte_carlo,
)
from rangekit.waveform import (
    SpectrumModel,
    ToneSet,
    mean_squared_bandwidth,
    rect_rms_bandwidth,
    spectrum_of,
    synth_two_tone,
    two_tone_rms_bandwidth,
)


def _verdict(num, summary, checks):
    failed = [name for name, ok in checks.items() if not ok]
    status = "PASS" if not failed else "FAIL"
    tail = f" [failed: {', '.join(failed)}]" if failed else ""
    print(f"criterion {num}: {status} - {summary}{tail}")
    assert not failed, f"criterion {num} failed sub-checks: {failed}"


def test_criterion_1_spectral_moment_closed_forms():
    start = time.perf_counter()
    sep = 1e9
    analytic = two_tone_rms_bandwidth(sep)
    signal = synth_two_tone(ToneSet.two_tone(sep), duration=1e-6, sample_rate=4e9)
    discrete = mean_squared_bandwidth(spectrum_of(signal))

    width = 1e9
    n_bins = 4096
    df = width / n_bins
    centers = -width / 2 + df * (np.arange(n_bins) + 0.5)
    flat = SpectrumModel(
        frequencies=centers,
        energy_density=np.full(n_bins, 1.0 / width),
    )
    rect_numeric = mean_squared_bandwidth(flat)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        f"analytic {analytic:.6e}, discrete off by "
        f"{abs(discrete / analytic - 1):.2e}, rect off by "
        f"{abs(rect_numeric / rect_rms_bandwidth(width) - 1):.2e}, {elapsed:.2f}s",
        {
            "analytic_exact": analytic == (np.pi * sep) ** 2,
            "discrete_within_1pct": abs(discrete / analytic - 1) < 0.01,
            "rect_within_1pct": abs(rect_numeric / rect_rms_bandwidth(width) - 1) < 0.01,
            "under_1s": elapsed < 1.0,
        },
    )


def test_criterion_2_bound_scaling_and_tradeoff():
    zeta = two_tone_rms_bandwidth(5e8)
    base = np.sqrt(crlb_toa(zeta, 16.0))
    doubled_sep = np.sqrt(crlb_toa(two_tone_rms_bandwidth(1e9), 16.0))
    step_db = 20.0 * np.log10(2.0)  # the exact dB step that halves the std
    raised_snr = np.sqrt(crlb_toa(zeta, 16.0 + step_db))
    tradeoff = equivalent_accuracy_tradeoff(5e8, 16.0, 1e9)
    _verdict(
        2,
        f"separation halves std to {doubled_sep / base:.12f}x, +{step_db:.4f} dB "
        f"halves to {raised_snr / base:.12f}x, tradeoff {tradeoff:.4f} dB",
        {
            "separation_halves": abs(doubled_sep / base - 0.5) < 1e-9,
            "snr_step_halves": abs(raised_snr / base - 0.5) < 1e-9,
            "tradeoff_9_98": abs(tradeoff - 9.98) < 0.01,
        },
    )


def test_criterion_3_estimator_efficiency():
    start = time.perf_counter()
    reports = {}
    for snr_db in (20.0, 25.0, 30.0):
        scenario = RangingScenario(
            tones=ToneSet.two_tone(5e8),
            snr_db=snr_db,
            true_delay=0.6e-9,
            two_way=False,
            sample_rate=4e9,
            duration=1e-6,
            seed=0,
        )
        reports[snr_db] = monte_carlo(scenario, 10_000)
    repeat = monte_carlo(
        RangingScenario(
            tones=ToneSet.two_tone(5e8),
            snr_db=20.0,
            true_delay=0.6e-9,
            two_way=False,
            sample_rate=4e9,
            duration=1e-6,
            seed=0,
        ),
        10_000,
    )
    elapsed = time.perf_counter() - start
    ratios = {snr: rep.crlb_ratio for snr, rep in reports.items()}
    checks = {"deterministic_rerun": repeat == reports[20.0], "under_2min": elapsed < 120.0}
    for snr, rep in reports.items():
        checks[f"ratio_in_band_{snr:g}dB"] = 1.0 <= rep.crlb_ratio <= 2.0
        checks[f"no_failures_{snr:g}dB"] = rep.failures == 0
    _verdict(
        3,
        "rmse^2/bound " + ", ".join(f"{r:.3f}@{s:g}dB" for s, r in ratios.items())
        + f", {elapsed:.1f}s",
        checks,
    )


THETA = np.arange(-30.0, 31.0)
TRUE_X0, TRUE_Z0 = 0.002, 0.0141
BANDS_HZ = (1.88e9, 9.56e9, 10.49e9)


def test_criterion_4_phase_center_recovery():
    checks = {}
    noiseless_errs, noisy_errs = [], []
    for f in BANDS_HZ:
        clean = point_source_cut(TRUE_X0, TRUE_Z0, f, THETA)
        fit = fit_phase_center(clean)
        err = float(np.hypot(fit.x0_m - TRUE_X0, fit.z0_m - TRUE_Z0))
        noiseless_errs.append(err)
        checks[f"noiseless_{f / 1e9:g}GHz"] = err < 1e-6

        estimates = np.empty((100, 2))
        for s in range(100):
            rng = np.random.default_rng(s)
            noisy = FarFieldCut(
                phi_cut_deg=clean.phi_cut_deg,
                frequency_hz=f,
                theta_deg=THETA,
                magnitude_db=clean.magnitude_db,
                phase_deg=clean.phase_deg + rng.normal(0.0, 5.0, THETA.size),
            )
            noisy_fit = fit_phase_center(noisy)
            estimates[s] = (noisy_fit.x0_m, noisy_fit.z0_m)
        mean_est = estimates.mean(axis=0)
        noisy_err = float(np.hypot(mean_est[0] - TRUE_X0, mean_est[1] - TRUE_Z0))
        noisy_errs.append(noisy_err)
        checks[f"noisy_mean_{f / 1e9:g}GHz"] = noisy_err < 1e-3
    frac = wavelength_fraction(0.0141, 1.88e9)
    checks["wavelength_fraction"] = abs(frac - 0.0884) < 1e-4
    _verdict(
        4,
        f"noiseless err <= {max(noiseless_errs):.1e} m, noisy mean err <= "
        f"{max(noisy_errs) * 1e3:.2f} mm over 100 seeds, z0 = {frac:.4f} wavelengths",
        checks,
    )


def test_criterion_5_displacement_statistics():
    rng = np.random.default_rng(17)
    theta = np.arange(-30.0, 31.0)
    dx = 0.0002 + 0.0005 * rng.standard_normal(theta.size)
    dz = 0.0141 + 0.002 * rng.standard_normal(theta.size)
    stats = displacement_stats(DisplacementSeries(theta, dx, dz))
    exact = (
        stats.mean_x0_m == float(np.mean(dx))
        and stats.sd_x0_m == float(np.std(dx, ddof=1))
        and stats.mean_z0_m == float(np.mean(dz))
        and stats.sd_z0_m == float(np.std(dz, ddof=1))
    )
    const = displacement_stats(
        DisplacementSeries(theta, np.full(theta.size, 0.0002), np.full(theta.size, 0.0141))
    )
    _verdict(
        5,
        f"mean/SD match the brute-force oracle exactly; constant series gives "
        f"({const.mean_x0_m:g}, {const.mean_z0_m:g}) with zero SD",
        {
            "matches_oracle_exactly": exact,
            "constant_means": (const.mean_x0_m, const.mean_z0_m) == (0.0002, 0.0141),
            "constant_zero_sd": const.sd_x0_m == 0.0 and const.sd_z0_m == 0.0,
            "count": stats.count == 61 and stats.sd_defined,
        },
    )


def test_criterion_6_band_metrics():
    bands = find_bands(three_dip_trace())
    checks = {"three_bands": len(bands) == 3}
    fbw_errs = []
    for band, (fc, s_min, fbw) in zip(bands, DIP_SPECS):
        tag = f"{fc / 1e9:g}GHz"
        fbw_errs.append(abs(band.fractional_bw - fbw))
        checks[f"fbw_{tag}"] = abs(band.fractional_bw - fbw) < 2e-4
        checks[f"min_exact_{tag}"] = (
            band.s11_min_db == s_min and band.f_resonance_hz == fc
        )
    _verdict(
        6,
        "fractional bandwidths "
        + ", ".join(f"{b.fractional_bw * 100:.2f}%" for b in bands)
        + f", worst error {max(fbw_errs) * 100:.4f} pp, minima exact",
        checks,
    )


def test_criterion_7_coherent_gain():
    start = time.perf_counter()
    sigma_range = 0.5 * SPEED_OF_LIGHT / (2 * np.pi * 1.88e9)  # sigma_phi = 0.5 rad
    scenario = CoherenceScenario(
        n_nodes=10, f_action_hz=1.88e9, sigma_range_m=sigma_range, trials=100_000
    )
    report = coherent_gain(scenario)
    closed_form = analytic_gain_fraction(10, 0.5)
    zero = coherent_gain(
        CoherenceScenario(n_nodes=10, f_action_hz=1.88e9, sigma_range_m=0.0, trials=1000)
    )
    elapsed = time.perf_counter() - start
    rel_err = abs(report.mean_gain_fraction / closed_form - 1)
    _verdict(
        7,
        f"mean gain fraction {report.mean_gain_fraction:.4f} vs closed form "
        f"{closed_form:.4f} ({rel_err * 100:.2f}% off), zero-error case "
        f"{zero.mean_gain_fraction:g}, {elapsed:.1f}s",
        {
            "within_2pct": rel_err < 0.02,
            "zero_error_exact": zero.mean_gain_fraction == 1.0,
            "under_10s": elapsed < 10.0,
        },
    )


def test_criterion_8_determinism_across_workers():
    scenario = RangingScenario(
        tones=ToneSet.two_tone(5e8),
        snr_db=25.0,
        true_delay=0.6e-9,
        two_way=False,
        sample_rate=4e9,
        duration=2.5e-7,
        seed=99,
    )
    ranging_reports = [monte_carlo(scenario, 600, workers=w) for w in (1, 2, 8)]
    coh = CoherenceScenario(
        n_nodes=10, f_action_hz=1.88e9, sigma_range_m=0.004, trials=3000, seed=99
    )
    gain_reports = [coherent_gain(coh, workers=w) for w in (1, 2, 8)]
    _verdict(
        8,
        "Monte Carlo reports bit-identical for 1, 2 and 8 workers",
        {
            "ranging_reports_equal": ranging_reports[0] == ranging_reports[1] == ranging_reports[2],
            "gain_reports_equal": gain_reports[0] == gain_reports[1] == gain_reports[2],
        },
    )


def test_criterion_9_format_round_trips(tmp_path):
    trace = three_dip_trace(step_hz=10e6)
    ts_a = tmp_path / "a.s1p"
    ts_b = tmp_path / "b.s1p"
    write_touchstone(trace, ts_a)
    loaded = load_touchstone(ts_a)
    write_touchstone(loaded, ts_b)
    again = load_touchstone(ts_b)
    ts_err = float(np.max(np.abs(again.s11_db - trace.s11_db)))

    cut = point_source_cut(TRUE_X0, TRUE_Z0, 1.88e9, THETA)
    ff_path = tmp_path / "cut.csv"
    save_farfield_cuts(cut, ff_path)
    ff_back = load_farfield_cuts(ff_path)[0]
    ff_exact = (
        np.array_equal(ff_back.theta_deg, cut.theta_deg)
        and np.array_equal(ff_back.magnitude_db, cut.magnitude_db)
        and np.array_equal(ff_back.phase_deg, cut.phase_deg)
    )

    dims = reference_dimensions()
    geo_path = tmp_path / "dims.json"
    save_dimensions(dims, geo_path)
    geo_back = load_dimensions(geo_path)
    geo_exact = geo_back.lengths_mm == dims.lengths_mm and geo_back.substrate == dims.substrate

    violations = validate(dims)
    cli_exit = dispatch(["geometry", "validate", "--in", str(geo_path), "-q"])
    _verdict(
        9,
        f"Touchstone round-trip error {ts_err:.1e} dB, far-field and dimension "
        f"records identical, reference record has {len(violations)} violations",
        {
            "touchstone_1e9": ts_err < 1e-9,
            "farfield_exact": ff_exact,
            "geometry_exact": geo_exact,
            "reference_valid": violations == [] and cli_exit == 0,
        },
    )
