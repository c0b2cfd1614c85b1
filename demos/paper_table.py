"""The paper's numbers side by side, one row each, from seeded synthetic inputs.

1. S11 below -10 dB at 1.88, ~9.5 and ~10.5 GHz: the bands of a sweep with
   three matched dips (``rangekit s11-bands``).
2. A phase-centre displacement of about lambda/10 at the 1.88 GHz action
   frequency: the fitted offset between a 9.56 GHz ranging cut whose source
   sits RANGING_OFFSET_M further along boresight and a 1.88 GHz action cut,
   both with PHASE_NOISE_DEG of phase noise (``rangekit phase-center``).
3. Ranging by a sparse two-tone waveform: the paper's 9.56/10.49 GHz tones
   as a baseband pair 930 MHz apart, the accuracy bound against the Monte
   Carlo ML estimator (``rangekit range-sim``).
4. What distributed beamforming gets from that ranging: the coherent gain of
   a 10-node array at 1.88 GHz whose per-node range error is row 3's rmse
   (``rangekit coherence``).

Each value is the one the named command reports for the same input; values
are held in SI units and printed scaled.  Run with ``PYTHONPATH=src``.
"""

import numpy as np

from rangekit.antenna_metrics import SParamTrace, find_bands
from rangekit.beamform import CoherenceScenario, coherent_gain
from rangekit.phase_center import (
    FarFieldCut,
    displacement_series,
    displacement_stats,
    point_source_cut,
    wavelength_fraction,
    wrap_angle_deg,
)
from rangekit.ranging import RangingScenario, crlb_result, delay_to_range, monte_carlo
from rangekit.waveform import ToneSet

F_ACTION = 1.88e9
# the three matched bands: (center Hz, S11 minimum dB, fractional bandwidth)
DIP_SPECS = ((F_ACTION, -24.70, 0.0106), (9.56e9, -12.26, 0.0397), (10.49e9, -24.67, 0.0171))
RANGING_OFFSET_M = 0.016  # about a tenth of the 159.5 mm action wavelength
PHASE_NOISE_DEG = 0.1
RANGING_TRIALS = 10_000
SEED = 0


def three_dip_trace() -> SParamTrace:
    """1-11 GHz sweep in 1 MHz steps of capped parabolas whose -10 dB
    crossings sit at fc * (1 +/- fbw/2)."""
    f = 1e9 + 1e6 * np.arange(10_001)
    dips = [s_min + (-10.0 - s_min) / (fbw * fc / 2.0) ** 2 * (f - fc) ** 2
            for fc, s_min, fbw in DIP_SPECS]
    s = np.minimum(np.minimum(dips[0], dips[1]), dips[2])
    return SParamTrace(frequency_hz=f, s11_db=np.minimum(s, 0.0))


def phase_cuts() -> tuple[FarFieldCut, FarFieldCut]:
    """(ranging cut at 9.56 GHz, action cut at 1.88 GHz), wrapped, with
    seeded Gaussian phase noise."""
    rng = np.random.default_rng(SEED)
    theta = np.arange(-60.0, 61.0)

    def cut(z0_m, frequency_hz):
        clean = point_source_cut(0.0, z0_m, frequency_hz, theta, wrap=False)
        noisy = clean.phase_deg + rng.normal(0.0, PHASE_NOISE_DEG, theta.size)
        return FarFieldCut(0.0, frequency_hz, theta, clean.magnitude_db, wrap_angle_deg(noisy))

    return cut(RANGING_OFFSET_M, DIP_SPECS[1][0]), cut(0.0, F_ACTION)


def ranging_scenario() -> RangingScenario:
    """Tones at +/-465 MHz, 25 dB, 1 us at 4 GS/s, one-way, delay 0.3/df."""
    separation = DIP_SPECS[2][0] - DIP_SPECS[1][0]
    return RangingScenario(ToneSet.two_tone(separation), 25.0, 0.3 / separation, False,
                           4e9, 1e-6, seed=SEED)


def coherence_scenario(sigma_range_m: float) -> CoherenceScenario:
    """10 nodes at 1.88 GHz, each with a one-way range error of sigma_range_m."""
    return CoherenceScenario(10, F_ACTION, sigma_range_m, trials=100_000, seed=SEED)


def rows() -> list:
    """(label, unit, value in SI, uncertainty or None) per paper number; the
    uncertainty is the sd over fit windows (sd) or the standard error (se)."""
    out = []
    for i, band in enumerate(find_bands(three_dip_trace()), 1):
        out += [(f"band {i}: resonance", "GHz", band.f_resonance_hz, None),
                (f"band {i}: S11 minimum", "dB", band.s11_min_db, None),
                (f"band {i}: -10 dB fractional bandwidth", "%", band.fractional_bw, None)]
    stats = displacement_stats(displacement_series(*phase_cuts()))
    out += [("phase centre dx0, ranging - action (sd)", "mm", stats.mean_x0_m, stats.sd_x0_m),
            ("phase centre dz0, ranging - action (sd)", "mm", stats.mean_z0_m, stats.sd_z0_m),
            ("|dz0| / action wavelength", "", wavelength_fraction(abs(stats.mean_z0_m), F_ACTION),
             None)]
    sc = ranging_scenario()
    report = monte_carlo(sc, RANGING_TRIALS)
    rmse_m = delay_to_range(report.rmse_tau, sc.two_way)
    out += [("ranging bound (CRLB std)", "mm",
             crlb_result(sc.zeta_f2(), sc.snr_db, sc.two_way).std_range, None),
            ("ranging Monte Carlo rmse", "mm", rmse_m, None),
            ("rmse^2 / CRLB variance", "", report.crlb_ratio, None),
            (f"ranging failures in {RANGING_TRIALS} trials", "", report.failures, None)]
    gain = coherent_gain(coherence_scenario(rmse_m))
    out += [("coherent gain / N^2, Monte Carlo (se)", "", gain.mean_gain_fraction,
             gain.se_mean_gain_fraction),
            ("coherent gain / N^2, closed form", "", gain.analytic_gain_fraction, None)]
    return out


SCALE = {"GHz": 1e-9, "dB": 1.0, "%": 100.0, "mm": 1e3, "": 1.0}

if __name__ == "__main__":
    for label, unit, value, err in rows():
        shown = f"{value * SCALE[unit]:.4g}" + ("" if err is None else f" +/- {err * SCALE[unit]:.2g}")
        print(f"{label:<42} {shown:>20} {unit}".rstrip())
