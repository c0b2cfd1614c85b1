"""From ranging error to distributed-array coherent gain.

An open-loop coherent array only reaches its ideal N^2 power gain if each
node knows its position to a small fraction of the wavelength at the
frequency it transmits.  This script sweeps the per-node ranging error,
converts it to phase error at the action frequency, and reports the Monte
Carlo gain fraction next to the closed form.
"""

import numpy as np

from rangekit import SPEED_OF_LIGHT
from rangekit.beamform import CoherenceScenario, coherent_gain, range_to_phase_error

N = 10
F_ACTION = 1.88e9
TRIALS = 20000
lam = SPEED_OF_LIGHT / F_ACTION

print(f"{N}-node array at {F_ACTION / 1e9:.2f} GHz (wavelength {lam * 1e3:.1f} mm), "
      f"{TRIALS} trials per point")
print(f"{'sigma (mm)':>10} {'frac of wl':>10} {'phase (rad)':>11} "
      f"{'mean gain':>9} {'analytic':>9} {'P(>90%)':>8}")
for sigma_mm in (0.0, 2.0, 4.0, 8.0, 16.0, 32.0):
    sigma_m = sigma_mm * 1e-3
    scen = CoherenceScenario(
        n_nodes=N, f_action_hz=F_ACTION, sigma_range_m=sigma_m, trials=TRIALS, seed=1
    )
    rep = coherent_gain(scen, workers=4)
    print(f"{sigma_mm:>10.1f} {sigma_m / lam:>10.3f} {scen.sigma_phi():>11.3f} "
          f"{rep.mean_gain_fraction:>9.3f} {rep.analytic_gain_fraction:>9.3f} "
          f"{rep.p_gain_above_90pct:>8.2f}")

print()
# the classic rule of thumb: lambda/10 position knowledge keeps most of the gain
sigma_tenth = lam / 10.0
phase = range_to_phase_error(sigma_tenth, F_ACTION)
rep = coherent_gain(
    CoherenceScenario(N, F_ACTION, sigma_tenth, trials=TRIALS, seed=1), workers=4
)
print(f"at lambda/10 ({sigma_tenth * 1e3:.1f} mm, {phase:.3f} rad): "
      f"mean gain fraction {rep.mean_gain_fraction:.3f}")
print(f"retrodirective (two-way) links double the phase mapping: "
      f"{range_to_phase_error(sigma_tenth, F_ACTION, two_way=True):.3f} rad")
