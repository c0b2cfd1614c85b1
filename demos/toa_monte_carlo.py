"""Monte Carlo delay estimation against the accuracy bound.

Simulates matched-filter delay estimation of a two-tone pulse in white
noise over a few SNRs and compares the measured rmse against the bound.
Up to about 40 dB the estimator runs close to the bound; above that, the
bias of its parabolic peak refinement, a floor of about 0.14 mm of range
rmse at 500 MHz, dominates.  As the SNR drops, the periodic correlation of
a pure tone pair starts producing ambiguity failures (peaks picked one
1/delta_f period off), which are counted separately rather than folded
into the rmse.
"""

from rangekit import SPEED_OF_LIGHT
from rangekit.ranging import RangingScenario, crlb_result, monte_carlo_column
from rangekit.waveform import ToneSet

SEP = 500e6
TRIALS = 2000

scenario_args = dict(
    tones=ToneSet.two_tone(SEP),
    true_delay=0.6e-9,  # inside the 2 ns ambiguity window
    two_way=False,
    sample_rate=4e9,
    duration=1e-6,
    seed=0,
)

print(f"two tones {SEP / 1e6:.0f} MHz apart, {TRIALS} trials per SNR")
print(f"{'SNR (dB)':>8} {'bound (mm)':>11} {'rmse (mm)':>10} {'rmse^2/bound':>13} {'failures':>9}")
# one Monte Carlo column: every SNR scales the same noise draws
column = [
    RangingScenario(snr_db=snr_db, **scenario_args)
    for snr_db in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
]
for sc, rep in zip(column, monte_carlo_column(column, TRIALS, workers=4)):
    bound = crlb_result(sc.zeta_f2(), sc.snr_db, sc.two_way)
    rmse_mm = rep.rmse_tau * SPEED_OF_LIGHT * 1e3
    print(
        f"{sc.snr_db:>8.0f} {bound.std_range * 1e3:>11.3f} {rmse_mm:>10.3f}"
        f" {rep.crlb_ratio:>13.3f} {rep.failures:>9d}"
    )

print()
print("the ratio column should sit just above 1 once failures vanish;")
print("failures at low SNR are the price of the unresolved tone-pair ambiguity")
