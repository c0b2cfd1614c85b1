"""Why two tones at the band edges: spectral moments and the accuracy bound.

Walks the closed-form relationships: the mean-squared bandwidth of a tone
pair vs a filled flat spectrum of the same width, how the delay bound
scales with separation and SNR, and the SNR a wider separation buys back.
"""

import numpy as np

from rangekit.ranging import crlb_result, equivalent_accuracy_tradeoff
from rangekit.waveform import (
    ToneSet,
    mean_squared_bandwidth,
    rect_rms_bandwidth,
    spectrum_of,
    synth_two_tone,
    two_tone_rms_bandwidth,
    two_tone_vs_rect_ratio,
)

SEP = 1e9  # tone separation, Hz

print("== spectral moments ==")
zeta_pair = two_tone_rms_bandwidth(SEP)
zeta_rect = rect_rms_bandwidth(SEP)
print(f"two tones {SEP / 1e9:.1f} GHz apart:  zeta_f^2 = {zeta_pair:.4e} rad^2/s^2")
print(f"flat spectrum, same width:  zeta_f^2 = {zeta_rect:.4e} rad^2/s^2")
print(f"ratio = {two_tone_vs_rect_ratio(SEP, SEP):.1f} "
      "(all energy at the band edges triples the timing resource)")

# the discrete spectrum of a synthesized pulse reproduces the closed form
sig = synth_two_tone(ToneSet.two_tone(SEP), duration=1e-6, sample_rate=4e9)
zeta_discrete = mean_squared_bandwidth(spectrum_of(sig))
zeta_analytic = mean_squared_bandwidth(ToneSet.two_tone(SEP))
print(f"synthesized 1 us pulse:     zeta_f^2 = {zeta_discrete:.4e} "
      f"(vs analytic, off by {abs(zeta_discrete / zeta_analytic - 1):.1e})")

print()
print("== accuracy bound vs separation, two-way, SNR = 16 dB ==")
print(f"{'sep (MHz)':>10} {'std range (mm)':>15}")
for sep in (125e6, 250e6, 500e6, 1e9, 2e9):
    bound = crlb_result(two_tone_rms_bandwidth(sep), 16.0, two_way=True)
    print(f"{sep / 1e6:>10.0f} {bound.std_range * 1e3:>15.2f}")
print("each doubling of the separation halves the bound")

print()
print("== separation vs SNR tradeoff ==")
snr_equiv = equivalent_accuracy_tradeoff(500e6, 16.0, 1e9)
print(f"(500 MHz, 16 dB) is matched by (1 GHz, {snr_equiv:.2f} dB): "
      f"{16.0 - snr_equiv:.2f} dB of SNR bought by doubling the separation")
