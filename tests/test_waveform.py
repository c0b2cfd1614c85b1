"""Waveform synthesis and spectral-moment tests."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rangekit.waveform import (
    SampledSignal,
    SpectrumModel,
    Tone,
    ToneSet,
    mean_squared_bandwidth,
    rect_rms_bandwidth,
    spectrum_of,
    synth_two_tone,
    two_tone_rms_bandwidth,
    two_tone_vs_rect_ratio,
)


def test_toneset_invariants():
    with pytest.raises(ValueError):
        ToneSet(())
    with pytest.raises(ValueError):
        ToneSet((Tone(1e9), Tone(1e9)))  # not strictly increasing
    with pytest.raises(ValueError):
        ToneSet((Tone(-1e9), Tone(1e9, amplitude=0.0)))
    ts = ToneSet.two_tone(1e9)
    assert ts.separation == 1e9
    assert_allclose(ts.frequencies, [-5e8, 5e8])
    assert_allclose(ts.energy_weights(), [0.5, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_toneset_rejects_non_finite_fields(bad):
    for tone in (Tone(bad), Tone(1e9, amplitude=bad), Tone(1e9, phase=bad)):
        with pytest.raises(ValueError, match="finite"):
            ToneSet((Tone(-1e9), tone))
    with pytest.raises(ValueError, match="finite"):
        ToneSet.two_tone(abs(bad))


def test_two_tone_synthesis_dominant_bins():
    # 1 us at 4 GS/s holds integer cycles of both +-250 MHz tones, so the
    # DFT should put everything into exactly two bins
    sig = synth_two_tone(ToneSet.two_tone(5e8), 1e-6, 4e9)
    assert len(sig) == 4000
    mag = np.abs(np.fft.fft(sig.samples))
    order = np.argsort(mag)[::-1]
    freqs = np.fft.fftfreq(4000, d=1 / 4e9)
    assert set(np.round(freqs[order[:2]] / 1e6)) == {-250.0, 250.0}
    floor = mag[order[2:]].max()
    assert 20 * np.log10(mag[order[1]] / floor) >= 60.0


def test_single_tone_constant_envelope():
    sig = synth_two_tone(ToneSet((Tone(0.0),)), 1e-6, 1e9)
    assert_allclose(np.abs(sig.samples), np.abs(sig.samples[0]), rtol=1e-12)
    assert_allclose(np.angle(sig.samples), 0.0, atol=1e-12)


def test_two_tone_beat_envelope():
    # sum of tones at +-500 MHz beats as |cos(pi * 1 GHz * t)|
    sig = synth_two_tone(ToneSet.two_tone(1e9), 1e-6, 4e9)
    t = np.arange(len(sig)) / 4e9
    expected = np.abs(np.cos(np.pi * 1e9 * t))
    env = np.abs(sig.samples)
    assert_allclose(env / env.max(), expected, atol=1e-9)


def test_synthesis_errors():
    with pytest.raises(ValueError):
        synth_two_tone(ToneSet.two_tone(1e9), 0.0, 4e9)
    with pytest.raises(ValueError):
        synth_two_tone(ToneSet.two_tone(4e9), 1e-6, 4e9)  # Nyquist
    for duration, sample_rate in ((np.inf, 4e9), (np.nan, 4e9), (1e-6, np.inf), (1e300, 4e9)):
        with pytest.raises(ValueError, match="finite"):
            synth_two_tone(ToneSet.two_tone(1e9), duration, sample_rate)
    # 2**59 complex128 samples are 2**63 bytes, one past what numpy can index;
    # every size is rejected before anything is allocated, and integer fields
    # multiply as floats, not past int64 into a TypeError
    for duration, sample_rate, n in ((1.0, 2.0**59, "5.76e+17"), (1e-6, 1e300, "1e+294"),
                                     (4, 2**62, "1.84e+19")):
        with pytest.raises(ValueError, match=re.escape(
                f"a {duration:g} s record at {sample_rate:g} Hz holds {n} samples")):
            synth_two_tone(ToneSet.two_tone(1e9), duration, sample_rate)


def test_unit_energy_normalization():
    for sep in (2.5e8, 5e8, 1e9):
        sig = synth_two_tone(ToneSet.two_tone(sep), 1e-6, 4e9)
        assert abs(sig.energy - 1.0) < 1e-9


def test_spectrum_two_bins_half_energy_each():
    sig = synth_two_tone(ToneSet.two_tone(5e8), 1e-6, 4e9)
    spec = spectrum_of(sig)
    bin_energy = spec.energy_density * spec.bin_width
    top = np.sort(bin_energy)[::-1]
    assert abs(top[0] - 0.5) < 1e-6 and abs(top[1] - 0.5) < 1e-6


def test_spectrum_degenerate_inputs():
    with pytest.raises(ValueError):
        spectrum_of(SampledSignal(np.zeros(64), 1e9))
    spec = spectrum_of(SampledSignal(np.ones(64), 1e9))
    at_dc = np.argmin(np.abs(spec.frequencies))
    assert spec.energy_density[at_dc] * spec.bin_width == pytest.approx(1.0, abs=1e-12)


def test_parseval_for_synthesized_signals():
    for sep, fs in ((5e8, 4e9), (1e9, 4e9), (2.5e8, 2e9)):
        spec = spectrum_of(synth_two_tone(ToneSet.two_tone(sep), 1e-6, fs))
        assert abs(spec.total_energy() - 1.0) < 1e-6


def test_msb_two_tone_closed_form_exact():
    zeta = mean_squared_bandwidth(ToneSet.two_tone(1e9))
    assert zeta == (np.pi * 1e9) ** 2
    assert two_tone_rms_bandwidth(1e9) == (np.pi * 1e9) ** 2


def test_msb_single_tone_is_zero():
    assert mean_squared_bandwidth(ToneSet((Tone(0.0),))) == 0.0


def test_msb_discrete_matches_analytic():
    ts = ToneSet.two_tone(1e9)
    za = mean_squared_bandwidth(ts)
    zd = mean_squared_bandwidth(spectrum_of(synth_two_tone(ts, 1e-6, 4e9)))
    assert abs(zd - za) / za < 0.01


def test_msb_rect_spectrum_grid():
    # flat density 1/B over [-B/2, B/2], midpoint grid; the grid sum lands
    # within (1/M^2) of the closed form (2 pi)^2 B^2 / 12
    b, m = 1e9, 1000
    df = b / m
    centers = -b / 2 + df / 2 + df * np.arange(m)
    spec = SpectrumModel(frequencies=centers, energy_density=np.full(m, 1 / b))
    assert mean_squared_bandwidth(spec) == pytest.approx(rect_rms_bandwidth(b), rel=1e-2)
    assert rect_rms_bandwidth(1e9) == pytest.approx(3.2899e18, rel=1e-4)


def test_msb_requires_normalized_spectrum():
    f = np.linspace(-5e8, 5e8, 101)
    spec = SpectrumModel(frequencies=f, energy_density=np.full(101, 1.0))
    with pytest.raises(ValueError):
        mean_squared_bandwidth(spec)


def test_msb_frequency_scaling():
    za = mean_squared_bandwidth(ToneSet.from_pairs([(-3e8, 1.0), (1e8, 0.5), (4e8, 2.0)]))
    z2 = mean_squared_bandwidth(ToneSet.from_pairs([(-6e8, 1.0), (2e8, 0.5), (8e8, 2.0)]))
    assert z2 == 4.0 * za  # exact for analytic tone sets
    # sampled version: scale tones and rate together so leakage is identical
    zd1 = mean_squared_bandwidth(spectrum_of(synth_two_tone(ToneSet.two_tone(2.5e8), 1e-6, 4e9)))
    zd2 = mean_squared_bandwidth(spectrum_of(synth_two_tone(ToneSet.two_tone(5e8), 1e-6, 8e9)))
    assert zd2 / zd1 == pytest.approx(4.0, rel=1e-6)


def test_msb_invariant_under_common_phase():
    base = ToneSet.two_tone(5e8)
    shifted = ToneSet(tuple(Tone(t.frequency, t.amplitude, t.phase + 1.234) for t in base.tones))
    za = mean_squared_bandwidth(base)
    assert mean_squared_bandwidth(shifted) == za
    zd_base = mean_squared_bandwidth(spectrum_of(synth_two_tone(base, 1e-6, 4e9)))
    zd_shift = mean_squared_bandwidth(spectrum_of(synth_two_tone(shifted, 1e-6, 4e9)))
    assert zd_shift == pytest.approx(zd_base, rel=1e-12)


def test_two_tone_vs_rect_ratio():
    assert two_tone_vs_rect_ratio(1e9, 1e9) == pytest.approx(3.0, rel=1e-12)
    assert two_tone_vs_rect_ratio(5e8, 5e8) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        two_tone_vs_rect_ratio(0.0, 1e9)
    with pytest.raises(ValueError):
        two_tone_vs_rect_ratio(1e9, 0.0)


def test_spectrum_model_validation():
    with pytest.raises(ValueError):
        SpectrumModel(
            frequencies=np.array([0.0, 1.0, 3.0]),
            energy_density=np.ones(3),
        )
