"""Ranging waveform synthesis and spectral moments.

Frequencies throughout are baseband-equivalent, i.e. relative to the band
center of whatever carrier the waveform rides on.  With that convention the
mean-squared bandwidth is an intrinsic property of the waveform: two equal
tones separated by ``df`` have mean-squared bandwidth ``(pi*df)**2``
regardless of the RF carrier.  Absolute-RF spectral moments are deliberately
not computed.

Energy conventions: a :class:`SampledSignal` approximates a continuous-time
signal, so its energy is ``sum(|x|**2)/sample_rate``.  Spectra are always
normalized to unit energy (``integral |G(f)|**2 df = 1``) before any moment
is taken, so signal amplitude never leaks into the bandwidth numbers.

Spectra are typed: a :class:`ToneSet` is the analytic spectrum and a
:class:`SpectrumModel` the discrete one (a uniform grid and its density), and
:func:`mean_squared_bandwidth` takes either.  ``SpectrumModel`` no longer has
a ``kind`` tag or a ``from_tones`` constructor; pass the ``ToneSet`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tone:
    """One CW tone: frequency in Hz (band-center relative), linear amplitude,
    phase in radians."""

    frequency: float
    amplitude: float = 1.0
    phase: float = 0.0


@dataclass(frozen=True)
class ToneSet:
    """A sparse set of CW tones, ordered by strictly increasing frequency,
    with every frequency, amplitude and phase finite."""

    tones: tuple[Tone, ...]

    def __post_init__(self):
        if len(self.tones) == 0:
            raise ValueError("ToneSet must contain at least one tone")
        if not np.all(np.isfinite([(t.frequency, t.amplitude, t.phase) for t in self.tones])):
            raise ValueError("tone frequencies, amplitudes and phases must be finite")
        freqs = [t.frequency for t in self.tones]
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise ValueError("tone frequencies must be strictly increasing")
        if any(t.amplitude <= 0 for t in self.tones):
            raise ValueError("tone amplitudes must be positive")

    @classmethod
    def from_pairs(cls, pairs) -> "ToneSet":
        """Build from an iterable of (frequency, amplitude[, phase]) tuples."""
        return cls(tuple(Tone(*p) for p in pairs))

    @classmethod
    def two_tone(cls, separation: float, amplitude: float = 1.0) -> "ToneSet":
        """Equal-amplitude tone pair at +/- separation/2 about band center."""
        if separation <= 0:
            raise ValueError("tone separation must be positive")
        return cls((Tone(-separation / 2.0, amplitude), Tone(+separation / 2.0, amplitude)))

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([t.frequency for t in self.tones])

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([t.amplitude for t in self.tones])

    @property
    def phases(self) -> np.ndarray:
        return np.array([t.phase for t in self.tones])

    @property
    def separation(self) -> float:
        """Highest minus lowest tone frequency (the ambiguity-defining span)."""
        return float(self.tones[-1].frequency - self.tones[0].frequency)

    def energy_weights(self) -> np.ndarray:
        """Per-tone energy fractions, normalized to sum to 1."""
        a2 = self.amplitudes**2
        return a2 / a2.sum()


@dataclass(frozen=True)
class SampledSignal:
    """Complex baseband samples at a fixed rate."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    @property
    def energy(self) -> float:
        """Continuous-time energy approximation sum(|x|^2) * dt."""
        return float(np.sum(np.abs(self.samples) ** 2) / self.sample_rate)


@dataclass(frozen=True)
class SpectrumModel:
    """Discrete, energy-normalized signal spectrum: a uniform frequency grid
    and an energy density (1/Hz) that integrates to one over it.  The
    analytic spectrum of a tone set is the :class:`ToneSet` itself."""

    frequencies: np.ndarray
    energy_density: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        d = np.asarray(self.energy_density, dtype=float)
        if f.ndim != 1 or f.shape != d.shape or len(f) < 2:
            raise ValueError("discrete spectrum needs matching 1-D frequency/density arrays")
        df = np.diff(f)
        if not np.allclose(df, df[0], rtol=1e-9, atol=0.0):
            raise ValueError("discrete spectrum bins must lie on a uniform grid")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "energy_density", d)

    @property
    def bin_width(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    def total_energy(self) -> float:
        return float(np.sum(self.energy_density) * self.bin_width)


def record_length(tones: ToneSet, duration: float, sample_rate: float) -> int:
    """Samples in a ``duration`` s record of ``tones`` at ``sample_rate``; a
    ValueError names the first rule it breaks: finite, positive duration,
    Nyquist, and from 2 samples up to numpy's complex128 index range."""
    product = float(duration) * float(sample_rate)  # two ints could multiply past int64
    if not all(math.isfinite(v) for v in (duration, sample_rate, product)):
        raise ValueError("duration, sample_rate and their product must be finite")
    if duration <= 0:
        raise ValueError("duration must be positive")
    f_max = max(abs(float(t.frequency)) for t in tones.tones)
    if sample_rate <= 2.0 * f_max:
        raise ValueError(
            f"sample_rate {sample_rate:g} Hz violates Nyquist for max tone "
            f"frequency {f_max:g} Hz"
        )
    n = int(round(product))
    if n < 2:
        raise ValueError(
            f"a {duration:g} s record at {sample_rate:g} Hz holds {n} sample(s); "
            "at least 2 are needed"
        )
    max_n = np.iinfo(np.intp).max // 16  # numpy indexes a complex128 array's bytes with intp
    if n > max_n:
        raise ValueError(
            f"a {duration:g} s record at {sample_rate:g} Hz holds {n:.3g} samples; "
            f"numpy can hold at most {max_n:.3g}"
        )
    return n


def synth_two_tone(tones: ToneSet, duration: float, sample_rate: float) -> SampledSignal:
    """Synthesize a tone set as a unit-energy complex baseband signal.

    The signal is the sum of complex exponentials at the tone frequencies
    with the given amplitudes and phases, scaled so that the continuous-time
    energy over the pulse is exactly 1.  Tones are ideal CW over the whole
    duration; durations holding an integer number of cycles of every tone
    keep spectral leakage at numerical noise (recommended, not enforced).
    """
    n = record_length(tones, duration, sample_rate)
    t = np.arange(n) / sample_rate
    x = np.zeros(n, dtype=complex)
    for tone in tones.tones:
        x += tone.amplitude * np.exp(1j * (2.0 * np.pi * tone.frequency * t + tone.phase))
    energy = np.sum(np.abs(x) ** 2) / sample_rate
    x /= np.sqrt(energy)
    return SampledSignal(samples=x, sample_rate=sample_rate)


def delay_signal(signal: SampledSignal, tau: float) -> SampledSignal:
    """Apply a (possibly sub-sample) cyclic delay via a frequency-domain
    phase ramp.

    For tone sets with an integer number of cycles in the record this equals
    the exact continuous-time delay of the underlying CW tones.
    """
    n = len(signal)
    freqs = np.fft.fftfreq(n, d=1.0 / signal.sample_rate)
    spec = np.fft.fft(signal.samples) * np.exp(-2j * np.pi * freqs * tau)
    return SampledSignal(samples=np.fft.ifft(spec), sample_rate=signal.sample_rate)


def spectrum_of(signal: SampledSignal) -> SpectrumModel:
    """Discrete, energy-normalized spectrum of a sampled signal.

    The density is |X(f)|^2 scaled so it integrates to exactly 1 over the
    grid (discrete Parseval makes the normalization exact up to rounding).
    """
    n = len(signal)
    if n == 0:
        raise ValueError("cannot take the spectrum of an empty signal")
    energy = signal.energy
    if energy == 0.0:
        raise ValueError("cannot normalize the spectrum of an all-zero signal")
    spec = np.fft.fftshift(np.fft.fft(signal.samples))
    freqs = np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / signal.sample_rate))
    density = np.abs(spec) ** 2 / (signal.sample_rate**2 * energy)
    return SpectrumModel(frequencies=freqs, energy_density=density)


def mean_squared_bandwidth(spec: ToneSet | SpectrumModel) -> float:
    """Second spectral moment about band center, in rad^2/s^2.

    Computes ``integral (2*pi*f)^2 |G(f)|^2 df`` for a unit-energy spectrum.
    A :class:`ToneSet` gives the exact sum over its normalized tone energies;
    a discrete :class:`SpectrumModel` gives the grid sum, and raises if it is
    not energy-normalized.
    """
    if isinstance(spec, ToneSet):
        w = spec.energy_weights()
        f = spec.frequencies
        return float(np.sum(w * (2.0 * np.pi * f) ** 2))
    total = spec.total_energy()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"spectrum energy is {total:.9g}, expected 1 (not normalized)")
    f = spec.frequencies
    return float(np.sum((2.0 * np.pi * f) ** 2 * spec.energy_density) * spec.bin_width)


def two_tone_rms_bandwidth(separation: float) -> float:
    """Closed form for two equal tones at +/- separation/2: (pi*df)^2."""
    if separation <= 0:
        raise ValueError("tone separation must be positive")
    return (np.pi * separation) ** 2


def rect_rms_bandwidth(bandwidth: float) -> float:
    """Closed form for a flat spectrum over [-B/2, B/2]: (2*pi)^2 B^2 / 12."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return (2.0 * np.pi) ** 2 * bandwidth**2 / 12.0


def two_tone_vs_rect_ratio(separation: float, bandwidth: float) -> float:
    """Mean-squared-bandwidth ratio of a two-tone pair over a flat spectrum.

    For the same occupied bandwidth (separation == bandwidth) the ratio is 3:
    pushing the energy out to the band edges triples the timing resource.
    """
    return two_tone_rms_bandwidth(separation) / rect_rms_bandwidth(bandwidth)
