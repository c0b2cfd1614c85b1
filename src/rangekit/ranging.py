"""Time-of-arrival accuracy: the lower bound, and a Monte Carlo ML estimator.

The variance of any unbiased time-of-arrival estimate is bounded below by

    var(tau_hat - tau) >= 1 / (2 * SNR_lin * zeta_f^2)

where ``zeta_f^2`` is the mean-squared bandwidth (rad^2/s^2, see
:mod:`rangekit.waveform`) and ``SNR_lin`` the post-integration
signal-to-noise ratio.

SNR convention (read this before comparing numbers across papers): the
template is unit-energy, the received signal is ``alpha * s(t - tau) + n(t)``
with complex white noise of spectral density ``N0``, and

    SNR_lin = |alpha|^2 / N0,       snr_db = 10*log10(SNR_lin).

Under that convention the bound is ``1/(2*SNR_lin*zeta_f^2)`` with no free
constants.  Published accuracy figures quoted at some SNR are only
comparable if their SNR normalization matches; this toolkit reports its own
numbers as convention-dependent and never rescales someone else's.

Two-tone ambiguity: the correlation of a tone pair separated by ``df`` has
periodic peaks spaced ``1/df``.  Scenarios therefore promise the true delay
lies inside one ambiguity interval ``[0, 1/df)``; the estimator searches
only that window, and Monte Carlo trials whose error still exceeds half the
spacing ``1/(2*df)`` are counted as failures, reported separately from the
RMSE so the bound comparison stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from . import rand
from .waveform import (
    SampledSignal,
    SpectrumModel,
    ToneSet,
    delay_signal,
    mean_squared_bandwidth,
    synth_two_tone,
)


@dataclass(frozen=True)
class RangingScenario:
    """Everything needed to bound and simulate one ranging configuration."""

    tones: ToneSet
    snr_db: float
    true_delay: float  # s
    two_way: bool
    sample_rate: float  # Hz
    duration: float  # s
    seed: int = 0

    def __post_init__(self):
        f_max = float(np.max(np.abs(self.tones.frequencies)))
        if self.sample_rate <= 2.0 * f_max:
            raise ValueError("sample_rate violates Nyquist for the tone set")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        rand.check_seed(self.seed)
        window = self.ambiguity_window()
        if not (0.0 <= self.true_delay < window):
            raise ValueError(
                f"true_delay {self.true_delay:g} s outside the unambiguous "
                f"window [0, {window:g}) s"
            )

    def ambiguity_window(self) -> float:
        """Width of the unambiguous delay interval: 1/df for multi-tone sets,
        the full record duration for a single tone."""
        sep = self.tones.separation
        return 1.0 / sep if sep > 0 else self.duration

    def template(self) -> SampledSignal:
        return synth_two_tone(self.tones, self.duration, self.sample_rate)

    def zeta_f2(self) -> float:
        return mean_squared_bandwidth(SpectrumModel.from_tones(self.tones))


@dataclass(frozen=True)
class CrlbResult:
    """Bound on time-of-arrival and range accuracy for one scenario."""

    var_tau: float  # s^2
    std_tau: float  # s
    std_range: float  # m
    two_way: bool


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    rmse_tau: float  # s, over non-failed trials
    bias_tau: float  # s, over non-failed trials
    crlb_ratio: float  # rmse^2 / CRLB variance
    failures: int  # trials with |error| > half the ambiguity spacing


def crlb_toa(zeta_f2: float, snr_db: float) -> float:
    """Lower bound on time-of-arrival variance, in s^2.

    ``1 / (2 * SNR_lin * zeta_f2)`` under the module's SNR convention.
    """
    if zeta_f2 <= 0:
        raise ValueError("mean-squared bandwidth must be positive")
    snr_lin = 10.0 ** (snr_db / 10.0)
    return 1.0 / (2.0 * snr_lin * zeta_f2)


def delay_to_range(delay: float, two_way: bool) -> float:
    """Convert a delay (or delay error) in seconds to a range in meters.

    Two-way (reflected) measurements traverse the path twice, so the range
    is half the delay times c.
    """
    return float(SPEED_OF_LIGHT * delay * (0.5 if two_way else 1.0))


def crlb_range(var_tau: float, two_way: bool) -> float:
    """Convert a delay variance to a one-sigma range accuracy in meters."""
    if var_tau < 0:
        raise ValueError("var_tau must be non-negative")
    return delay_to_range(np.sqrt(var_tau), two_way)


def crlb_result(zeta_f2: float, snr_db: float, two_way: bool) -> CrlbResult:
    var_tau = crlb_toa(zeta_f2, snr_db)
    return CrlbResult(
        var_tau=var_tau,
        std_tau=float(np.sqrt(var_tau)),
        std_range=crlb_range(var_tau, two_way),
        two_way=two_way,
    )


def equivalent_accuracy_tradeoff(df1: float, snr1_db: float, df2: float) -> float:
    """SNR at which tone separation df2 matches the accuracy of (df1, snr1).

    The bound scales as 1/(SNR * df^2), so doubling the separation buys back
    about 6 dB of SNR: ``snr2 = snr1 - 20*log10(df2/df1)``.
    """
    if df1 <= 0 or df2 <= 0:
        raise ValueError("tone separations must be positive")
    return snr1_db - 20.0 * np.log10(df2 / df1)


def _parabolic_offset(y_m1: np.ndarray, y_0: np.ndarray, y_p1: np.ndarray) -> np.ndarray:
    """Vertex offset in (-1, 1) of the parabola through three equispaced points."""
    denom = 2.0 * (2.0 * y_0 - y_p1 - y_m1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(denom != 0.0, (y_p1 - y_m1) / denom, 0.0)
    return np.clip(p, -1.0, 1.0)


def _correlate(rx: np.ndarray, template_conj_fft: np.ndarray) -> np.ndarray:
    """Circular cross-correlation magnitude; rx may be a (trials, n) block."""
    spec = np.fft.fft(rx, axis=-1) * template_conj_fft
    return np.abs(np.fft.ifft(spec, axis=-1))


def _window_indices(n: int, sample_rate: float, search_window) -> np.ndarray:
    lo, hi = search_window
    if not (hi > lo):
        raise ValueError("search window must have positive width")
    first = int(np.ceil(lo * sample_rate - 1e-9))
    last = int(np.floor(hi * sample_rate - 1e-9))
    idx = np.arange(first, last + 1)
    if len(idx) < 1:
        raise ValueError("search window narrower than one sample")
    return idx % n


def _refine_peaks(env: np.ndarray, idx: np.ndarray, sample_rate: float) -> np.ndarray:
    """Sub-sample peak positions (s) for each row of a correlation envelope,
    searching only the lag indices in ``idx``."""
    env = np.atleast_2d(env)
    n = env.shape[-1]
    local = np.argmax(env[:, idx], axis=-1)
    peak = idx[local]
    rows = np.arange(env.shape[0])
    y0 = env[rows, peak]
    ym = env[rows, (peak - 1) % n]
    yp = env[rows, (peak + 1) % n]
    p = _parabolic_offset(ym, y0, yp)
    # unwrap lags from the window start so windows near 0 stay contiguous
    lag = np.where(idx[local] < idx[0], peak + n, peak).astype(float)
    return (lag + p) / sample_rate


def ml_toa_estimate(rx: SampledSignal, template: SampledSignal, search_window=None) -> float:
    """Maximum-likelihood time-of-arrival estimate from one received record.

    Maximizes the magnitude of the circular cross-correlation against the
    template and refines the peak with three-point parabolic interpolation
    on the envelope.  For ambiguous (e.g. two-tone) templates pass
    ``search_window=(lo, hi)`` in seconds to confine the search to one
    ambiguity interval; the returned delay then lies in that window up to
    sub-sample refinement.
    """
    if rx.sample_rate != template.sample_rate:
        raise ValueError("rx and template must share a sample rate")
    if len(rx) != len(template):
        raise ValueError("rx and template must have the same length")
    if template.energy == 0:
        raise ValueError("template has zero energy")
    env = _correlate(rx.samples, np.conj(np.fft.fft(template.samples)))
    if np.max(env) == 0.0:
        raise ValueError("degenerate correlation: all zeros")
    n = len(rx)
    if search_window is None:
        idx = np.arange(n)
    else:
        idx = _window_indices(n, rx.sample_rate, search_window)
    return float(_refine_peaks(env[np.newaxis, :], idx, rx.sample_rate)[0])


def _noise_sigma(snr_db: float, sample_rate: float) -> float:
    """Per-sample complex-noise std for a unit-energy template.

    White noise of density N0 sampled at fs has per-sample variance N0*fs;
    with alpha = 1 and SNR_lin = 1/N0 that is fs/SNR_lin.
    """
    snr_lin = 10.0 ** (snr_db / 10.0)
    return float(np.sqrt(sample_rate / snr_lin))


def monte_carlo(scenario: RangingScenario, trials: int, workers: int = 1) -> MonteCarloReport:
    """Monte Carlo check of the ML estimator against the accuracy bound.

    Each trial adds independent complex white Gaussian noise (scaled per the
    module SNR convention) to the delayed template and estimates the delay.
    Trials whose error exceeds half the ambiguity spacing are counted as
    failures and excluded from the RMSE.  Noise is drawn per block of
    :data:`rand.BLOCK_TRIALS` trials from a generator keyed by
    (scenario.seed, block start), so the report is bit-identical for any
    worker count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    template = scenario.template()
    rx_clean = delay_signal(template, scenario.true_delay).samples
    tmpl_conj_fft = np.conj(np.fft.fft(template.samples))
    n = len(template)
    fs = scenario.sample_rate
    window = (0.0, scenario.ambiguity_window())
    idx = _window_indices(n, fs, window)
    scale = _noise_sigma(scenario.snr_db, fs) / np.sqrt(2.0)

    def run_block(block: range) -> np.ndarray:
        rng = rand.trial_generator(scenario.seed, block.start)
        rx = np.empty((len(block), n), dtype=complex)
        rng.standard_normal(out=rx.view(float))
        rx *= scale
        rx += rx_clean
        return _refine_peaks(_correlate(rx, tmpl_conj_fft), idx, fs)

    tau_hat = rand.run_trials(run_block, trials, workers)
    err = tau_hat - scenario.true_delay
    sep = scenario.tones.separation
    fail_threshold = 0.5 / sep if sep > 0 else np.inf
    failed = np.abs(err) > fail_threshold
    ok = err[~failed]
    if len(ok) > 0:
        rmse = float(np.sqrt(np.mean(ok**2)))
        bias = float(np.mean(ok))
    else:
        rmse = float("nan")
        bias = float("nan")
    bound = crlb_toa(scenario.zeta_f2(), scenario.snr_db)
    ratio = rmse**2 / bound if bound > 0 else float("inf")
    return MonteCarloReport(
        trials=trials,
        rmse_tau=rmse,
        bias_tau=bias,
        crlb_ratio=ratio,
        failures=int(np.count_nonzero(failed)),
    )
