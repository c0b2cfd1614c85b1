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
RMSE so the bound comparison stays honest.  The Monte Carlo's per-trial
cost does not depend on the record length: it draws the noise directly at
the L ~ ``fs/df`` window lags, as r <= L complex normals, where r is the
number of frequency bins the template occupies (2 for a two-tone record of
whole cycles).  For a record holding whole cycles of every tone its set-up
costs O(r*L) and does not depend on the record length either, because the
occupied bins and their powers follow from the tones; any other record is
synthesized and transformed once, with a QR when r > L.  The set-up is
reused while the waveform and the true delay stay the same.  Scenarios that
differ only in SNR, as down a sweep's SNR column, share their noise stream:
:func:`monte_carlo_column` draws each block's normals once and scales them
by every SNR in turn, giving the reports of separate :func:`monte_carlo`
calls bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import SPEED_OF_LIGHT, rand
from .waveform import (
    SampledSignal,
    ToneSet,
    delay_signal,  # noqa: F401 -- bench/tracer.py times ranging.delay_signal
    mean_squared_bandwidth,
    record_length,
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
        record_length(self.tones, self.duration, self.sample_rate)
        if not np.isfinite(self.true_delay):
            raise ValueError("true_delay must be finite")
        if not (-300.0 <= self.snr_db <= 300.0 or self.snr_db == np.inf):  # +inf: no noise
            raise ValueError(f"snr_db must lie in [-300, 300] dB or be +inf, got {self.snr_db:g}")
        rand.check_seed(self.seed)
        window = self.ambiguity_window()
        if window > self.duration:
            # lags past the record only repeat the circular correlation
            raise ValueError(
                f"ambiguity window {window:g} s is longer than the {self.duration:g} s record"
            )
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
        return mean_squared_bandwidth(self.tones)


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


def _search_lags(sample_rate: float, search_window) -> np.ndarray:
    """Integer lags of a search window ``(lo, hi)`` in seconds plus one
    neighbour on each side, contiguous (not reduced modulo the record)."""
    lo, hi = search_window
    if not (hi > lo):
        raise ValueError("search window must have positive width")
    first = int(np.ceil(lo * sample_rate - 1e-9))
    last = int(np.floor(hi * sample_rate - 1e-9))
    if last < first:
        raise ValueError("search window narrower than one sample")
    return np.arange(first - 1, last + 2)


def _refine_peaks(env: np.ndarray, lags: np.ndarray, sample_rate: float) -> np.ndarray:
    """Sub-sample peak (s) per row of an envelope whose columns are ``lags``;
    the first and last column only serve as neighbours of the peak.

    The peak moves by the vertex offset, clipped to [-1, 1], of the parabola
    through the peak and its two neighbours (0 when they are collinear).
    """
    rows, width = env.shape
    local = 1 + np.argmax(env[:, 1:-1], axis=1)
    peak = local + width * np.arange(rows)
    flat = env.ravel()
    y_m1, y_0, y_p1 = flat[peak - 1], flat[peak], flat[peak + 1]
    denom = 2.0 * (2.0 * y_0 - y_p1 - y_m1)
    p = np.divide(y_p1 - y_m1, denom, out=np.zeros(rows), where=denom != 0.0)
    np.minimum(p, 1.0, out=p)
    np.maximum(p, -1.0, out=p)
    return (lags[local] + p) / sample_rate


# A tone this close to a whole number of cycles leaks under 1e-18 of its
# power into any other bin, far below the eps * max-power cut that picks the
# occupied bins of the FFT, so both find the same bins.
_WHOLE_CYCLE_TOL = 1e-9


def _tone_bins(tones: ToneSet, n: int, sample_rate: float):
    """Occupied bins, ascending, and their powers ``P_k = fs * w_k`` of an
    n-sample record of ``tones``, from the tones alone; ``None`` unless every
    tone holds within :data:`_WHOLE_CYCLE_TOL` of a whole number of cycles,
    each in a bin of its own."""
    cycles = tones.frequencies * n / sample_rate
    nearest = np.rint(cycles)
    if np.max(np.abs(cycles - nearest)) > _WHOLE_CYCLE_TOL:
        return None
    bins = nearest.astype(np.int64) % n  # negative frequencies wrap to the top bins
    order = np.argsort(bins)
    bins = bins[order]
    if np.any(bins[1:] == bins[:-1]):  # two tones share a bin
        return None
    return bins, sample_rate * tones.energy_weights()[order]


@functools.lru_cache(maxsize=1)
def _window_setup(tones: ToneSet, duration: float, sample_rate: float, true_delay: float,
                  window: float):
    """Lags, clean correlation and unit noise factor of the Monte Carlo over
    the delay window ``(0, window)``, from the template's occupied bins.

    For a record of whole cycles of every tone the r occupied bins and their
    powers ``P_k = |T_k|^2 / n``, with ``T_k`` the template's FFT, follow
    from the tones alone (:func:`_tone_bins`), so set-up costs O(r*L) for L
    lags and does not depend on the record length n.  Any other record is
    synthesized and transformed, and every bin above rounding is kept.
    Both results are then sums over the phasors ``exp(2j pi k l / n)`` at
    the window's ``lags``:

    - ``clean[l] = sum_k P_k exp(-2j pi f_k tau) exp(2j pi k l / n)`` is the
      circular cross-correlation of the template delayed by ``tau`` against
      the template itself;
    - row k of ``unit_factor`` is the phasor scaled by ``sqrt(P_k)``, so that
      ``unit_factor.T @ unit_factor.conj()`` is ``G``, the covariance at the
      lags of unit-variance complex white noise correlated against the
      template, and ``z @ unit_factor`` for r standard complex normals is
      that noise, exactly.  More than L rows are reduced to L by a QR of
      O(r*L^2), which leaves ``G`` unchanged.

    Neither depends on the SNR, so the last result is cached: the SNR column
    of a sweep, or repeated runs of one scenario, set up once.  The returned
    arrays are read-only.
    """
    n = record_length(tones, duration, sample_rate)
    lags = _search_lags(sample_rate, (0.0, window))
    whole_cycles = _tone_bins(tones, n, sample_rate)
    if whole_cycles is None:
        power = np.abs(np.fft.fft(synth_two_tone(tones, duration, sample_rate).samples)) ** 2 / n
        bins = np.flatnonzero(power > power.max() * np.finfo(float).eps)
        power = power[bins]
    else:
        bins, power = whole_cycles
    phasors = np.exp((2j * np.pi / n) * (np.outer(bins, lags) % n))
    # np.fft.fftfreq(n, 1 / fs)[bins], with fftfreq's own arithmetic
    freqs = np.where(bins < (n - 1) // 2 + 1, bins, bins - n) * (1.0 / (n * (1.0 / sample_rate)))
    clean = (power * np.exp(-2j * np.pi * freqs * true_delay)) @ phasors
    unit_factor = np.sqrt(power)[:, np.newaxis] * phasors
    if len(bins) > len(lags):
        unit_factor = np.linalg.qr(unit_factor, mode="r")
    for array in (lags, clean, unit_factor):
        array.flags.writeable = False
    return lags, clean, unit_factor


def ml_toa_estimate(rx: SampledSignal, template: SampledSignal, search_window=None) -> float:
    """Maximum-likelihood time-of-arrival estimate from one received record.

    Maximizes the magnitude of the circular cross-correlation against the
    template and refines the peak with three-point parabolic interpolation
    on the envelope.  For ambiguous (e.g. two-tone) templates pass
    ``search_window=(lo, hi)`` in seconds to confine the search to one
    ambiguity interval; the returned delay then lies in that window up to
    sub-sample refinement.  The default window is ``(0, rx.duration)``.
    """
    if rx.sample_rate != template.sample_rate:
        raise ValueError("rx and template must share a sample rate")
    if len(rx) != len(template):
        raise ValueError("rx and template must have the same length")
    if template.energy == 0:
        raise ValueError("template has zero energy")
    # circular cross-correlation sum_m rx[m] conj(template[m - l]) at every lag l
    env = np.abs(np.fft.ifft(np.fft.fft(rx.samples) * np.conj(np.fft.fft(template.samples))))
    if np.max(env) == 0.0:
        raise ValueError("degenerate correlation: all zeros")
    window = (0.0, rx.duration) if search_window is None else search_window
    lags = _search_lags(rx.sample_rate, window)
    return float(_refine_peaks(env[np.newaxis, lags % len(rx)], lags, rx.sample_rate)[0])


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
    module SNR convention) to the delayed template and estimates the delay
    from the correlation at the window's ``fs/df`` + 2 lags, where that noise
    is drawn directly (see the module docstring and :func:`_window_setup`).
    Trials whose error exceeds half the ambiguity spacing are failures,
    excluded from the RMSE.  Each block of :data:`rand.BLOCK_TRIALS` trials
    draws its noise from a generator keyed by (scenario.seed, block start)
    and reduces its delay errors to a failure count, sum and sum of squares,
    which :func:`rand.run_trials` adds in block order, so the report is
    bit-identical for any worker count.  This is the one-scenario call of
    :func:`monte_carlo_column`, and its report equals that scenario's report
    from any column it belongs to.
    """
    return monte_carlo_column([scenario], trials, workers)[0]


def monte_carlo_column(scenarios, trials: int, workers: int = 1) -> list[MonteCarloReport]:
    """:func:`monte_carlo` for scenarios that differ only in ``snr_db``, as
    down one tone separation of a sweep; returns one report per scenario.

    Every scenario keys its noise by the same (seed, block start), so each
    block draws its standard normals once and scales them by every SNR in
    turn.  The reports are bit-identical to separate :func:`monte_carlo`
    calls, and they share one noise draw: differences between them are not
    independent samples.
    """
    if len(scenarios) == 0:
        raise ValueError("no scenarios to simulate")
    first = scenarios[0]
    shared = {**vars(first), "snr_db": None}
    if any({**vars(sc), "snr_db": None} != shared for sc in scenarios[1:]):
        raise ValueError("a column's scenarios must differ only in snr_db")
    fs = first.sample_rate
    lags, clean, unit_factor = _window_setup(
        first.tones, first.duration, fs, first.true_delay, first.ambiguity_window()
    )
    scales = [_noise_sigma(sc.snr_db, fs) / np.sqrt(2.0) for sc in scenarios]
    sep = first.tones.separation
    fail_threshold = 0.5 / sep if sep > 0 else np.inf

    def run_block(block: range) -> np.ndarray:
        rng = rand.trial_generator(first.seed, block.start)
        z = rng.standard_normal((len(block), 2 * len(unit_factor))).view(complex)
        sums = np.empty((3, len(scales)))
        for j, scale in enumerate(scales):  # one (k, L) envelope at a time bounds the block's memory
            tau = _refine_peaks(np.abs(clean + z @ (scale * unit_factor)), lags, fs)
            err = tau - first.true_delay
            failed = np.abs(err) > fail_threshold
            ok = err[~failed]
            sums[:, j] = np.count_nonzero(failed), np.sum(ok), np.sum(ok**2)
        return sums

    failures, err_sum, err2_sum = rand.run_trials(run_block, trials, workers)
    zeta_f2 = first.zeta_f2()
    return [
        _report(trials, int(failures[j]), err_sum[j], err2_sum[j], crlb_toa(zeta_f2, sc.snr_db))
        for j, sc in enumerate(scenarios)
    ]


def _report(trials: int, failures: int, err_sum: float, err2_sum: float,
            bound: float) -> MonteCarloReport:
    """Summary of one scenario against its variance bound, from its failure
    count and the sum and sum of squares of the other trials' delay errors."""
    ok = trials - failures
    rmse = float(np.sqrt(err2_sum / ok)) if ok > 0 else float("nan")
    bias = float(err_sum / ok) if ok > 0 else float("nan")
    ratio = rmse**2 / bound if bound > 0 else float("inf")
    return MonteCarloReport(
        trials=trials,
        rmse_tau=rmse,
        bias_tau=bias,
        crlb_ratio=ratio,
        failures=failures,
    )
