"""Ranging error to distributed-beamforming coherent gain.

Open-loop coherent arrays need inter-node positions at a small fraction of
the wavelength of the coherently transmitted signal.  This module maps a
per-node ranging standard deviation into a per-node phase standard
deviation at the action frequency, then into the achieved power gain of an
N-node array, normalized by the ideal N^2:

    gain fraction per trial = |sum_i exp(j*phi_i)|^2 / N^2,
    phi_i ~ N(0, sigma_phi^2), independent across nodes.

The expectation has the closed form [1 + (N-1)*exp(-sigma_phi^2)] / N,
which the Monte Carlo estimate is reported against, with its standard
error.  Phase errors are modeled as independent and identically
distributed; correlated error budgets are out of scope.

Arithmetic of the block kernel: the normals phi_i are drawn in float64 and
scaled to phases; a phase with |x| >= 2*pi is reduced exactly in float64 by
``fmod`` with 2*pi (``fmod`` returns a smaller phase unchanged), so no
finite phase overflows the cast of every phase to float32 that follows
(within 2.4e-7 rad of the float64 phase).  The kernel works with the loss
d = 1 - g rather than with g: from S = sum sin^2(x_i/2) and
im = sum sin(x_i), each sine taken in float32 and the sums in float64, the
real part is n - 2S and

    d = (4*S*(n - S) - im^2) / n^2, clamped to [0, 1],

so the error stays relative to d instead of to 1 and a small phase error
does not bias the mean gain.  Each trial's gain is within 1e-6 of the
float64 form above, and with zero phase error it is exactly 1.0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import SPEED_OF_LIGHT, rand


@dataclass(frozen=True)
class CoherenceScenario:
    n_nodes: int
    f_action_hz: float  # frequency of the coherently transmitted signal
    sigma_range_m: float  # per-node one-way ranging std
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("an array needs at least 2 nodes")
        if not np.all(np.isfinite([self.f_action_hz, self.sigma_range_m])):
            raise ValueError("f_action_hz and sigma_range_m must be finite")
        if not np.isfinite(self.sigma_phi()):  # sigma_phi() checks both signs
            raise ValueError("the phase error 2*pi*f_action_hz*sigma_range_m/c overflows")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        rand.check_seed(self.seed)

    def sigma_phi(self) -> float:
        return range_to_phase_error(self.sigma_range_m, self.f_action_hz)


@dataclass(frozen=True)
class CoherentGainReport:
    """Power-gain fractions relative to ideal N^2, each in [0, 1].

    ``se_mean_gain_fraction`` is the Monte Carlo standard error of
    ``mean_gain_fraction``; it is undefined for one trial, where it reads 0.0.
    """

    mean_gain_fraction: float
    analytic_gain_fraction: float
    p_gain_above_90pct: float
    se_mean_gain_fraction: float

    def __post_init__(self):
        for name, v in asdict(self).items():
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} out of [0, 1]: {v}")


def range_to_phase_error(sigma_range_m: float, f_action_hz: float) -> float:
    """Phase std (radians) induced by a ranging std at the action frequency.

    One-way mapping ``2*pi*f*sigma/c`` (transmit beamforming: each node's
    position error perturbs its path once); a retrodirective link doubles
    ``sigma_range_m`` first, as ``coherence --two-way`` does.
    """
    if sigma_range_m < 0:
        raise ValueError("sigma_range must be non-negative")
    if f_action_hz <= 0:
        raise ValueError("action frequency must be positive")
    return float(2.0 * np.pi * f_action_hz * sigma_range_m / SPEED_OF_LIGHT)


def analytic_gain_fraction(n_nodes: int, sigma_phi: float) -> float:
    """Expected gain fraction [1 + (N-1)*exp(-sigma_phi^2)] / N."""
    if n_nodes < 2:
        raise ValueError("an array needs at least 2 nodes")
    if sigma_phi < 0:
        raise ValueError("sigma_phi must be non-negative")
    # exp(-28**2) is already 0.0; the cap keeps sigma_phi**2 from overflowing
    return float((1.0 + (n_nodes - 1) * np.exp(-(min(sigma_phi, 28.0) ** 2))) / n_nodes)


def _losses(x: np.ndarray) -> np.ndarray:
    """The gain loss 1 - g of each column of ``x``, node-major float64
    phases of shape (nodes, trials), by the arithmetic in the module
    docstring.  Only phases with |x| >= 2*pi go through ``fmod``, which
    returns the others unchanged; ``x`` is overwritten with the reduced
    phases.
    """
    n = len(x)
    np.fmod(x, 2.0 * np.pi, out=x, where=np.abs(x) >= 2.0 * np.pi)
    x = x.astype(np.float32, order="C")
    s = np.square(np.sin(0.5 * x), dtype=float).sum(axis=0)
    im = np.sin(x).sum(axis=0, dtype=float)
    return np.clip((4.0 * s * (n - s) - im * im) / n**2, 0.0, 1.0)


def _block_losses(scenario: CoherenceScenario, block: range) -> np.ndarray:
    """The block kernel: the gain loss 1 - g of each trial of one block,
    drawn from the block's generator (see :mod:`rangekit.rand`)."""
    n = scenario.n_nodes
    phi = rand.trial_generator(scenario.seed, block.start).standard_normal((len(block), n))
    # node-major phases, so each node sum adds whole rows in a fixed order
    return _losses(scenario.sigma_phi() * phi.T)


def gain_fractions(scenario: CoherenceScenario) -> np.ndarray:
    """Per-trial gain fractions, drawn block by block as :func:`coherent_gain` draws them."""
    return 1.0 - np.concatenate([_block_losses(scenario, b) for b in rand.blocks(range(scenario.trials))])


def coherent_gain(scenario: CoherenceScenario, workers: int = 1) -> CoherentGainReport:
    """Monte Carlo coherent-gain fraction with its standard error, the
    closed-form expectation and the empirical probability of staying above 0.9.

    Each block of trials reduces its losses 1 - g (those of
    :func:`_block_losses`) to their sum, their sum of squares and the count
    of gains above 0.9, which :func:`rand.run_trials` adds in block order, so
    the report is bit-identical for any worker count.  Summing the losses
    rather than the gains keeps both the mean and the variance free of the
    cancellation against 1 that a small phase error would bring.  The
    standard error is ``sqrt(s**2 / trials)`` with the sample variance
    ``s**2`` (``trials - 1`` in its denominator); it is undefined for one
    trial and reported as 0.0.
    """
    def run_block(block: range) -> np.ndarray:
        d = _block_losses(scenario, block)
        return np.array([np.sum(d), np.sum(d * d), np.count_nonzero(1.0 - d > 0.9)])

    total, total_sq, above = rand.run_trials(run_block, scenario.trials, workers)
    trials = scenario.trials
    loss = total / trials
    # the sum of squared deviations is 0 for one trial; rounding can take it just below 0
    var = max(total_sq - total * loss, 0.0) / max(trials - 1, 1)
    return CoherentGainReport(
        mean_gain_fraction=float(1.0 - loss),
        analytic_gain_fraction=analytic_gain_fraction(scenario.n_nodes, scenario.sigma_phi()),
        p_gain_above_90pct=float(above / trials),
        se_mean_gain_fraction=float(np.sqrt(var / trials)),
    )
