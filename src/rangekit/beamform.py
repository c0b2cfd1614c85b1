"""Ranging error to distributed-beamforming coherent gain.

Open-loop coherent arrays need inter-node positions at a small fraction of
the wavelength of the coherently transmitted signal.  This module maps a
per-node ranging standard deviation into a per-node phase standard
deviation at the action frequency, then into the achieved power gain of an
N-node array, normalized by the ideal N^2:

    gain fraction per trial = |sum_i exp(j*phi_i)|^2 / N^2,
    phi_i ~ N(0, sigma_phi^2), independent across nodes.

The expectation has the closed form [1 + (N-1)*exp(-sigma_phi^2)] / N,
which the Monte Carlo estimate is reported against.  Phase errors are
modeled as independent and identically distributed; correlated error
budgets are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """All fields are power-gain fractions in [0, 1] relative to ideal N^2."""

    mean_gain_fraction: float
    analytic_gain_fraction: float
    p_gain_above_90pct: float

    def __post_init__(self):
        for name in ("mean_gain_fraction", "analytic_gain_fraction", "p_gain_above_90pct"):
            v = getattr(self, name)
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


def _block_gains(scenario: CoherenceScenario, block: range) -> np.ndarray:
    """The block kernel: the gain fraction of each trial of one block, drawn
    from the block's generator (see :mod:`rangekit.rand`)."""
    n = scenario.n_nodes
    phi = rand.trial_generator(scenario.seed, block.start).standard_normal((len(block), n))
    return np.abs(np.sum(np.exp(1j * scenario.sigma_phi() * phi), axis=1)) ** 2 / n**2


def gain_fractions(scenario: CoherenceScenario) -> np.ndarray:
    """Per-trial gain fractions, drawn block by block as :func:`coherent_gain` draws them."""
    return np.concatenate([_block_gains(scenario, b) for b in rand.blocks(range(scenario.trials))])


def coherent_gain(scenario: CoherenceScenario, workers: int = 1) -> CoherentGainReport:
    """Monte Carlo coherent-gain fraction, with the closed-form expectation
    and the empirical probability of staying above 0.9.

    Each block of trials reduces its gain fractions (those of
    :func:`gain_fractions`) to their sum and the count above 0.9, which
    :func:`rand.run_trials` adds in block order, so the report is
    bit-identical for any worker count.
    """
    def run_block(block: range) -> np.ndarray:
        g = _block_gains(scenario, block)
        return np.array([np.sum(g), np.count_nonzero(g > 0.9)])

    total, above = rand.run_trials(run_block, scenario.trials, workers)
    return CoherentGainReport(
        mean_gain_fraction=float(total / scenario.trials),
        analytic_gain_fraction=analytic_gain_fraction(scenario.n_nodes, scenario.sigma_phi()),
        p_gain_above_90pct=float(above / scenario.trials),
    )
