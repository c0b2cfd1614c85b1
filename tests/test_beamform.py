"""Coherent-gain mapping tests: phase-error model and Monte Carlo."""

import functools
import json
import operator
import warnings

import numpy as np
import pytest

from helpers import traced_peak
from rangekit import SPEED_OF_LIGHT, rand
from rangekit.beamform import (
    CoherenceScenario,
    CoherentGainReport,
    _block_losses,
    _losses,
    analytic_gain_fraction,
    coherent_gain,
    gain_fractions,
    range_to_phase_error,
)
from rangekit.cli import dispatch

F_ACTION = 1.88e9


def test_phase_error_tenth_wavelength():
    lam = SPEED_OF_LIGHT / F_ACTION
    assert range_to_phase_error(lam / 10.0, F_ACTION) == pytest.approx(2 * np.pi / 10, rel=1e-12)
    assert range_to_phase_error(lam, F_ACTION) == pytest.approx(2 * np.pi, rel=1e-12)
    assert range_to_phase_error(0.0, F_ACTION) == 0.0


def test_phase_error_validation():
    with pytest.raises(ValueError):
        range_to_phase_error(-1e-3, F_ACTION)
    with pytest.raises(ValueError):
        range_to_phase_error(1e-3, 0.0)


def test_analytic_gain_values():
    # (1 + 9*exp(-0.25)) / 10, precomputed
    assert analytic_gain_fraction(10, 0.5) == pytest.approx(0.8009207047642644, rel=1e-12)
    assert analytic_gain_fraction(5, 0.0) == 1.0
    # two nodes, huge phase error: cross term dies, half the ideal power
    assert analytic_gain_fraction(2, 50.0) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        analytic_gain_fraction(1, 0.5)
    with pytest.raises(ValueError):
        analytic_gain_fraction(4, -0.1)


def sigma_range_for(sigma_phi, f_hz=F_ACTION):
    return sigma_phi * SPEED_OF_LIGHT / (2 * np.pi * f_hz)


def test_coherent_gain_zero_error_is_exact():
    scen = CoherenceScenario(n_nodes=8, f_action_hz=F_ACTION, sigma_range_m=0.0, trials=256)
    report = coherent_gain(scen)
    assert report.mean_gain_fraction == 1.0
    assert report.analytic_gain_fraction == 1.0
    assert report.p_gain_above_90pct == 1.0
    assert report.se_mean_gain_fraction == 0.0


def test_coherent_gain_matches_closed_form():
    scen = CoherenceScenario(
        n_nodes=10,
        f_action_hz=F_ACTION,
        sigma_range_m=sigma_range_for(0.5),
        trials=20000,
        seed=7,
    )
    report = coherent_gain(scen)
    assert scen.sigma_phi() == pytest.approx(0.5, rel=1e-12)
    assert report.mean_gain_fraction == pytest.approx(report.analytic_gain_fraction, rel=0.02)
    assert 0.0 < report.p_gain_above_90pct < 1.0


def test_gain_fractions_bounded():
    scen = CoherenceScenario(4, F_ACTION, sigma_range_for(1.5), trials=500)
    g = gain_fractions(scen)
    assert g.shape == (500,)
    assert np.all(g >= 0.0) and np.all(g <= 1.0)


def test_mean_gain_decreases_with_sigma():
    means = []
    for sigma_phi in (0.0, 0.3, 0.6, 0.9):
        scen = CoherenceScenario(10, F_ACTION, sigma_range_for(sigma_phi), trials=4000, seed=11)
        means.append(np.mean(gain_fractions(scen)))
    assert all(a > b for a, b in zip(means, means[1:]))


def test_workers_do_not_change_results():
    longest = gain_fractions(CoherenceScenario(6, F_ACTION, sigma_range_for(0.7), trials=3000, seed=5))
    # block edges, and a run of more than five blocks
    for trials in (1, 511, 512, 513, 999, 3000):
        scen = CoherenceScenario(6, F_ACTION, sigma_range_for(0.7), trials=trials, seed=5)
        base = gain_fractions(scen)
        # a run's first trials do not depend on the total trial count
        assert np.array_equal(base, longest[:trials])
        # the report adds each block's sum of losses 1 - g in block order
        losses = [_block_losses(scen, b) for b in rand.blocks(range(trials))]
        assert np.array_equal(base, 1.0 - np.concatenate(losses))
        report = coherent_gain(scen, workers=1)
        assert report.p_gain_above_90pct == np.mean(base > 0.9)
        assert report.mean_gain_fraction == 1.0 - functools.reduce(operator.add, map(np.sum, losses)) / trials
        # the standard error is undefined for one trial, where it reads 0.0
        se = np.std(base, ddof=1) / np.sqrt(trials) if trials > 1 else 0.0
        assert report.se_mean_gain_fraction == pytest.approx(se, rel=1e-9)
        for workers in (2, 3, 8):
            assert coherent_gain(scen, workers=workers) == report


def coherent_gain_growth(workers):
    """Peak bytes that 400k trials trace above 50k trials."""
    def run(trials):
        scen = CoherenceScenario(10, F_ACTION, sigma_range_for(0.5), trials=trials, seed=3)
        coherent_gain(scen, workers=workers)

    run(1000)  # warm up: first-call allocations are not part of a run's cost
    return traced_peak(lambda: run(400_000)) - traced_peak(lambda: run(50_000))


def test_coherent_gain_memory_does_not_grow_with_trials():
    # each block is reduced to two sums, added to the running total as it
    # finishes, so 8x the trials adds only those sums to the peak
    assert coherent_gain_growth(1) <= 64 * 1024


def test_coherent_gain_memory_with_two_workers():
    # two workers hold one small summary per block until the ordered sum:
    # about 100 KB for 8x the trials, against 1.3 MB for one future per block
    assert coherent_gain_growth(2) <= 256 * 1024


def test_scenario_validation():
    with pytest.raises(ValueError):
        CoherenceScenario(1, F_ACTION, 0.01, trials=10)
    with pytest.raises(ValueError, match="action frequency must be positive"):
        CoherenceScenario(4, 0.0, 0.01, trials=10)
    with pytest.raises(ValueError, match="sigma_range must be non-negative"):
        CoherenceScenario(4, F_ACTION, -0.01, trials=10)
    with pytest.raises(ValueError):
        CoherenceScenario(4, F_ACTION, 0.01, trials=0)
    for f_action, sigma in ((np.inf, 0.01), (np.nan, 0.01), (F_ACTION, np.inf), (F_ACTION, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            CoherenceScenario(4, f_action, sigma, trials=10)
    for seed in (-1, 2**64, 2.7, True):
        with pytest.raises(ValueError, match="seed"):
            CoherenceScenario(4, F_ACTION, 0.01, trials=10, seed=seed)


def test_report_validation():
    with pytest.raises(ValueError):
        CoherentGainReport(1.2, 0.5, 0.5, 0.01)
    with pytest.raises(ValueError):
        CoherentGainReport(0.5, 0.5, -0.1, 0.01)
    with pytest.raises(ValueError, match="se_mean_gain_fraction"):
        CoherentGainReport(0.5, 0.5, 0.5, np.nan)


def draw_phases(sigma_phi, seed=4):
    """The scenario and node-major phases of the second block of a 10-node run."""
    block = range(rand.BLOCK_TRIALS, 2 * rand.BLOCK_TRIALS)
    scen = CoherenceScenario(10, F_ACTION, sigma_range_for(sigma_phi), trials=block.stop, seed=seed)
    phi = rand.trial_generator(scen.seed, block.start).standard_normal((len(block), 10))
    return scen, block, scen.sigma_phi() * phi.T


@pytest.mark.parametrize("sigma_phi", [1e-4, 0.5, 3.0, 30.0, 1e3])
def test_block_kernel_matches_float64_reference(sigma_phi):
    # float32 trig on exactly reduced phases stays within 1e-6 of the
    # float64 complex form on the same draw; a float32 phase taken without
    # the float64 reduction is off by ~1e-4 at sigma_phi = 1e3
    scen, block, x = draw_phases(sigma_phi)
    reference = np.abs(np.sum(np.exp(1j * x), axis=0)) ** 2 / 100
    assert np.max(np.abs(1.0 - _block_losses(scen, block) - reference)) <= 1e-6


@pytest.mark.parametrize("sigma_phi", [0.5, 3.0, 30.0, 1e10])
def test_selective_reduction_matches_reducing_every_phase(sigma_phi):
    # fmod returns a phase below 2*pi in magnitude exactly, so reducing only
    # the larger ones gives the kernel the same float32 phases
    _, _, x = draw_phases(sigma_phi)
    reduced = np.fmod(x, 2.0 * np.pi)
    assert np.array_equal(_losses(x.copy()), _losses(reduced))
    # no phase of this draw reaches 2*pi at 0.5 rad, so none is reduced; some do at 3 rad and up
    assert np.any(np.abs(x) >= 2.0 * np.pi) == (sigma_phi >= 3.0)


def test_tiny_phase_error_gain_stays_at_most_one():
    # at 1e-4 rad a float32 cos rounds to 1.0; the kernel's loss 1 - g
    # resolves it instead, so no gain passes 1 or rounds up to exactly 1,
    # and the mean sits within a few standard errors of the closed form
    scen = CoherenceScenario(10, F_ACTION, sigma_range_for(1e-4), trials=2000, seed=2)
    g = gain_fractions(scen)
    assert np.all(g < 1.0)
    report = coherent_gain(scen)
    assert abs(report.mean_gain_fraction - report.analytic_gain_fraction) <= 4 * report.se_mean_gain_fraction


def test_small_phase_error_mean_is_unbiased():
    # on the same draw, the mean gain matches the float64 complex form to far
    # below its standard error; a float32 cos near 1 biased it by ~80 SE
    scen, block, x = draw_phases(1e-4, seed=1)
    reference = 1.0 - np.mean(np.abs(np.sum(np.exp(1j * x), axis=0)) ** 2 / 100)
    loss = _block_losses(scen, block)
    se = np.std(loss, ddof=1) / np.sqrt(len(block))
    assert abs(np.mean(loss) - reference) <= 0.01 * se


@pytest.mark.parametrize("sigma_phi", [1e-4, 0.5])
def test_standard_error_matches_sample_std(sigma_phi):
    # the report's variance comes from per-block sums of the losses, which
    # do not cancel against 1 at a tiny phase error
    scen = CoherenceScenario(10, F_ACTION, sigma_range_for(sigma_phi), trials=5000, seed=1)
    se = np.std(gain_fractions(scen), ddof=1) / np.sqrt(scen.trials)
    assert coherent_gain(scen).se_mean_gain_fraction == pytest.approx(se, rel=0.01)


def test_huge_phase_error_reduces_without_overflow(capsys):
    # sigma_phi ~ 2e292 rad: a float32 cast of the unreduced phase overflows
    argv = ["coherence", "--nodes", "2", "--f-action", "1", "--sigma-range", "1e300",
            "--trials", "20"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(argv) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert 0.0 <= report["mean_gain_fraction"] <= 1.0
    assert report["analytic_gain_fraction"] == 0.5
