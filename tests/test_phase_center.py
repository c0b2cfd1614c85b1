"""Phase-center fit, displacement series and statistics tests."""

import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rangekit import SPEED_OF_LIGHT, phase_center
from rangekit.phase_center import (
    FarFieldCut,
    displacement_series,
    displacement_stats,
    fit_phase_center,
    point_source_cut,
    wavelength_fraction,
    wrap_angle_deg,
)

THETAS = np.arange(-30.0, 31.0)


def noisy_copy(cut, rms_deg, rng):
    return FarFieldCut(
        phi_cut_deg=cut.phi_cut_deg,
        frequency_hz=cut.frequency_hz,
        theta_deg=cut.theta_deg,
        magnitude_db=cut.magnitude_db,
        phase_deg=cut.phase_deg + rng.standard_normal(len(cut)) * rms_deg,
    )


def test_cut_validation():
    with pytest.raises(ValueError):
        FarFieldCut(0.0, 1e9, [0.0, 1.0], [0.0, 0.0], [0.0, 0.0])  # too short
    with pytest.raises(ValueError):
        FarFieldCut(0.0, 1e9, [0.0, 1.0, 1.0], np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        FarFieldCut(0.0, 1e9, [0.0, 1.0, 2.0], np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        FarFieldCut(0.0, -1e9, [0.0, 1.0, 2.0], np.zeros(3), np.zeros(3))
    ok = dict(phi_cut_deg=0.0, frequency_hz=1e9, theta_deg=[0.0, 1.0, 2.0],
              magnitude_db=np.zeros(3), phase_deg=np.zeros(3))
    for name, bad in (("phi_cut_deg", np.nan), ("frequency_hz", np.inf),
                      ("theta_deg", [0.0, np.nan, 2.0]), ("magnitude_db", [0.0, -np.inf, 0.0]),
                      ("phase_deg", [np.nan, 0.0, 0.0])):
        with pytest.raises(ValueError, match="finite"):
            FarFieldCut(**dict(ok, **{name: bad}))


@pytest.mark.parametrize("freq", [1.88e9, 9.56e9, 10.49e9])
def test_noiseless_recovery(freq):
    cut = point_source_cut(0.002, 0.0141, freq, THETAS)
    fit = fit_phase_center(cut)
    assert abs(fit.x0_m - 0.002) < 1e-6
    assert abs(fit.z0_m - 0.0141) < 1e-6
    assert fit.rms_residual_rad < 1e-9


def test_constant_phase_gives_origin():
    cut = FarFieldCut(0.0, 1.88e9, THETAS, np.zeros(61), np.full(61, 33.0))
    fit = fit_phase_center(cut)
    assert abs(fit.x0_m) < 1e-12 and abs(fit.z0_m) < 1e-12
    assert fit.phi0_rad == pytest.approx(np.deg2rad(33.0), rel=1e-12)
    assert fit.rms_residual_rad < 1e-12


def test_noisy_recovery_averaged():
    truth = (0.002, 0.0141)
    clean = point_source_cut(*truth, 9.56e9, THETAS)
    fits = [
        fit_phase_center(noisy_copy(clean, 5.0, np.random.default_rng(s))) for s in range(20)
    ]
    assert abs(np.mean([f.x0_m for f in fits]) - truth[0]) < 1e-3
    assert abs(np.mean([f.z0_m for f in fits]) - truth[1]) < 1.2e-3


def test_translation_equivariance():
    freq = 9.56e9
    cut = point_source_cut(0.001, 0.004, freq, THETAS, wrap=False)
    fit0 = fit_phase_center(cut)
    k = 2 * np.pi * freq / SPEED_OF_LIGHT
    a, b = 0.0031, -0.0017
    theta = np.deg2rad(THETAS)
    shifted = FarFieldCut(
        0.0,
        freq,
        THETAS,
        cut.magnitude_db,
        cut.phase_deg + np.rad2deg(k * (a * np.sin(theta) + b * np.cos(theta))),
    )
    fit1 = fit_phase_center(shifted)
    assert fit1.x0_m - fit0.x0_m == pytest.approx(a, abs=1e-9)
    assert fit1.z0_m - fit0.z0_m == pytest.approx(b, abs=1e-9)


def test_constant_offset_changes_only_phi0():
    cut = point_source_cut(0.002, 0.0141, 9.56e9, THETAS, wrap=False)
    offset = FarFieldCut(0.0, 9.56e9, THETAS, cut.magnitude_db, cut.phase_deg + 90.0)
    fit0, fit1 = fit_phase_center(cut), fit_phase_center(offset)
    assert fit1.x0_m == pytest.approx(fit0.x0_m, abs=1e-12)
    assert fit1.z0_m == pytest.approx(fit0.z0_m, abs=1e-12)
    assert fit1.phi0_rad - fit0.phi0_rad == pytest.approx(np.pi / 2, rel=1e-9)


def test_wrapping_invariance():
    # adjacent-sample steps stay below 180 deg, so unwrap restores the ramp
    raw = point_source_cut(0.002, 0.0141, 10.49e9, THETAS, wrap=False)
    wrapped = FarFieldCut(
        0.0, 10.49e9, THETAS, raw.magnitude_db, wrap_angle_deg(raw.phase_deg)
    )
    fit_raw, fit_wrapped = fit_phase_center(raw), fit_phase_center(wrapped)
    assert fit_wrapped.x0_m == pytest.approx(fit_raw.x0_m, abs=1e-12)
    assert fit_wrapped.z0_m == pytest.approx(fit_raw.z0_m, abs=1e-12)


def test_fit_needs_three_in_region_samples():
    cut = point_source_cut(0.0, 0.0, 1e9, THETAS)
    with pytest.raises(ValueError):
        fit_phase_center(cut, beam_region=(0.0, 1.5))


def test_displacement_series_identical_sources():
    cut_a = point_source_cut(0.002, 0.0141, 9.56e9, THETAS)
    cut_b = point_source_cut(0.002, 0.0141, 1.88e9, THETAS)
    series = displacement_series(cut_a, cut_b)
    assert_allclose(series.dx0_m, 0.0, atol=1e-9)
    assert_allclose(series.dz0_m, 0.0, atol=1e-9)


def test_displacement_series_known_offset():
    # band A's phase center sits 5 mm further out along boresight
    cut_a = point_source_cut(0.002, 0.0141 + 0.005, 9.56e9, THETAS)
    cut_b = point_source_cut(0.002, 0.0141, 1.88e9, THETAS)
    series = displacement_series(cut_a, cut_b)
    assert len(series) == 61
    assert_allclose(series.dz0_m, 0.005, atol=1e-6)
    assert_allclose(series.dx0_m, 0.0, atol=1e-6)


def test_displacement_series_noisy_pair():
    rng = np.random.default_rng(11)
    cut_a = noisy_copy(point_source_cut(0.0, 0.005, 9.56e9, THETAS), 2.0, rng)
    cut_b = noisy_copy(point_source_cut(0.0, 0.0, 10.49e9, THETAS), 2.0, rng)
    series = displacement_series(cut_a, cut_b)
    stats = displacement_stats(series)
    assert stats.mean_z0_m == pytest.approx(0.005, abs=2e-3)
    assert stats.sd_z0_m > 0.0


def test_displacement_series_errors():
    cut_a = point_source_cut(0.0, 0.0, 9.56e9, THETAS)
    cut_b = point_source_cut(0.0, 0.0, 1.88e9, THETAS, phi_cut_deg=90.0)
    with pytest.raises(ValueError):
        displacement_series(cut_a, cut_b)  # different phi planes
    cut_c = point_source_cut(0.0, 0.0, 1.88e9, THETAS + 200.0)
    with pytest.raises(ValueError):
        displacement_series(cut_a, cut_c)  # no angular overlap
    cut_d = point_source_cut(0.0, 0.0, 1.88e9, THETAS)
    with pytest.raises(ValueError):
        displacement_series(cut_a, cut_d, window_deg=1.5)  # < 3 samples per window
    for window_deg in (0.0, -5.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="window width must be finite and positive"):
            displacement_series(cut_a, cut_d, window_deg=window_deg)


def reference_fit(cut, lo, hi):
    """One window fitted on its own: its own unwrap, then lstsq."""
    mask = (cut.theta_deg >= lo) & (cut.theta_deg <= hi)
    theta = np.deg2rad(cut.theta_deg[mask])
    psi = np.unwrap(np.deg2rad(cut.phase_deg[mask]))
    k = 2 * np.pi * cut.frequency_hz / SPEED_OF_LIGHT
    design = np.column_stack([np.ones_like(theta), k * np.sin(theta), k * np.cos(theta)])
    coef, _, rank, _ = np.linalg.lstsq(design, psi, rcond=None)
    assert rank == 3
    resid = psi - design @ coef
    return coef, np.sqrt(np.mean(resid**2))


def exact_fit(cut, lo, hi):
    """One window fitted on its own without rounding: its own unwrap, then the
    normal equations of [1, k sin, k cos] in rational arithmetic, on the float
    samples sin(theta) and cos(theta) of the whole cut."""
    mask = (cut.theta_deg >= lo) & (cut.theta_deg <= hi)
    theta = np.deg2rad(cut.theta_deg)
    psi = [Fraction(p) for p in np.unwrap(np.deg2rad(cut.phase_deg[mask])).tolist()]
    k = Fraction(2 * np.pi * cut.frequency_hz / SPEED_OF_LIGHT)
    rows = [(Fraction(1), k * Fraction(s), k * Fraction(c))
            for s, c in zip(np.sin(theta)[mask].tolist(), np.cos(theta)[mask].tolist())]
    # Gauss-Jordan elimination of [A^T A | A^T psi]
    system = [[sum(r[i] * r[j] for r in rows) for j in range(3)]
              + [sum(r[i] * p for r, p in zip(rows, psi))] for i in range(3)]
    for i in range(3):
        system[i] = [v / system[i][i] for v in system[i]]
        for j in range(3):
            if j != i:
                system[j] = [a - system[j][i] * b for a, b in zip(system[j], system[i])]
    coef = [row[3] for row in system]
    resid = [p - sum(c * a for c, a in zip(coef, r)) for r, p in zip(rows, psi)]
    return np.array([float(c) for c in coef]), np.sqrt(float(sum(e * e for e in resid) / len(rows)))


def reference_series(cut_a, cut_b, window_deg, beam, fit=reference_fit):
    """displacement_series as a per-angle loop over ``fit``."""
    lo, hi = max(beam[0], cut_b.theta_deg[0]), min(beam[1], cut_b.theta_deg[-1])
    centers = cut_a.theta_deg[(cut_a.theta_deg >= lo) & (cut_a.theta_deg <= hi)]
    half = window_deg / 2
    diffs = np.array([
        fit(cut_a, c - half, c + half)[0] - fit(cut_b, c - half, c + half)[0] for c in centers
    ])
    return centers, diffs[:, 1], diffs[:, 2]


def jittered(theta, rng):
    """A non-uniform grid: each angle moved by up to 0.4 of a 1 degree step."""
    return theta + rng.uniform(-0.4, 0.4, len(theta))


@pytest.mark.parametrize(
    "grid, window_deg, beam, batch_rows",
    [
        ("uniform", 10.0, (-30.0, 30.0), None),
        ("non-uniform", 10.0, (-30.0, 30.0), None),
        ("uniform", 12.0, (-90.0, 90.0), None),  # windows clipped at both ends of the cut
        ("non-uniform", 7.0, (-90.0, 90.0), None),
        ("non-uniform", 10.0, (-90.0, 90.0), 40),  # a few windows per SVD batch
    ],
)
def test_displacement_series_matches_per_window_reference(
    grid, window_deg, beam, batch_rows, monkeypatch
):
    if batch_rows is not None:
        monkeypatch.setattr(phase_center, "_BATCH_ROWS", batch_rows)
    rng = np.random.default_rng(21)
    theta = np.arange(-40.0, 41.0)
    theta_a, theta_b = (jittered(theta, rng), jittered(theta, rng)) if grid == "non-uniform" else (
        theta, theta)
    cut_a = noisy_copy(point_source_cut(0.03, 0.0192, 10.49e9, theta_a, phi0_rad=2.0), 3.0, rng)
    cut_b = noisy_copy(point_source_cut(-0.0007, 0.0141, 1.88e9, theta_b), 3.0, rng)
    series = displacement_series(cut_a, cut_b, window_deg=window_deg, beam_region=beam)
    # On the jittered grids lstsq's own rounding exceeds these bounds: at the
    # clipped ends of the 7 degree case it is 1.9e-10 rad in phi0 and 1.9e-12 m
    # in z0 from the exact fit.  There the exact fit alone is the reference.
    for fit in (exact_fit, reference_fit) if grid == "uniform" else (exact_fit,):
        centers, dx, dz = reference_series(cut_a, cut_b, window_deg, beam, fit)
        assert_array_equal(series.theta_deg, centers)
        assert_allclose(series.dx0_m, dx, rtol=0, atol=1e-12)
        assert_allclose(series.dz0_m, dz, rtol=0, atol=1e-12)
        # each window's own unwrap is restored, so phi0 and the residual match too
        half = window_deg / 2
        for cut in (cut_a, cut_b):
            coef, rms, problem = phase_center._fit_windows([cut], centers - half, centers + half)
            ref_coef, ref_rms = zip(*(fit(cut, c - half, c + half) for c in centers))
            assert not problem.any()
            assert_allclose(coef[0], ref_coef, rtol=0, atol=1e-11)
            assert_allclose(rms[0], ref_rms, rtol=1e-9)


def test_cuts_on_one_grid_match_their_own_references():
    # three bands on one non-uniform grid share each window's factorisation,
    # while each keeps its own k, unwrap restart and residual
    rng = np.random.default_rng(8)
    theta = jittered(np.arange(-40.0, 41.0), rng)
    cuts = [
        noisy_copy(point_source_cut(x0, z0, freq, theta, phi0_rad=phi0), 3.0, rng)
        for x0, z0, freq, phi0 in [(-0.0007, 0.0141, 1.88e9, 0.0), (0.001, 0.006, 9.56e9, -1.0),
                                   (0.03, 0.0192, 10.49e9, 2.0)]
    ]
    centers = theta[(theta >= -30.0) & (theta <= 30.0)]
    half = 5.0
    coef, rms, problem = phase_center._fit_windows(cuts, centers - half, centers + half)
    assert coef.shape == (3, len(centers), 3) and rms.shape == problem.shape == (3, len(centers))
    assert not problem.any()
    for cut, cut_coef, cut_rms in zip(cuts, coef, rms):
        ref_coef, ref_rms = zip(*(exact_fit(cut, c - half, c + half) for c in centers))
        assert_allclose(cut_coef, ref_coef, rtol=0, atol=1e-11)
        assert_allclose(cut_rms, ref_rms, rtol=1e-9)


@pytest.mark.parametrize("batch_rows", [None, 40])
def test_one_svd_per_batch_for_cuts_on_one_grid(batch_rows, monkeypatch):
    if batch_rows is not None:
        monkeypatch.setattr(phase_center, "_BATCH_ROWS", batch_rows)
    batches = []  # windows factorised by each SVD call
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        batches.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    cut_a = point_source_cut(0.001, 0.006, 9.56e9, THETAS)
    series = displacement_series(cut_a, point_source_cut(0.0, 0.012, 1.88e9, THETAS))
    shared = list(batches)
    batches.clear()
    other_grid = np.r_[-30.0, THETAS[1:-1] + 0.25, 30.0]
    assert len(displacement_series(cut_a, point_source_cut(0.0, 0.012, 1.88e9, other_grid))) == len(series)
    assert sum(shared) == len(series)  # every window factorised once
    assert len(shared) == 1 if batch_rows is None else len(shared) > 1
    assert batches == shared + shared  # one factorisation per cut


def test_fit_matches_reference_when_phase_wraps_inside_region():
    # the phase wraps both before the region starts and inside it, so the
    # region's unwrap starts at a non-zero multiple of 2 pi of the cut's
    theta = np.arange(-90.0, 91.0)
    cut = noisy_copy(point_source_cut(0.05, 0.0192, 10.49e9, theta), 3.0, np.random.default_rng(4))
    region = (12.0, 47.0)
    mask = (theta >= region[0]) & (theta <= region[1])
    assert np.any(np.abs(np.diff(cut.phase_deg[mask])) > 180.0)
    assert np.any(np.abs(np.diff(cut.phase_deg[theta < region[0]])) > 180.0)
    fit = fit_phase_center(cut, region)
    coef, rms = reference_fit(cut, *region)
    assert fit.phi0_rad == pytest.approx(coef[0], rel=0, abs=1e-12)
    assert fit.rms_residual_rad == pytest.approx(rms, rel=1e-12)
    assert (fit.x0_m, fit.z0_m) == pytest.approx((coef[1], coef[2]), rel=0, abs=1e-12)


def cut_on(theta, freq=9.56e9):
    return point_source_cut(0.001, 0.01, freq, np.asarray(theta, dtype=float))


CLUSTER = [20.0, 20.0 + 1e-10, 20.0 + 2e-10]  # three samples no fit can separate


@pytest.mark.parametrize(
    "theta_a, theta_b, message",
    [
        # band B has no samples in 9..11 deg: the window at 9 deg holds only 7 and 8
        (np.arange(-30.0, 31.0), np.r_[-30:9, 12:31],
         "window 4 deg at theta 9 deg: fewer than 3 samples inside the beam region"),
        # band A's window at 20 deg holds only the cluster
        (np.r_[-30:18, CLUSTER, 23:31], np.arange(-30.0, 31.0),
         "window 4 deg at theta 20 deg: rank-deficient fit"),
        # both bands fail at 20 deg; band A's problem is reported
        (np.r_[-30:18, CLUSTER, 23:31], np.r_[-30:18, 20, 23:31],
         "window 4 deg at theta 20 deg: rank-deficient fit"),
        (np.r_[-30:18, 20, 23:31], np.r_[-30:18, CLUSTER, 23:31],
         "window 4 deg at theta 20 deg: fewer than 3 samples"),
        # band B fails at 9 deg, before band A's cluster at 20 deg
        (np.r_[-30:18, CLUSTER, 23:31], np.r_[-30:9, 12:31],
         "window 4 deg at theta 9 deg: fewer than 3 samples"),
        # both bands on one grid, fitted from one factorisation per window
        (np.r_[-30:18, CLUSTER, 23:31], np.r_[-30:18, CLUSTER, 23:31],
         "window 4 deg at theta 20 deg: rank-deficient fit"),
        (np.r_[-30:9, 11, 14:18, CLUSTER, 23:31], np.r_[-30:9, 11, 14:18, CLUSTER, 23:31],
         "window 4 deg at theta 11 deg: fewer than 3 samples"),
    ],
)
def test_window_errors_name_first_failing_center(theta_a, theta_b, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        displacement_series(cut_on(theta_a), cut_on(theta_b, 1.88e9), window_deg=4.0)


def test_fit_rank_deficient_region():
    with pytest.raises(ValueError, match="rank-deficient"):
        fit_phase_center(cut_on(np.r_[-30:18, CLUSTER, 23:31]), beam_region=(19.0, 21.0))


@pytest.mark.parametrize("spacing_deg, rejected", [(2.5e-5, True), (1e-4, False)])
def test_rank_check_near_lstsq_bound_at_paper_frequency(spacing_deg, rejected):
    # lstsq finds both clusters full rank on [1, k sin, k cos] at 1.88 GHz;
    # the k-free check is the stricter (see _fit_windows) and rejects the
    # closer one, whose s_min/s_max there is 1.7 times lstsq's bound
    theta = np.r_[-30:18, 20.0 + spacing_deg * np.arange(3), 23:31]
    region = np.deg2rad(theta[(theta >= 19.0) & (theta <= 21.0)])
    k = 2 * np.pi * 1.88e9 / SPEED_OF_LIGHT
    design = np.column_stack([np.ones(3), k * np.sin(region), k * np.cos(region)])
    assert np.linalg.matrix_rank(design) == 3
    if rejected:
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_phase_center(cut_on(theta, 1.88e9), beam_region=(19.0, 21.0))
    else:
        fit_phase_center(cut_on(theta, 1.88e9), beam_region=(19.0, 21.0))


@pytest.mark.parametrize("freq", [1e-30, 1e-310, 5e-324, 1e300])
def test_wavenumber_too_small_or_large_to_resolve_the_center(freq):
    # lstsq finds the k-scaled design [1, k sin, k cos] rank-deficient here,
    # so the k-free fit must not turn rounding noise into a center divided by k
    with pytest.raises(ValueError, match="rank-deficient"):
        fit_phase_center(cut_on(THETAS, freq))
    with pytest.raises(ValueError, match="theta -30 deg: rank-deficient"):
        displacement_series(cut_on(THETAS, freq), cut_on(THETAS, 1.88e9))


def test_displacement_stats_brute_force():
    rng = np.random.default_rng(5)
    from rangekit.phase_center import DisplacementSeries

    series = DisplacementSeries(
        theta_deg=np.arange(10.0),
        dx0_m=rng.standard_normal(10) * 1e-3,
        dz0_m=rng.standard_normal(10) * 1e-3,
    )
    stats = displacement_stats(series)
    assert stats.mean_x0_m == np.mean(series.dx0_m)
    assert stats.sd_x0_m == np.std(series.dx0_m, ddof=1)
    assert stats.mean_z0_m == np.mean(series.dz0_m)
    assert stats.sd_z0_m == np.std(series.dz0_m, ddof=1)
    assert stats.count == 10 and stats.sd_defined


def test_displacement_stats_constant_and_degenerate():
    from rangekit.phase_center import DisplacementSeries

    const = DisplacementSeries(
        theta_deg=np.arange(5.0), dx0_m=np.full(5, 0.0002), dz0_m=np.full(5, 0.0141)
    )
    stats = displacement_stats(const)
    assert (stats.mean_x0_m, stats.mean_z0_m) == (0.0002, 0.0141)
    assert stats.sd_x0_m == 0.0 and stats.sd_z0_m == 0.0

    single = DisplacementSeries(theta_deg=[0.0], dx0_m=[1e-4], dz0_m=[2e-4])
    stats1 = displacement_stats(single)
    assert stats1.mean_x0_m == 1e-4 and not stats1.sd_defined and stats1.sd_x0_m == 0.0

    pair = DisplacementSeries(theta_deg=[0.0, 1.0], dx0_m=[0.0, 0.0], dz0_m=[0.0, 0.02])
    stats2 = displacement_stats(pair)
    assert stats2.mean_z0_m == pytest.approx(0.01)
    assert stats2.sd_z0_m == pytest.approx(0.0141421356, rel=1e-6)

    with pytest.raises(ValueError):
        displacement_stats(DisplacementSeries(np.array([]), np.array([]), np.array([])))


def test_wavelength_fraction():
    assert wavelength_fraction(0.0141, 1.88e9) == pytest.approx(0.0884, abs=1e-4)
    assert wavelength_fraction(0.0, 1.88e9) == 0.0
    assert wavelength_fraction(SPEED_OF_LIGHT / 1.88e9, 1.88e9) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        wavelength_fraction(0.01, 0.0)
