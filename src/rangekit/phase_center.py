"""Antenna phase-center fitting from far-field phase cuts.

An antenna whose phase center sits at (x0, z0) in the cut plane, with z the
boresight axis and theta measured from z toward x, radiates a far-field
phase

    psi(theta) = phi0 + k * (x0*sin(theta) + z0*cos(theta)),   k = 2*pi*f/c.

Fitting that model to a measured phase cut by linear least squares (after
unwrapping) recovers the in-plane displacement.  The y-component is not
observable from a single cut and is out of scope.  Fits on one theta grid
share each window's SVD of the k-free basis [1, sin, cos], then divide by k.

Displacement between two frequency bands is computed as a per-angle series:
at each angle a small sliding window of the cut is fitted independently for
both bands and the fitted centers are differenced.  Statistics over that
series summarize how far apart the bands' phase centers sit, usually quoted
as a fraction of the wavelength at the coherent-action frequency.

All windows of a grid are fitted as one batch, from one unwrap of each
whole cut.  That unwrap gives each window the same phases as unwrapping the
window alone, up to one constant: ``np.unwrap`` corrects each sample by a
multiple of 2*pi chosen from its step to the previous sample only, so two
unwraps of the same samples differ by the sum of the corrections made before
the window starts.  Subtracting that sum (the cut's unwrapped minus wrapped
phase at the window's first sample) restores the window's own unwrap, so
even phi0 matches a fit of the window alone.  A single fit over the beam
region is the same computation with one window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import SPEED_OF_LIGHT

DEFAULT_BEAM_REGION = (-30.0, 30.0)  # degrees, the 60 degree main-beam cone
DEFAULT_WINDOW_DEG = 10.0


@dataclass(frozen=True)
class FarFieldCut:
    """One phi-cut of a far-field pattern at a single frequency.

    Angles in degrees, magnitude in dB, phase in degrees as measured
    (wrapping is handled at fit time, not on ingest).
    """

    phi_cut_deg: float
    frequency_hz: float
    theta_deg: np.ndarray
    magnitude_db: np.ndarray
    phase_deg: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi_cut_deg", float(self.phi_cut_deg))
        object.__setattr__(self, "frequency_hz", float(self.frequency_hz))
        object.__setattr__(self, "theta_deg", np.asarray(self.theta_deg, dtype=float))
        object.__setattr__(self, "magnitude_db", np.asarray(self.magnitude_db, dtype=float))
        object.__setattr__(self, "phase_deg", np.asarray(self.phase_deg, dtype=float))
        for name in ("phi_cut_deg", "frequency_hz", "theta_deg", "magnitude_db", "phase_deg"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"far-field cut {name} must be finite")
        n = len(self.theta_deg)
        if n < 3:
            raise ValueError("a far-field cut needs at least 3 samples")
        if len(self.magnitude_db) != n or len(self.phase_deg) != n:
            raise ValueError("theta, magnitude and phase arrays must have equal length")
        if np.any(np.diff(self.theta_deg) <= 0):
            raise ValueError("theta samples must be strictly increasing")
        if self.frequency_hz <= 0:
            raise ValueError("cut frequency must be positive")

    def __len__(self) -> int:
        return len(self.theta_deg)

    def region_mask(self, region) -> np.ndarray:
        """Boolean mask of samples with region[0] <= theta <= region[1]."""
        lo, hi = region
        if not (hi > lo):
            raise ValueError("angular region must have positive width")
        return (self.theta_deg >= lo) & (self.theta_deg <= hi)


@dataclass(frozen=True)
class PhaseCenterFit:
    x0_m: float
    z0_m: float
    phi0_rad: float
    rms_residual_rad: float
    beam_region_deg: tuple
    frequency_hz: float


@dataclass(frozen=True)
class DisplacementSeries:
    """Per-angle difference of fitted phase centers between two bands
    (band A minus band B)."""

    theta_deg: np.ndarray
    dx0_m: np.ndarray
    dz0_m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta_deg", np.asarray(self.theta_deg, dtype=float))
        object.__setattr__(self, "dx0_m", np.asarray(self.dx0_m, dtype=float))
        object.__setattr__(self, "dz0_m", np.asarray(self.dz0_m, dtype=float))
        if not (len(self.theta_deg) == len(self.dx0_m) == len(self.dz0_m)):
            raise ValueError("series arrays must have equal length")

    def __len__(self) -> int:
        return len(self.theta_deg)


@dataclass(frozen=True)
class DisplacementStats:
    """Mean and sample standard deviation (n-1 denominator) of a series.

    ``sd_defined`` is False for a single-element series, where the SDs are
    reported as 0 by convention.
    """

    mean_x0_m: float
    sd_x0_m: float
    mean_z0_m: float
    sd_z0_m: float
    count: int
    sd_defined: bool


def wrap_angle_deg(angle):
    """Wrap angles in degrees into (-180, 180]."""
    w = (np.asarray(angle, dtype=float) + 180.0) % 360.0 - 180.0
    return np.where(w == -180.0, 180.0, w)


def point_source_cut(
    x0_m: float,
    z0_m: float,
    frequency_hz: float,
    theta_deg,
    phi0_rad: float = 0.0,
    magnitude_db=0.0,
    phi_cut_deg: float = 0.0,
    wrap: bool = True,
) -> FarFieldCut:
    """Forward model: the far-field cut of a point source at (x0, z0).

    The synthetic phase is wrapped into (-180, 180] by default to mimic
    measured data; pass wrap=False for the raw unwrapped model.
    """
    theta_deg = np.asarray(theta_deg, dtype=float)
    theta = np.deg2rad(theta_deg)
    k = 2.0 * np.pi * frequency_hz / SPEED_OF_LIGHT
    psi = phi0_rad + k * (x0_m * np.sin(theta) + z0_m * np.cos(theta))
    phase_deg = np.rad2deg(psi)
    if wrap:
        phase_deg = wrap_angle_deg(phase_deg)
    magnitude = np.broadcast_to(np.asarray(magnitude_db, dtype=float), theta_deg.shape)
    return FarFieldCut(
        phi_cut_deg=phi_cut_deg,
        frequency_hz=frequency_hz,
        theta_deg=theta_deg,
        magnitude_db=magnitude.copy(),
        phase_deg=phase_deg,
    )


# why a window cannot be fitted, in the order the checks run; 0 is a good fit
_WINDOW_PROBLEMS = (
    "",
    "angular region must have positive width",
    "fewer than 3 samples inside the beam region",
    "rank-deficient fit: angular samples do not separate x0/z0/phi0",
)
# padded design rows per SVD batch (about 1.5 MB), so that the memory of a
# finely sampled cut's window fits stays bounded
_BATCH_ROWS = 1 << 16


def _fit_windows(cuts, lo, hi):
    """Fits of ``cuts``, on one theta grid, over the windows ``lo[i] <= theta <= hi[i]``.

    Returns ``(coef, rms, problem)``, indexed [cut, window]: coef is (phi0,
    x0, z0), rms the residual RMS in radians, and problem 0 for a good fit or
    the index into ``_WINDOW_PROBLEMS`` of the first check the window fails.
    A failed window's coef and rms are meaningless.

    Windows are solved in zero-padded batches of at most ``_BATCH_ROWS`` rows,
    one SVD each, of ``[1, sin - sin_r, cos - cos_r]``, r the window's first
    sample (cos alone barely changes over a window).  The rank check is
    lstsq's bound ``eps * max(m, 3) * s_max``, m the window's sample count,
    widened by ``3 * max(k, 1/k)``: it rejects every window lstsq rejects on
    ``[1, k sin, k cos]``, and some up to ``8 * max(k, 1/k)**2`` times above.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    grid, n = cuts[0].theta_deg, len(cuts[0])
    start = np.searchsorted(grid, lo, side="left")
    count = np.searchsorted(grid, hi, side="right") - start
    offsets = np.arange(max(int(count.max()), 3))

    k = np.array([2.0 * np.pi * cut.frequency_hz / SPEED_OF_LIGHT for cut in cuts])
    for cut, kc in zip(cuts, k):
        if not np.isfinite(kc):
            raise ValueError(f"frequency {cut.frequency_hz:g} Hz is too large to form a wavenumber")
    theta = np.deg2rad(grid)
    wrapped = np.deg2rad([cut.phase_deg for cut in cuts])
    unwrapped = np.unwrap(wrapped)
    # subtracted from a window's samples, restarts the unwrap at its first one
    # (see the module docstring)
    restart = (unwrapped - wrapped)[:, np.minimum(start, n - 1), None]
    basis = np.column_stack([np.ones(n), np.sin(theta), np.cos(theta)])
    first = basis[np.minimum(start, n - 1)] * [0.0, 1.0, 1.0]  # (0, sin_r, cos_r)

    coef, rms, rank = (np.empty((len(cuts), len(lo), *shape)) for shape in ((3,), (), ()))
    with np.errstate(divide="ignore", over="ignore"):  # a k near 0 fails every window
        widen = 3.0 * np.maximum(k, 1.0 / k)[:, None, None]
    step = max(1, _BATCH_ROWS // len(offsets))
    for w in (slice(i, i + step) for i in range(0, len(lo), step)):
        inside = offsets < count[w, None]
        idx = start[w, None] + offsets
        design = (np.take(basis, idx, axis=0, mode="clip") - first[w, None]) * inside[..., None]
        psi = (np.take(unwrapped, idx, axis=1, mode="clip") - restart[:, w]) * inside
        u, sv, vt = np.linalg.svd(design, full_matrices=False)
        kept = sv > (np.finfo(float).eps * np.maximum(count[w], 3) * sv[:, 0])[:, None] * widen
        proj = psi[:, :, None, :] @ u
        proj = np.divide(proj, sv[:, None], out=np.zeros_like(proj), where=kept[:, :, None])
        coef[:, w] = (proj @ vt)[:, :, 0]
        resid = psi - (coef[:, w, None] @ np.swapaxes(design, 1, 2))[:, :, 0]
        rms[:, w] = np.sqrt(np.einsum("cwm,cwm->cw", resid, resid) / np.maximum(count[w], 1))
        rank[:, w] = np.count_nonzero(kept, axis=2)
    coef[..., 0] -= np.einsum("wj,cwj->cw", first, coef)  # phi0 on [1, sin, cos]
    np.divide(coef[..., 1:], k[:, None, None], out=coef[..., 1:], where=(rank == 3)[..., None])
    problem = np.where(~(hi > lo), 1, np.where(count < 3, 2, np.where(rank < 3, 3, 0)))
    return coef, rms, problem


def fit_phase_center(cut: FarFieldCut, beam_region=DEFAULT_BEAM_REGION) -> PhaseCenterFit:
    """Least-squares phase-center fit over the given angular region.

    The in-region phase is unwrapped along theta (nearest multiple of 360
    degrees), converted to radians, and fitted with the linear model
    ``phi0 + k*(x0*sin + z0*cos)``.  Requires at least 3 in-region samples
    and a full-rank design, i.e. enough angular diversity to separate the
    three parameters.
    """
    lo, hi = beam_region
    coef, rms, problem = _fit_windows([cut], [lo], [hi])
    if problem[0, 0]:
        raise ValueError(_WINDOW_PROBLEMS[problem[0, 0]])
    return PhaseCenterFit(
        x0_m=float(coef[0, 0, 1]),
        z0_m=float(coef[0, 0, 2]),
        phi0_rad=float(coef[0, 0, 0]),
        rms_residual_rad=float(rms[0, 0]),
        beam_region_deg=(float(lo), float(hi)),
        frequency_hz=cut.frequency_hz,
    )


def displacement_series(
    cut_a: FarFieldCut,
    cut_b: FarFieldCut,
    window_deg: float = DEFAULT_WINDOW_DEG,
    beam_region=DEFAULT_BEAM_REGION,
) -> DisplacementSeries:
    """Per-angle phase-center displacement difference between two cuts.

    At each of cut_a's angles that lies inside the beam region and inside
    cut_b's angular span, both cuts are fitted over a window of width
    ``window_deg`` centered there, and the fitted centers differenced
    (A minus B).  The window may extend past the beam-region edges; only
    the evaluation angles are confined to it.  A window that cannot be
    fitted raises ValueError naming the first such angle.
    """
    if cut_a.phi_cut_deg != cut_b.phi_cut_deg:
        raise ValueError("cuts must come from the same phi plane")
    if not (np.isfinite(window_deg) and window_deg > 0):
        raise ValueError(f"window width must be finite and positive, got {window_deg:g} deg")
    lo, hi = beam_region
    if not (hi > lo):
        raise ValueError("beam region must have positive width")
    overlap_lo = max(lo, cut_b.theta_deg[0])
    overlap_hi = min(hi, cut_b.theta_deg[-1])
    centers = cut_a.theta_deg[(cut_a.theta_deg >= overlap_lo) & (cut_a.theta_deg <= overlap_hi)]
    if len(centers) == 0:
        raise ValueError("cuts have no overlapping angles inside the beam region")
    half = window_deg / 2.0
    shared = np.array_equal(cut_a.theta_deg, cut_b.theta_deg)
    groups = [[cut_a, cut_b]] if shared else [[cut_a], [cut_b]]
    coef, _, problem = map(np.concatenate, zip(
        *(_fit_windows(group, centers - half, centers + half) for group in groups)))
    failed = np.flatnonzero(problem[0] | problem[1])
    if len(failed):
        i = failed[0]
        problem = problem[0, i] or problem[1, i]
        raise ValueError(
            f"window {window_deg:g} deg at theta {centers[i]:g} deg: "
            f"{_WINDOW_PROBLEMS[problem]}"
        )
    diff = coef[0] - coef[1]
    return DisplacementSeries(theta_deg=centers.copy(), dx0_m=diff[:, 1], dz0_m=diff[:, 2])


def displacement_stats(series: DisplacementSeries) -> DisplacementStats:
    """Mean and sample SD of the displacement differences over the series."""
    n = len(series)
    if n == 0:
        raise ValueError("cannot summarize an empty series")

    def mean_sd(values):
        # one sample, or an exactly constant series, reports that value with
        # zero SD; summation rounding would otherwise leave ~1e-20 residue
        if len(values) == 1 or np.all(values == values[0]):
            return float(values[0]), 0.0
        return float(np.mean(values)), float(np.std(values, ddof=1))

    mean_x, sd_x = mean_sd(series.dx0_m)
    mean_z, sd_z = mean_sd(series.dz0_m)
    return DisplacementStats(
        mean_x0_m=mean_x,
        sd_x0_m=sd_x,
        mean_z0_m=mean_z,
        sd_z0_m=sd_z,
        count=n,
        sd_defined=n > 1,
    )


def wavelength_fraction(displacement_m: float, frequency_hz: float) -> float:
    """Express a displacement as a fraction of the wavelength at frequency_hz."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return float(displacement_m * frequency_hz / SPEED_OF_LIGHT)
