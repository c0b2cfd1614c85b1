"""Antenna phase-center fitting from far-field phase cuts.

An antenna whose phase center sits at (x0, z0) in the cut plane, with z the
boresight axis and theta measured from z toward x, radiates a far-field
phase

    psi(theta) = phi0 + k * (x0*sin(theta) + z0*cos(theta)),   k = 2*pi*f/c.

Fitting that model to a measured phase cut by linear least squares (after
unwrapping) recovers the in-plane displacement.  The y-component is not
observable from a single cut and is out of scope.

Displacement between two frequency bands is computed as a per-angle series:
at each angle a small sliding window of the cut is fitted independently for
both bands and the fitted centers are differenced.  Statistics over that
series summarize how far apart the bands' phase centers sit, usually quoted
as a fraction of the wavelength at the coherent-action frequency.

All windows of a cut are fitted as one batch, from one unwrap of the whole
cut.  That unwrap gives each window the same phases as unwrapping the
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


def _fit_windows(cut: FarFieldCut, lo, hi):
    """Phase-center fits of ``cut`` over the windows ``lo[i] <= theta <= hi[i]``.

    Returns ``(coef, rms, problem)``: ``coef[i]`` is (phi0, x0, z0),
    ``rms[i]`` the residual RMS in radians, and ``problem[i]`` 0 for a good
    fit or the index into ``_WINDOW_PROBLEMS`` of the first check the
    window fails.  A failed window's coef and rms are meaningless.

    Windows are solved as zero-padded batches of SVDs, each of at most
    ``_BATCH_ROWS`` padded rows.  The rank check is lstsq's: singular values
    above ``eps * max(m, 3) * s_max``, with m the window's own sample count.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n = len(cut)
    start = np.searchsorted(cut.theta_deg, lo, side="left")
    count = np.searchsorted(cut.theta_deg, hi, side="right") - start
    offsets = np.arange(max(int(count.max()), 3))

    theta = np.deg2rad(cut.theta_deg)
    k = 2.0 * np.pi * cut.frequency_hz / SPEED_OF_LIGHT
    basis = np.column_stack([np.ones(n), k * np.sin(theta), k * np.cos(theta)])
    wrapped = np.deg2rad(cut.phase_deg)
    unwrapped = np.unwrap(wrapped)
    # subtracted from a window's samples, restarts the unwrap at its first one
    # (see the module docstring)
    restart = (unwrapped - wrapped)[np.minimum(start, n - 1)]

    coef, rms, rank = np.empty((len(lo), 3)), np.empty(len(lo)), np.empty(len(lo), dtype=int)
    step = max(1, _BATCH_ROWS // len(offsets))
    for w in (slice(i, i + step) for i in range(0, len(lo), step)):
        inside = offsets < count[w, None]
        idx = np.minimum(start[w, None] + offsets, n - 1)
        design = np.where(inside[..., None], basis[idx], 0.0)
        psi = np.where(inside, unwrapped[idx] - restart[w, None], 0.0)
        u, sv, vt = np.linalg.svd(design, full_matrices=False)
        kept = sv > (np.finfo(float).eps * np.maximum(count[w], 3) * sv[:, 0])[:, None]
        proj = np.einsum("wmi,wm->wi", u, psi)
        proj = np.divide(proj, sv, out=np.zeros_like(proj), where=kept)
        coef[w] = np.einsum("wij,wi->wj", vt, proj)
        resid = psi - np.einsum("wmj,wj->wm", design, coef[w])
        rms[w] = np.sqrt(np.sum(resid**2, axis=1) / np.maximum(count[w], 1))
        rank[w] = np.count_nonzero(kept, axis=1)
    problem = np.select([~(hi > lo), count < 3, rank < 3], [1, 2, 3], 0)
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
    coef, rms, problem = _fit_windows(cut, [lo], [hi])
    if problem[0]:
        raise ValueError(_WINDOW_PROBLEMS[problem[0]])
    return PhaseCenterFit(
        x0_m=float(coef[0, 1]),
        z0_m=float(coef[0, 2]),
        phi0_rad=float(coef[0, 0]),
        rms_residual_rad=float(rms[0]),
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
    (coef_a, _, problem_a), (coef_b, _, problem_b) = (
        _fit_windows(cut, centers - half, centers + half) for cut in (cut_a, cut_b)
    )
    failed = np.flatnonzero(problem_a | problem_b)
    if len(failed):
        i = failed[0]
        problem = problem_a[i] or problem_b[i]
        raise ValueError(
            f"window {window_deg:g} deg at theta {centers[i]:g} deg: "
            f"{_WINDOW_PROBLEMS[problem]}"
        )
    diff = coef_a - coef_b
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
