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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

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


def fit_phase_center(cut: FarFieldCut, beam_region=DEFAULT_BEAM_REGION) -> PhaseCenterFit:
    """Least-squares phase-center fit over the given angular region.

    The in-region phase is unwrapped along theta (nearest multiple of 360
    degrees), converted to radians, and fitted with the linear model
    ``phi0 + k*(x0*sin + z0*cos)``.  Requires at least 3 in-region samples
    and a full-rank design, i.e. enough angular diversity to separate the
    three parameters.
    """
    mask = cut.region_mask(beam_region)
    if np.count_nonzero(mask) < 3:
        raise ValueError("fewer than 3 samples inside the beam region")
    theta = np.deg2rad(cut.theta_deg[mask])
    psi = np.unwrap(np.deg2rad(cut.phase_deg[mask]))
    k = 2.0 * np.pi * cut.frequency_hz / SPEED_OF_LIGHT
    design = np.column_stack([np.ones_like(theta), k * np.sin(theta), k * np.cos(theta)])
    coef, _, rank, _ = np.linalg.lstsq(design, psi, rcond=None)
    if rank < 3:
        raise ValueError("rank-deficient fit: angular samples do not separate x0/z0/phi0")
    resid = psi - design @ coef
    return PhaseCenterFit(
        x0_m=float(coef[1]),
        z0_m=float(coef[2]),
        phi0_rad=float(coef[0]),
        rms_residual_rad=float(np.sqrt(np.mean(resid**2))),
        beam_region_deg=(float(beam_region[0]), float(beam_region[1])),
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
    the evaluation angles are confined to it.
    """
    if cut_a.phi_cut_deg != cut_b.phi_cut_deg:
        raise ValueError("cuts must come from the same phi plane")
    if window_deg <= 0:
        raise ValueError("window width must be positive")
    lo, hi = beam_region
    if not (hi > lo):
        raise ValueError("beam region must have positive width")
    overlap_lo = max(lo, cut_b.theta_deg[0])
    overlap_hi = min(hi, cut_b.theta_deg[-1])
    centers = cut_a.theta_deg[(cut_a.theta_deg >= overlap_lo) & (cut_a.theta_deg <= overlap_hi)]
    if len(centers) == 0:
        raise ValueError("cuts have no overlapping angles inside the beam region")
    half = window_deg / 2.0
    dx = np.empty(len(centers))
    dz = np.empty(len(centers))
    for i, center in enumerate(centers):
        window = (center - half, center + half)
        try:
            fit_a = fit_phase_center(cut_a, window)
            fit_b = fit_phase_center(cut_b, window)
        except ValueError as exc:
            raise ValueError(
                f"window {window_deg:g} deg at theta {center:g} deg: {exc}"
            ) from exc
        dx[i] = fit_a.x0_m - fit_b.x0_m
        dz[i] = fit_a.z0_m - fit_b.z0_m
    return DisplacementSeries(theta_deg=centers.copy(), dx0_m=dx, dz0_m=dz)


def displacement_stats(series: DisplacementSeries) -> DisplacementStats:
    """Mean and sample SD of the displacement differences over the series."""
    n = len(series)
    if n == 0:
        raise ValueError("cannot summarize an empty series")
    if n == 1:
        return DisplacementStats(
            mean_x0_m=float(series.dx0_m[0]),
            sd_x0_m=0.0,
            mean_z0_m=float(series.dz0_m[0]),
            sd_z0_m=0.0,
            count=1,
            sd_defined=False,
        )
    def mean_sd(values):
        # an exactly constant series must report that constant with zero SD;
        # summation rounding would otherwise leave ~1e-20 residue in both
        if np.all(values == values[0]):
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
        sd_defined=True,
    )


def wavelength_fraction(displacement_m: float, frequency_hz: float) -> float:
    """Express a displacement as a fraction of the wavelength at frequency_hz."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return float(displacement_m * frequency_hz / SPEED_OF_LIGHT)
