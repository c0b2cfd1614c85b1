"""Reflection-coefficient band metrics and main-beam gain statistics.

Band metrics come from a one-port reflection sweep: maximal contiguous
intervals where S11 stays below a threshold (default -10 dB), with the band
edges located by linear interpolation in (frequency, dB) space, the
resonance at the in-band minimum, and the fractional bandwidth
(f_high - f_low)/f_resonance.  Bands cut off by the sweep edges are flagged
as truncated.

Gain statistics are 1-D cut statistics over an angular region, by default
the 60 degree cone theta in [-30, +30] about boresight.  The mean is taken
in the dB domain by default because published mean/max pairs rarely state
the averaging domain; a linear-power mean is available via a flag.  Note
cut-based statistics only approximate full solid-angle statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_center import DEFAULT_BEAM_REGION, FarFieldCut

DEFAULT_THRESHOLD_DB = -10.0
_FREQ_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
_FORMATS = ("DB", "MA", "RI")
_PARAMETERS = ("S", "Y", "Z", "G", "H")


@dataclass(frozen=True)
class SParamTrace:
    """Frequency-swept reflection coefficient magnitude in dB."""

    frequency_hz: np.ndarray
    s11_db: np.ndarray
    source_format: str = ""

    def __post_init__(self):
        object.__setattr__(self, "frequency_hz", np.asarray(self.frequency_hz, dtype=float))
        object.__setattr__(self, "s11_db", np.asarray(self.s11_db, dtype=float))
        if len(self.frequency_hz) != len(self.s11_db):
            raise ValueError("frequency and S11 arrays must have equal length")
        if len(self.frequency_hz) < 2:
            raise ValueError("a trace needs at least 2 points")
        if not (np.all(np.isfinite(self.frequency_hz)) and np.all(np.isfinite(self.s11_db))):
            raise ValueError("trace frequencies and S11 values must be finite")
        if np.any(np.diff(self.frequency_hz) <= 0):
            raise ValueError("trace frequencies must be strictly increasing")


@dataclass(frozen=True)
class BandMetrics:
    """One matched band of a reflection sweep.

    ``truncated`` marks bands that run into a sweep edge, where the true
    crossing lies outside the measured span and the edge frequency is used.
    """

    f_resonance_hz: float
    s11_min_db: float
    f_low_hz: float
    f_high_hz: float
    fractional_bw: float
    truncated: bool = False

    def __post_init__(self):
        if not (self.f_low_hz <= self.f_resonance_hz <= self.f_high_hz):
            raise ValueError("band edges must bracket the resonance")


@dataclass(frozen=True)
class GainStats:
    frequency_hz: float
    max_gain_db: float
    mean_gain_db: float
    region_deg: tuple
    mean_domain: str = "db"  # "db" or "linear": domain the mean was taken in


def _parse_option_line(tokens) -> tuple[str, str, str, float]:
    """(unit, parameter, format, resistance); an omitted token keeps its Touchstone default."""
    unit, parameter, fmt, resistance = "GHZ", "S", "MA", 50.0
    it = iter(tokens)
    for tok in it:
        up = tok.upper()
        if up in _FREQ_UNITS:
            unit = up
        elif up in _PARAMETERS:
            parameter = up
        elif up in _FORMATS:
            fmt = up
        elif up == "R":
            try:
                resistance = float(next(it))
            except (StopIteration, ValueError):
                raise ValueError("malformed option line: R must be followed by a resistance")
        else:
            raise ValueError(f"malformed option line: unknown token {tok!r}")
    if parameter != "S":
        raise ValueError(f"only S-parameter files are supported, got {parameter}")
    return unit, parameter, fmt, resistance


def _to_db(fmt: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if fmt == "DB":
        return a
    if fmt == "MA":
        if np.any(a <= 0):
            raise ValueError("magnitude-angle data requires positive magnitudes")
        return 20.0 * np.log10(a)
    # RI
    mag = np.hypot(a, b)
    if np.any(mag == 0):
        raise ValueError("real-imaginary data contains a zero-magnitude point")
    return 20.0 * np.log10(mag)


def _raise_at_fault(rows, has_option: bool) -> None:
    """Raise the ValueError naming the first data row that breaks a line rule."""
    for raw in rows:
        values = raw.split("!", 1)[0].split()
        if values and values[0].startswith("#"):
            raise ValueError("multiple option lines" if has_option
                             else "option line must precede the data")
        if len(values) > 3:
            raise ValueError(f"expected one-port rows of 3 columns, got {len(values)} "
                             "(multi-port data is not supported)")
        try:
            if 0 < len(values) < 3:
                raise ValueError
            for v in values:
                float(v)
        except ValueError:
            raise ValueError(f"malformed data row: {raw.strip()!r}") from None


def load_touchstone(path) -> SParamTrace:
    """Load a one-port Touchstone (.s1p) sweep as a dB-magnitude trace.

    Accepts the standard option line ``# <HZ|KHZ|MHZ|GHZ> S <DB|MA|RI> R <n>``
    (tokens optional, defaults GHZ S MA R 50), full-line and trailing ``!``
    comments, and three-column data rows.  Phase/angle information is
    dropped; only the reflection magnitude is kept.

    One pass reads the comment and option lines up to the first data row,
    and one ``np.loadtxt`` call parses the rest.  Only a block that call
    refuses is scanned, once, to name the line at fault: a ``#`` line, or a
    row that is not 3 values ``float()`` takes.
    """
    with open(path) as fh:
        lines = fh.readlines()
    option, first_row = None, len(lines)
    for i, raw in enumerate(lines):
        line = raw.split("!", 1)[0].strip()
        if line.startswith("#"):
            if option is not None:
                raise ValueError("multiple option lines")
            option = _parse_option_line(line[1:].split())
        elif line:
            first_row = i
            break
    if first_row == len(lines):
        raise ValueError("no data rows in Touchstone file")
    try:
        data = np.loadtxt(lines[first_row:], comments="!", ndmin=2)
        if data.shape[1] != 3:
            raise ValueError(f"{data.shape[1]} columns")
    except ValueError as exc:
        _raise_at_fault(lines[first_row:], option is not None)
        raise ValueError(f"malformed data block: {exc}") from None
    unit, parameter, fmt, resistance = option or _parse_option_line(())
    with np.errstate(over="ignore"):  # SParamTrace rejects a frequency that overflows
        freq = data[:, 0] * _FREQ_UNITS[unit]
    s11_db = _to_db(fmt, data[:, 1], data[:, 2])
    return SParamTrace(
        frequency_hz=freq,
        s11_db=s11_db,
        source_format=f"{unit} {parameter} {fmt} R {resistance:g}",
    )


def write_touchstone(trace: SParamTrace, path) -> None:
    """Write a trace as dB-angle Touchstone with zero angle, full precision.

    Frequencies are written in Hz so values round-trip exactly through
    :func:`load_touchstone`.
    """
    with open(path, "w") as fh:
        fh.write("! one-port reflection magnitude (angle not retained)\n")
        fh.write("# HZ S DB R 50\n")
        for f, s in zip(trace.frequency_hz, trace.s11_db):
            fh.write(f"{float(f)!r} {float(s)!r} 0\n")


def _crossing(f0, s0, f1, s1, threshold):
    """Frequency where the linear segment (f0,s0)-(f1,s1) hits threshold."""
    return f0 + (threshold - s0) * (f1 - f0) / (s1 - s0)


def find_bands(trace: SParamTrace, threshold_db: float = DEFAULT_THRESHOLD_DB) -> list:
    """Maximal sub-threshold bands of a reflection sweep, ascending in frequency.

    Returns an empty list when the trace never dips below the threshold.
    """
    if not np.isfinite(threshold_db):
        raise ValueError(f"band threshold must be finite, got {threshold_db!r}")
    f = trace.frequency_hz
    s = trace.s11_db
    below = s < threshold_db
    idx = np.flatnonzero(below)
    if len(idx) == 0:
        return []
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    bands = []
    for run in runs:
        i0, i1 = int(run[0]), int(run[-1])
        truncated = False
        if i0 == 0:
            f_low = float(f[0])
            truncated = True
        else:
            f_low = float(_crossing(f[i0 - 1], s[i0 - 1], f[i0], s[i0], threshold_db))
        if i1 == len(f) - 1:
            f_high = float(f[-1])
            truncated = True
        else:
            f_high = float(_crossing(f[i1], s[i1], f[i1 + 1], s[i1 + 1], threshold_db))
        j = i0 + int(np.argmin(s[i0 : i1 + 1]))
        if f[j] <= 0:
            raise ValueError(f"band resonance at {f[j]:g} Hz has no fractional bandwidth")
        bands.append(
            BandMetrics(
                f_resonance_hz=float(f[j]),
                s11_min_db=float(s[j]),
                f_low_hz=f_low,
                f_high_hz=f_high,
                fractional_bw=(f_high - f_low) / float(f[j]),
                truncated=truncated,
            )
        )
    return bands


def gain_beam_stats(
    cut: FarFieldCut, region=DEFAULT_BEAM_REGION, linear_mean: bool = False
) -> GainStats:
    """Max and mean gain over an inclusive angular region of a pattern cut.

    The mean is a plain arithmetic mean of the dB samples unless
    ``linear_mean`` is set, in which case powers are averaged and the result
    converted back to dB.  Powers are taken relative to the region's peak,
    so no dB value, however large or small, overflows or underflows them.
    """
    mask = cut.region_mask(region)
    if not np.any(mask):
        raise ValueError("no pattern samples inside the region")
    g = cut.magnitude_db[mask]
    peak = np.max(g)
    if linear_mean:
        mean = peak + 10.0 * np.log10(np.mean(10.0 ** (g / 10.0 - peak / 10.0)))
    else:
        with np.errstate(over="ignore"):
            mean = np.mean(g)
        if not np.isfinite(mean):  # the sum overflowed; the scaled terms cannot
            mean = np.sum(g / len(g))
    return GainStats(
        frequency_hz=cut.frequency_hz,
        max_gain_db=float(peak),
        mean_gain_db=float(mean),
        region_deg=(float(region[0]), float(region[1])),
        mean_domain="linear" if linear_mean else "db",
    )
