"""Shared file formats: far-field and result CSVs, scenario JSON, manifests.

Every CSV layout goes through one row writer under a header constant
defined here.  Floats use the shortest decimal representation that
round-trips to the same float (Python's repr), so golden files are stable
across platforms and parse back bit-exact; integer columns are plain.

Far-field CSV layout: header ``theta_deg,phi_deg,frequency_hz,magnitude_db,
phase_deg``, one cut per (phi, frequency) group of rows that appear
together, theta strictly increasing within a group, every value finite.
z is the boresight axis and theta is measured from z toward x, matching
the phase-center sign convention.

Scenario JSON fields are checked against the config dataclass types:
booleans must be JSON booleans, integers non-bool integers and floats
finite numbers; anything else, like an unknown key, raises ValueError.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from dataclasses import MISSING, asdict, astuple, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, rand
from .phase_center import FarFieldCut, DisplacementSeries
from .ranging import RangingScenario
from .waveform import SpectrumModel, ToneSet

FARFIELD_HEADER = "theta_deg,phi_deg,frequency_hz,magnitude_db,phase_deg"
SPECTRUM_HEADER = "frequency_hz,energy_density"
DISPLACEMENT_HEADER = "theta_deg,dx0_m,dz0_m"
BANDS_HEADER = "f_res_hz,s11_min_db,f_low_hz,f_high_hz,fbw"
SWEEP_HEADER = "delta_f_hz,snr_db,crlb_std_range_m,mc_rmse_range_m,crlb_ratio,failures"
COHERENCE_GRID_HEADER = (
    "sigma_range_m,sigma_phi_rad,mean_gain_fraction,analytic_gain_fraction,p_gain_above_90pct"
)


def fmt_float(x) -> str:
    """Shortest decimal string that parses back to exactly x."""
    return repr(float(x))


def _write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one line per row; ints via str, floats via fmt_float."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            cells = (str(v) if isinstance(v, (int, np.integer)) else fmt_float(v) for v in row)
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# far-field CSV
# ---------------------------------------------------------------------------


def save_farfield_cuts(cuts, path) -> None:
    """Write one or more cuts as far-field CSV (full float precision)."""
    if isinstance(cuts, FarFieldCut):
        cuts = [cuts]
    if len(cuts) == 0:
        raise ValueError("no cuts to write")
    rows = (
        (theta, cut.phi_cut_deg, cut.frequency_hz, mag, phase)
        for cut in cuts
        for theta, mag, phase in zip(cut.theta_deg, cut.magnitude_db, cut.phase_deg)
    )
    _write_csv(path, FARFIELD_HEADER, rows)


def _farfield_row_groups(reader) -> list:
    """Read far-field rows one by one: ``(phi, frequency, rows)`` per group,
    with ``rows`` an (m, 3) array of theta, magnitude and phase.  The first
    row that breaks a rule raises ValueError naming it."""
    groups = {}
    last = None
    for row in reader:
        if not row:
            continue
        if len(row) != 5:
            raise ValueError(f"far-field row must have 5 columns: {row!r}")
        theta, phi, freq, mag, phase = (float(v) for v in row)
        if (phi, freq) != last:  # a new group; FarFieldCut checks the other columns
            if not (math.isfinite(phi) and math.isfinite(freq)):
                raise ValueError(f"far-field phi and frequency must be finite: {row!r}")
            if (phi, freq) in groups:
                raise ValueError(f"far-field rows of one group must appear together: {row!r}")
            last = (phi, freq)
            group = groups[last] = []
        group.append((theta, mag, phase))
    return [(phi, freq, np.array(rows)) for (phi, freq), rows in groups.items()]


def _farfield_block_groups(fh):
    """Parse the far-field rows left in ``fh`` with one ``np.loadtxt`` call;
    the groups as :func:`_farfield_row_groups` gives them, or None when
    ``np.loadtxt`` cannot read the block or the block breaks a rule."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns about a block with no rows
            data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    if data.shape[1] != 5 or not np.all(np.isfinite(data[:, 1:3])):
        return None
    key = data[:, 1:3]
    starts = [0, *(1 + np.flatnonzero(np.any(key[1:] != key[:-1], axis=1))).tolist()]
    keys = [tuple(k) for k in key[starts].tolist()]
    if len(set(keys)) != len(keys):
        return None  # a group resumes after another one
    columns = data[:, [0, 3, 4]]
    return [
        (phi, freq, columns[a:b])
        for (phi, freq), a, b in zip(keys, starts, starts[1:] + [len(data)])
    ]


def load_farfield_cuts(path) -> list:
    """Read far-field CSV, one FarFieldCut per (phi, frequency) group.

    Rows belonging to one group must appear together and with strictly
    increasing theta, and every value must be finite; anything else fails
    validation.  The header is checked first and the rows are parsed by one
    ``np.loadtxt`` call.  When that call fails or the rows break a rule, the
    per-row reader reruns: it names the row at fault, or reads the values
    that only ``float()`` takes, such as ``1_0``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty far-field file")
        if [h.strip() for h in header] != FARFIELD_HEADER.split(","):
            raise ValueError(f"unexpected far-field header: {','.join(header)!r}")
        groups = _farfield_block_groups(fh)
        if groups is None:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            groups = _farfield_row_groups(reader)
    if not groups:
        raise ValueError("far-field file contains no data rows")
    return [
        FarFieldCut(
            phi_cut_deg=phi,
            frequency_hz=freq,
            theta_deg=rows[:, 0],
            magnitude_db=rows[:, 1],
            phase_deg=rows[:, 2],
        )
        for phi, freq, rows in groups
    ]


# ---------------------------------------------------------------------------
# result CSVs
# ---------------------------------------------------------------------------


def write_spectrum_csv(spec: SpectrumModel, path) -> None:
    if spec.kind != "discrete":
        raise ValueError("spectrum CSV needs a discrete spectrum (run spectrum_of first)")
    _write_csv(path, SPECTRUM_HEADER, zip(spec.frequencies, spec.energy_density))


def write_displacement_csv(series: DisplacementSeries, path) -> None:
    if len(series) == 0:
        raise ValueError("empty displacement series")
    _write_csv(path, DISPLACEMENT_HEADER, zip(series.theta_deg, series.dx0_m, series.dz0_m))


def write_bands_csv(bands, path) -> None:
    if len(bands) == 0:
        raise ValueError("empty band list")
    _write_csv(
        path,
        BANDS_HEADER,
        ((b.f_resonance_hz, b.s11_min_db, b.f_low_hz, b.f_high_hz, b.fractional_bw) for b in bands),
    )


@dataclass(frozen=True)
class SweepPoint:
    """One (tone separation, SNR) cell of an accuracy-surface sweep."""

    delta_f_hz: float
    snr_db: float
    crlb_std_range_m: float
    mc_rmse_range_m: float
    crlb_ratio: float
    failures: int


def write_sweep_csv(points, path) -> None:
    if len(points) == 0:
        raise ValueError("empty sweep")
    _write_csv(path, SWEEP_HEADER, (astuple(p) for p in points))


def write_coherence_grid_csv(rows, path) -> None:
    """Write ``(sigma_range_m, sigma_phi_rad, CoherentGainReport)`` grid rows."""
    if len(rows) == 0:
        raise ValueError("empty coherence grid")
    _write_csv(path, COHERENCE_GRID_HEADER, ((sig, phi, *astuple(r)) for sig, phi, r in rows))


# ---------------------------------------------------------------------------
# scenario JSON
# ---------------------------------------------------------------------------


def _take(section: dict, allowed: dict, where: str) -> dict:
    """Apply defaults from ``allowed`` and reject unknown keys."""
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    out = dict(allowed)
    out.update(section)
    return out


def _is_finite(value) -> bool:
    """A JSON number (not a bool) that is finite as a float."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# dataclass field type -> (what the JSON value must be, its check)
_FIELD_CHECKS = {
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "float": ("a finite number", _is_finite),
    "tuple": ("a list of finite numbers", lambda v: type(v) is list and all(map(_is_finite, v))),
}


def _check_field(value, kind: str, where: str):
    """``value`` if it is a valid JSON field of dataclass type ``kind``; lists become tuples."""
    what, ok = _FIELD_CHECKS[kind]
    if not ok(value):
        raise ValueError(f"{where} must be {what}, got {value!r}")
    return tuple(value) if kind == "tuple" else value


@dataclass(frozen=True)
class WaveformConfig:
    duration_s: float
    sample_rate_hz: float
    separation_hz: float = None
    tone_frequencies_hz: tuple = None
    tone_amplitudes: tuple = None
    tone_phases_rad: tuple = None

    def tone_set(self) -> ToneSet:
        if (self.separation_hz is None) == (self.tone_frequencies_hz is None):
            raise ValueError(
                "waveform section needs exactly one of separation_hz or tone_frequencies_hz"
            )
        if self.separation_hz is not None:
            return ToneSet.two_tone(self.separation_hz)
        freqs = self.tone_frequencies_hz
        amps = self.tone_amplitudes or (1.0,) * len(freqs)
        phases = self.tone_phases_rad or (0.0,) * len(freqs)
        if not (len(freqs) == len(amps) == len(phases)):
            raise ValueError("tone frequency/amplitude/phase lists must have equal length")
        return ToneSet.from_pairs(zip(freqs, amps, phases))


@dataclass(frozen=True)
class RangingConfig:
    snr_db: float
    true_delay_s: float
    two_way: bool = False
    trials: int = 1000


@dataclass(frozen=True)
class BeamformConfig:
    n_nodes: int
    f_action_hz: float
    sigma_range_m: float
    trials: int = 100000


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario file; every section is independently optional."""

    seed: int = 0
    output_dir: str = "."
    waveform: WaveformConfig = None
    ranging: RangingConfig = None
    beamform: BeamformConfig = None

    def ranging_scenario(self, seed=None) -> RangingScenario:
        """Assemble a RangingScenario; needs waveform and ranging sections."""
        if self.waveform is None or self.ranging is None:
            raise ValueError("scenario needs both waveform and ranging sections")
        return RangingScenario(
            tones=self.waveform.tone_set(),
            snr_db=self.ranging.snr_db,
            true_delay=self.ranging.true_delay_s,
            two_way=self.ranging.two_way,
            sample_rate=self.waveform.sample_rate_hz,
            duration=self.waveform.duration_s,
            seed=self.seed if seed is None else seed,
        )


_SECTIONS = {"waveform": WaveformConfig, "ranging": RangingConfig, "beamform": BeamformConfig}


def _parse_section(raw, cls, name: str):
    """One scenario section: fields without a dataclass default are required."""
    if not isinstance(raw, dict):
        raise ValueError(f"scenario section {name} must be a JSON object")
    defaults = {f.name: None if f.default is MISSING else f.default for f in fields(cls)}
    merged = _take(raw, defaults, f"scenario section {name}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and merged[f.name] is None]
    if missing:
        raise ValueError(f"scenario section {name} is missing: {', '.join(missing)}")
    values = {}
    for f in fields(cls):
        value = merged[f.name]
        if value is not None or f.default is not None:  # None leaves an optional field unset
            value = _check_field(value, f.type, f"scenario field {name}.{f.name}")
        values[f.name] = value
    return cls(**values)


def parse_scenario(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    top = _take(doc, {f.name: f.default for f in fields(ScenarioConfig)}, "scenario")
    return ScenarioConfig(
        seed=rand.check_seed(top["seed"]),
        output_dir=_check_field(top["output_dir"], "str", "scenario field output_dir"),
        **{
            name: None if top[name] is None else _parse_section(top[name], cls, name)
            for name, cls in _SECTIONS.items()
        },
    )


def load_scenario(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario file is not valid JSON: {exc}")
    return parse_scenario(doc)


# ---------------------------------------------------------------------------
# run manifests and JSON reports
# ---------------------------------------------------------------------------


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def manifest_path_for(output_path) -> Path:
    return Path(output_path).with_suffix(".manifest.json")


def write_manifest(output_path, command, parameters, input_paths=(), extra_outputs=()) -> Path:
    """Record tool version, input digests and resolved parameters next to an
    output artifact, so the run can be re-executed from the manifest alone.
    The timestamp is the only non-reproducible field."""
    manifest = {
        "tool": "rangekit",
        "version": __version__,
        "command": list(command),
        "inputs": {str(p): sha256_of(p) for p in input_paths},
        "parameters": parameters,
        "outputs": [str(output_path)] + [str(p) for p in extra_outputs],
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    path = manifest_path_for(output_path)
    dump_json(manifest, path)
    return path


def dump_json(doc, path) -> None:
    """Write ``doc`` as JSON; a NaN or Infinity raises before the file is opened."""
    text = json.dumps(doc, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def finite_or_none(value):
    """``None`` for a non-finite float (JSON has no NaN or Infinity), else ``value``."""
    return None if isinstance(value, float) and not np.isfinite(value) else value


def report_dict(obj) -> dict:
    """Dataclass report -> plain dict with JSON-safe scalars; a non-finite
    float becomes ``None``."""
    out = {}
    for key, value in asdict(obj).items():
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        out[key] = finite_or_none(value)
    return out
