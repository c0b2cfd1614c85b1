"""Shared file formats: far-field and result CSVs, scenario JSON, manifests.

Every CSV layout goes through one row writer under a header constant
defined here.  Floats use the shortest decimal representation that
round-trips to the same float (Python's repr), so golden files are stable
across platforms and parse back bit-exact; integer columns are plain.

Far-field CSV layout: header ``theta_deg,phi_deg,frequency_hz,magnitude_db,
phase_deg``, one cut per (phi, frequency) group of rows that appear
together, theta strictly increasing within a group, every value finite.
z is the boresight axis and theta is measured from z toward x, matching
the phase-center sign convention.  The rows are parsed into one (n, 5)
block (by the csv module only when ``np.loadtxt`` refuses them), and one
pass applies the group rules to it.  :func:`load_json` decodes every JSON input.

Every section read through :func:`parse_section` (scenario JSON, the CLI
flags laid over it, a dimension record's substrate) is checked against its
dataclass types: booleans must be JSON booleans, integers non-bool integers
and floats finite numbers; anything else, like an unknown key, raises ValueError.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import MISSING, astuple, dataclass, fields
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
    "sigma_range_m,sigma_phi_rad,mean_gain_fraction,analytic_gain_fraction,p_gain_above_90pct,"
    "se_mean_gain_fraction"
)


def fmt_float(x) -> str:
    """Shortest decimal string that parses back to exactly x."""
    return repr(float(x))


def _write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one line per row; ints via str, floats via
    fmt_float, and None, an undefined statistic, as ``nan``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            cells = ("nan" if v is None else str(v) if isinstance(v, (int, np.integer))
                     else fmt_float(v) for v in row)
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


def _data_rows(fh) -> list:
    """The csv rows after the header of the far-field file ``fh``, blank rows skipped."""
    fh.seek(0)
    return [row for row in csv.reader(fh) if row][1:]


def _farfield_cuts(data, row_at) -> list:
    """One FarFieldCut per (phi, frequency) group of the parsed (n, 5) block.

    Phi and frequency must be finite, and the rows of a group must appear
    together; FarFieldCut checks the other columns.  The first row that
    breaks a rule, ``row_at(i)`` for data row i, is named in the ValueError.
    """
    key = data[:, 1:3]
    bad = np.flatnonzero(~np.all(np.isfinite(key), axis=1))
    if bad.size:
        raise ValueError(f"far-field phi and frequency must be finite: {row_at(bad[0])!r}")
    starts = [0, *(1 + np.flatnonzero(np.any(key[1:] != key[:-1], axis=1))).tolist()]
    keys = [tuple(k) for k in key[starts].tolist()]
    seen = set()
    for k, start in zip(keys, starts):
        if k in seen:
            raise ValueError(f"far-field rows of one group must appear together: {row_at(start)!r}")
        seen.add(k)
    return [
        FarFieldCut(phi, freq, data[a:b, 0], data[a:b, 3], data[a:b, 4])
        for (phi, freq), a, b in zip(keys, starts, starts[1:] + [len(data)])
    ]


def load_farfield_cuts(path) -> list:
    """Read far-field CSV, one FarFieldCut per (phi, frequency) group.

    Rows belonging to one group must appear together and with strictly
    increasing theta, and every value must be finite.  After the header,
    one ``np.loadtxt`` call parses the rows.  Only a block it refuses is
    read with the csv module, which names the first row without 5 columns
    and takes the spellings ``float()`` takes, such as ``1_0``.  One pass
    then applies the group rules to the parsed block; otherwise the csv rows
    are read only to name the row at fault.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty far-field file")
        if [h.strip() for h in header] != FARFIELD_HEADER.split(","):
            raise ValueError(f"unexpected far-field header: {','.join(header)!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt only warns about a block with no rows
                data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
        except (ValueError, UserWarning):
            data = np.empty((0, 0))
        rows = None
        if data.shape[1] != 5:
            rows = _data_rows(fh)
            short = next((row for row in rows if len(row) != 5), None)
            if short is not None:
                raise ValueError(f"far-field row must have 5 columns: {short!r}")
            if not rows:
                raise ValueError("far-field file contains no data rows")
            data = np.array(rows, dtype=float)
        return _farfield_cuts(data, lambda i: (rows or _data_rows(fh))[i])


# ---------------------------------------------------------------------------
# result CSVs
# ---------------------------------------------------------------------------


def write_spectrum_csv(spec: SpectrumModel, path) -> None:
    _write_csv(path, SPECTRUM_HEADER, zip(spec.frequencies, spec.energy_density))


def write_displacement_csv(series: DisplacementSeries, path) -> None:
    if len(series) == 0:
        raise ValueError("empty displacement series")
    _write_csv(path, DISPLACEMENT_HEADER, zip(series.theta_deg, series.dx0_m, series.dz0_m))


def write_bands_csv(bands, path) -> None:
    """Write one row per band; a sweep with no band gives the header alone."""
    _write_csv(
        path,
        BANDS_HEADER,
        ((b.f_resonance_hz, b.s11_min_db, b.f_low_hz, b.f_high_hz, b.fractional_bw) for b in bands),
    )


def write_sweep_csv(rows, path) -> None:
    """Write accuracy-surface rows, one tuple per grid cell in the columns of SWEEP_HEADER."""
    if len(rows) == 0:
        raise ValueError("empty sweep")
    _write_csv(path, SWEEP_HEADER, rows)


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
    "tuple": (
        "a list of finite numbers",
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_finite, v)),
    ),
}


def _as_number(value):
    """A number numpy can hold: an integer past int64 becomes the nearest float."""
    return value if -(2**63) <= value < 2**63 else float(value)


def check_field(value, type_name: str, where: str):
    """``value`` if it is a valid JSON field of dataclass type ``type_name``,
    with lists as tuples and numbers as :func:`_as_number` gives them."""
    what, ok = _FIELD_CHECKS[type_name]
    if not ok(value):
        import reprlib  # the error path only: shortens a long rejected value
        raise ValueError(f"{where} must be {what}, got {reprlib.repr(value)}")
    if type_name == "tuple":
        return tuple(map(_as_number, value))
    return _as_number(value) if type_name == "float" else value


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
            if self.tone_amplitudes is not None or self.tone_phases_rad is not None:
                raise ValueError(
                    "waveform tone_amplitudes and tone_phases_rad need tone_frequencies_hz, "
                    "not separation_hz"
                )
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


def parse_section(raw, cls, name: str):
    """Dataclass ``cls`` from the JSON object ``raw``, each field checked
    against its declared type; fields without a dataclass default are required."""
    if not isinstance(raw, dict):
        raise ValueError(f"section {name} must be a JSON object")
    defaults = {f.name: None if f.default is MISSING else f.default for f in fields(cls)}
    merged = _take(raw, defaults, f"section {name}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and merged[f.name] is None]
    if missing:
        raise ValueError(f"section {name} is missing: {', '.join(missing)}")
    values = {}
    for f in fields(cls):
        value = merged[f.name]
        if value is not None or f.default is not None:  # None leaves an optional field unset
            value = check_field(value, f.type, f"field {name}.{f.name}")
        values[f.name] = value
    return cls(**values)


def parse_scenario(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    top = _take(doc, {f.name: f.default for f in fields(ScenarioConfig)}, "scenario")
    return ScenarioConfig(
        seed=rand.check_seed(top["seed"]),
        output_dir=check_field(top["output_dir"], "str", "scenario field output_dir"),
        **{
            name: None if top[name] is None else parse_section(top[name], cls, name)
            for name, cls in _SECTIONS.items()
        },
    )


def load_json(path, kind: str):
    """The JSON document in ``path``; a file that does not decode, nests too
    deeply for the decoder or repeats a key within one object raises
    ValueError naming the ``kind`` of file."""
    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValueError(f"{kind} file repeats the key {key!r} in one object")
            doc[key] = value
        return doc

    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValueError(f"{kind} file is not valid JSON: {exc}")


def load_scenario(path) -> ScenarioConfig:
    return parse_scenario(load_json(path, "scenario"))


# ---------------------------------------------------------------------------
# run manifests and JSON reports
# ---------------------------------------------------------------------------


def sha256_of(path) -> str:
    import hashlib  # manifests only: kept off the import path of every CLI call
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def manifest_path_for(output_path) -> Path:
    """``<out>.manifest.json``, keeping the output's suffix, so that outputs
    differing only in suffix (``nob.csv``, ``nob.json``) keep one each."""
    path = Path(output_path)
    return path.with_name(path.name + ".manifest.json")


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


def _non_finite(value, path=""):
    """(key path, value) of each non-finite float in the JSON document ``value``."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path.lstrip("."), value
    elif isinstance(value, (dict, list, tuple)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _non_finite(item, f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}")


def json_text(doc) -> str:
    """``doc`` as indented JSON; a NaN or Infinity, which JSON does not
    allow, raises a ValueError naming its key path, e.g. ``stats.mean_x0_m``."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        for path, value in _non_finite(doc):
            raise ValueError(f"field {path} is {value!r}, which JSON cannot hold") from None
        raise


def dump_json(doc, path) -> None:
    """Write ``doc`` as :func:`json_text`, which raises before the file is opened."""
    text = json_text(doc)
    with open(path, "w") as fh:
        fh.write(text + "\n")
