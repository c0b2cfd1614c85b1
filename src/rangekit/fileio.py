"""Shared file formats: far-field CSV, spectrum CSV, scenario JSON, manifests.

All numeric output uses the shortest decimal representation that
round-trips to the same float (Python's repr), so golden files are stable
across platforms and parse back bit-exact.

Far-field CSV layout: header ``theta_deg,phi_deg,frequency_hz,magnitude_db,
phase_deg``, one cut per (phi, frequency) group of rows, theta strictly
increasing within a group.  z is the boresight axis and theta is measured
from z toward x, matching the phase-center sign convention.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, rand
from .antenna_metrics import BandMetrics
from .phase_center import FarFieldCut, DisplacementSeries
from .ranging import RangingScenario
from .waveform import SpectrumModel, ToneSet

FARFIELD_HEADER = "theta_deg,phi_deg,frequency_hz,magnitude_db,phase_deg"
SPECTRUM_HEADER = "frequency_hz,energy_density"
DISPLACEMENT_HEADER = "theta_deg,dx0_m,dz0_m"
BANDS_HEADER = "f_res_hz,s11_min_db,f_low_hz,f_high_hz,fbw"
SWEEP_HEADER = "delta_f_hz,snr_db,crlb_std_range_m,mc_rmse_range_m,crlb_ratio,failures"


def fmt_float(x) -> str:
    """Shortest decimal string that parses back to exactly x."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# far-field CSV
# ---------------------------------------------------------------------------


def save_farfield_cuts(cuts, path) -> None:
    """Write one or more cuts as far-field CSV (full float precision)."""
    if isinstance(cuts, FarFieldCut):
        cuts = [cuts]
    if len(cuts) == 0:
        raise ValueError("no cuts to write")
    with open(path, "w") as fh:
        fh.write(FARFIELD_HEADER + "\n")
        for cut in cuts:
            for theta, mag, phase in zip(cut.theta_deg, cut.magnitude_db, cut.phase_deg):
                fh.write(
                    ",".join(
                        fmt_float(v)
                        for v in (theta, cut.phi_cut_deg, cut.frequency_hz, mag, phase)
                    )
                    + "\n"
                )


def load_farfield_cuts(path) -> list:
    """Read far-field CSV, one FarFieldCut per (phi, frequency) group.

    Rows belonging to one group must appear together and with strictly
    increasing theta; anything else fails validation.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty far-field file")
        if [h.strip() for h in header] != FARFIELD_HEADER.split(","):
            raise ValueError(f"unexpected far-field header: {','.join(header)!r}")
        groups = {}
        for row in reader:
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"far-field row must have 5 columns: {row!r}")
            theta, phi, freq, mag, phase = (float(v) for v in row)
            groups.setdefault((phi, freq), []).append((theta, mag, phase))
    if not groups:
        raise ValueError("far-field file contains no data rows")
    cuts = []
    for (phi, freq), rows in groups.items():
        arr = np.array(rows)
        cuts.append(
            FarFieldCut(
                phi_cut_deg=phi,
                frequency_hz=freq,
                theta_deg=arr[:, 0],
                magnitude_db=arr[:, 1],
                phase_deg=arr[:, 2],
            )
        )
    return cuts


# ---------------------------------------------------------------------------
# plot-data CSV emission
# ---------------------------------------------------------------------------


def write_spectrum_csv(spec: SpectrumModel, path) -> None:
    if spec.kind != "discrete":
        raise ValueError("spectrum CSV needs a discrete spectrum (run spectrum_of first)")
    with open(path, "w") as fh:
        fh.write(SPECTRUM_HEADER + "\n")
        for f, d in zip(spec.frequencies, spec.energy_density):
            fh.write(f"{fmt_float(f)},{fmt_float(d)}\n")


def write_displacement_csv(series: DisplacementSeries, path) -> None:
    if len(series) == 0:
        raise ValueError("empty displacement series")
    with open(path, "w") as fh:
        fh.write(DISPLACEMENT_HEADER + "\n")
        for theta, dx, dz in zip(series.theta_deg, series.dx0_m, series.dz0_m):
            fh.write(f"{fmt_float(theta)},{fmt_float(dx)},{fmt_float(dz)}\n")


def write_bands_csv(bands, path) -> None:
    if len(bands) == 0:
        raise ValueError("empty band list")
    with open(path, "w") as fh:
        fh.write(BANDS_HEADER + "\n")
        for b in bands:
            fh.write(
                ",".join(
                    fmt_float(v)
                    for v in (b.f_resonance_hz, b.s11_min_db, b.f_low_hz, b.f_high_hz, b.fractional_bw)
                )
                + "\n"
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
    with open(path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for p in points:
            fh.write(
                ",".join(
                    [
                        fmt_float(p.delta_f_hz),
                        fmt_float(p.snr_db),
                        fmt_float(p.crlb_std_range_m),
                        fmt_float(p.mc_rmse_range_m),
                        fmt_float(p.crlb_ratio),
                        str(int(p.failures)),
                    ]
                )
                + "\n"
            )


def emit_plot_data(series, path) -> None:
    """Write any supported result series as a plotting CSV.

    Dispatches on type: displacement series, band-metrics lists, discrete
    spectra, far-field cuts and sweep points all have fixed headers
    documented in this module.
    """
    if isinstance(series, DisplacementSeries):
        write_displacement_csv(series, path)
    elif isinstance(series, SpectrumModel):
        write_spectrum_csv(series, path)
    elif isinstance(series, FarFieldCut):
        save_farfield_cuts(series, path)
    elif isinstance(series, (list, tuple)):
        if len(series) == 0:
            raise ValueError("nothing to write")
        if isinstance(series[0], BandMetrics):
            write_bands_csv(series, path)
        elif isinstance(series[0], SweepPoint):
            write_sweep_csv(series, path)
        elif isinstance(series[0], FarFieldCut):
            save_farfield_cuts(series, path)
        else:
            raise TypeError(f"no CSV layout for list of {type(series[0]).__name__}")
    else:
        raise TypeError(f"no CSV layout for {type(series).__name__}")


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
class PhaseCenterConfig:
    window_deg: float = 10.0
    beam_region_deg: tuple = (-30.0, 30.0)


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
    phase_center: PhaseCenterConfig = None
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


def parse_scenario(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    top = _take(
        doc,
        {
            "seed": 0,
            "output_dir": ".",
            "waveform": None,
            "ranging": None,
            "phase_center": None,
            "beamform": None,
        },
        "scenario",
    )
    sections = {}
    for name, cls, required in (
        ("waveform", WaveformConfig, ("duration_s", "sample_rate_hz")),
        ("ranging", RangingConfig, ("snr_db", "true_delay_s")),
        ("phase_center", PhaseCenterConfig, ()),
        ("beamform", BeamformConfig, ("n_nodes", "f_action_hz", "sigma_range_m")),
    ):
        raw = top[name]
        if raw is None:
            sections[name] = None
            continue
        if not isinstance(raw, dict):
            raise ValueError(f"scenario section {name} must be a JSON object")
        defaults = {f.name: f.default for f in cls.__dataclass_fields__.values()}
        for key in required:
            defaults[key] = None
        merged = _take(raw, defaults, f"scenario section {name}")
        missing = [k for k in required if merged[k] is None]
        if missing:
            raise ValueError(f"scenario section {name} is missing: {', '.join(missing)}")
        for key in ("tone_frequencies_hz", "tone_amplitudes", "tone_phases_rad", "beam_region_deg"):
            if key in merged and isinstance(merged[key], list):
                merged[key] = tuple(merged[key])
        sections[name] = cls(**merged)
    return ScenarioConfig(
        seed=rand.check_seed(top["seed"]),
        output_dir=str(top["output_dir"]),
        waveform=sections["waveform"],
        ranging=sections["ranging"],
        phase_center=sections["phase_center"],
        beamform=sections["beamform"],
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
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def report_dict(obj) -> dict:
    """Dataclass report -> plain dict with JSON-safe scalars."""
    out = {}
    for key, value in asdict(obj).items():
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        out[key] = value
    return out
