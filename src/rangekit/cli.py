"""The ``rangekit`` command-line tool.

Subcommands: waveform, range-sim, phase-center, s11-bands, gain-stats,
coherence, geometry, sweep.  Exit codes: 0 success, 1 validation/usage
error, 2 I/O error.  One rule, in :func:`_finish`, places every output: a
relative ``--out`` lands in the scenario's ``output_dir`` (the working
directory without a scenario), and every file-writing run drops
``<out>.manifest.json`` beside it recording the tool version, the digests
of the ``--scenario``/``--in``/``--cut`` files, the fully resolved
parameters and every file written.  Outputs bar the manifest timestamp are
bit-identical for any worker count on one host, numpy build and SIMD target.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import re
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, antenna_metrics, beamform, fileio, geometry, phase_center
from .antenna_metrics import find_bands, gain_beam_stats, load_touchstone
from .phase_center import displacement_series, displacement_stats
from .ranging import (
    RangingScenario,
    crlb_result,
    delay_to_range,
    monte_carlo,
    monte_carlo_column,
)
from .waveform import (
    ToneSet,
    mean_squared_bandwidth,
    record_length,
    spectrum_of,
    synth_two_tone,
)

# tokens like "-30:30" are flag values, not options
_VALUE_PATTERN = re.compile(r"^-\d+[\d.:eE+-]*$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises instead of exiting, so the dispatcher owns
    the exit code, and that accepts negative grid/region values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _VALUE_PATTERN

    def error(self, message):
        raise _UsageError(self, message)


class _UsageError(ValueError):
    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


MAX_GRID_POINTS = 1_000_000


def parse_grid(text: str) -> np.ndarray:
    """Inclusive arithmetic grid from 'start:step:stop': finite, strictly
    increasing and at most :data:`MAX_GRID_POINTS` long."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:step:stop, got {text!r}")
    start, step, stop = (float(p) for p in parts)
    if not np.all(np.isfinite([start, step, stop])):
        raise ValueError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must be >= start")
    if stop - start == np.inf:
        raise ValueError(f"grid span of {text!r} exceeds the largest float")
    count = (stop - start) / step + 1e-9
    if not count < MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    grid = start + step * np.arange(int(np.floor(count)) + 1)
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"grid {text!r} runs past the largest float")
    if np.any(np.diff(grid) <= 0):
        raise ValueError(f"grid step of {text!r} is below the float spacing of its points")
    return grid


def parse_region(text: str) -> tuple:
    """Angular region from 'lo:hi' in degrees."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"region must be lo:hi, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not np.all(np.isfinite([lo, hi])):
        raise ValueError(f"region bounds must be finite, got {text!r}")
    if hi <= lo:
        raise ValueError("region must have positive width")
    return (lo, hi)


def _load_config(args) -> fileio.ScenarioConfig:
    """The ``--scenario`` file, or the empty scenario without one."""
    if args.scenario is None:
        return fileio.ScenarioConfig()
    return fileio.load_scenario(args.scenario)


def _overlay(args, section, cls, name):
    """Scenario ``section`` (None if absent) with every set flag whose dest
    names a field of ``cls`` laid over it, checked as scenario JSON is;
    None while a field without a default is unset."""
    raw = {} if section is None else asdict(section)
    for f in fields(cls):
        if getattr(args, f.name, None) is not None:
            raw[f.name] = getattr(args, f.name)
    if any(f.default is MISSING and f.name not in raw for f in fields(cls)):
        return None
    return fileio.parse_section(raw, cls, name)


def _out_path(args, output_dir=".") -> Path | None:
    """``--out`` under ``output_dir`` (None without one); raises the error its
    write would raise if its directory is missing, so a handler can fail early."""
    if getattr(args, "out", None) is None:
        return None
    out = Path(output_dir) / args.out
    if not out.parent.exists():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(out))
    return out


def _finish(args, params=None, doc=None, write=None, status=None, output_dir=".") -> int:
    """Write ``--out`` (relative to ``output_dir``) and its manifest of
    ``params``, then report; every subcommand ends here and returns 0.

    ``write(path)`` writes the primary file, the JSON ``doc`` without one,
    and returns any other paths it wrote.  Unless ``--quiet``, stdout gets
    the line ``status(path)``, or else ``doc`` as JSON.  A ``doc`` that JSON
    cannot hold raises before any file opens: it is encoded here when it is
    to be printed, and otherwise by the JSON file that ``write`` writes first.
    """
    out = _out_path(args, output_dir)
    text = fileio.json_text(doc) if status is None and not args.quiet else None
    if out is not None:
        extra = fileio.dump_json(doc, out) if write is None else write(out)
        named = [getattr(args, name, None) for name in ("scenario", "infile", "cut")]
        inputs = [p for v in named if v is not None for p in (v if isinstance(v, list) else [v])]
        fileio.write_manifest(out, args.argv, params, inputs, extra_outputs=extra or ())
    if not args.quiet:
        try:
            print(text if status is None else status(out))
            sys.stdout.flush()
        except BrokenPipeError:  # the reader closed stdout: a quiet end of output
            devnull = os.open(os.devnull, os.O_WRONLY)  # the exit flush goes here, not to the pipe
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_waveform(args) -> int:
    config = _load_config(args)
    section = config.waveform
    if section is not None and args.separation_hz is not None:  # replaces a whole tone list
        section = replace(section, tone_frequencies_hz=None, tone_amplitudes=None,
                          tone_phases_rad=None)
    wf = _overlay(args, section, fileio.WaveformConfig, "waveform")
    if wf is None or (wf.separation_hz is None and wf.tone_frequencies_hz is None):
        raise ValueError(
            "waveform needs --separation, --duration and --sample-rate "
            "(or a --scenario with a waveform section)"
        )
    tones = wf.tone_set()
    record_length(tones, wf.duration_s, wf.sample_rate_hz)  # its errors come first
    sep = tones.separation
    if sep > 0 and sep * wf.duration_s < 1.0:
        raise ValueError(f"tone separation {sep:g} Hz is below the {1.0 / wf.duration_s:g} Hz "
                         f"resolution of a {wf.duration_s:g} s record")
    signal = synth_two_tone(tones, wf.duration_s, wf.sample_rate_hz)
    spectrum = spectrum_of(signal)
    zeta_analytic = mean_squared_bandwidth(tones)
    zeta_discrete = mean_squared_bandwidth(spectrum)
    ratio = None
    if sep > 0:  # zeta_analytic / rect_rms_bandwidth(sep), without the (2 pi sep)^2 that underflows
        ratio = 12.0 * float(np.sum(tones.energy_weights() * (tones.frequencies / sep) ** 2))
    doc = {
        "tone_frequencies_hz": [float(f) for f in tones.frequencies],
        "duration_s": float(wf.duration_s),
        "sample_rate_hz": float(wf.sample_rate_hz),
        "samples": len(signal),
        "zeta_f2_analytic_rad2_s2": zeta_analytic,
        "zeta_f2_discrete_rad2_s2": zeta_discrete,
        "ratio_vs_flat_spectrum": ratio,
    }
    return _finish(args, doc, doc, lambda out: fileio.write_spectrum_csv(spectrum, out),
                   output_dir=config.output_dir)


def _rmse_range(report, two_way: bool) -> float | None:
    """The Monte Carlo rmse in meters, None where ``rmse_tau`` is."""
    return None if report.rmse_tau is None else delay_to_range(report.rmse_tau, two_way)


def _cmd_range_sim(args) -> int:
    config = fileio.load_scenario(args.scenario)
    scenario = config.ranging_scenario(seed=args.seed)
    trials = _overlay(args, config.ranging, fileio.RangingConfig, "ranging").trials
    _out_path(args, config.output_dir)
    report = monte_carlo(scenario, trials, workers=args.workers)
    bound = crlb_result(scenario.zeta_f2(), scenario.snr_db, scenario.two_way)
    doc = {
        "scenario": {
            "tone_frequencies_hz": [float(f) for f in scenario.tones.frequencies],
            "snr_db": scenario.snr_db,
            "true_delay_s": scenario.true_delay,
            "two_way": scenario.two_way,
            "sample_rate_hz": scenario.sample_rate,
            "duration_s": scenario.duration,
            "seed": scenario.seed,
            "trials": trials,
            "workers": args.workers,
        },
        "crlb": asdict(bound),
        "monte_carlo": asdict(report),
        "mc_rmse_range_m": _rmse_range(report, scenario.two_way),
    }
    return _finish(args, doc["scenario"], doc, output_dir=config.output_dir)


def _load_single_cut(path):
    cuts = fileio.load_farfield_cuts(path)
    if len(cuts) != 1:
        raise ValueError(f"{path}: expected exactly one far-field cut, found {len(cuts)}")
    return cuts[0]


def _cmd_phase_center(args) -> int:
    if len(args.cut) != 2:
        raise ValueError("phase-center needs exactly two --cut files (band A, band B)")
    cut_a = _load_single_cut(args.cut[0])
    cut_b = _load_single_cut(args.cut[1])
    beam = phase_center.DEFAULT_BEAM_REGION if args.beam is None else parse_region(args.beam)
    series = displacement_series(cut_a, cut_b, window_deg=args.window, beam_region=beam)
    stats = displacement_stats(series)
    doc = {
        "frequency_a_hz": cut_a.frequency_hz,
        "frequency_b_hz": cut_b.frequency_hz,
        "window_deg": args.window,
        "beam_region_deg": list(beam),
        "angles": len(series),
        "stats": asdict(stats),
    }

    def write(out):
        stats_path = out.with_suffix(".stats.json")
        fileio.dump_json(doc, stats_path)
        fileio.write_displacement_csv(series, out)
        return [stats_path]

    params = {k: doc[k] for k in ("frequency_a_hz", "frequency_b_hz", "window_deg", "beam_region_deg")}
    return _finish(args, params, doc, write)


def _cmd_s11_bands(args) -> int:
    trace = load_touchstone(args.infile)
    bands = find_bands(trace, threshold_db=args.threshold)
    doc = {
        "threshold_db": args.threshold,
        "bands": [asdict(b) for b in bands],
    }
    csv = args.out is not None and Path(args.out).suffix.lower() == ".csv"
    write = (lambda out: fileio.write_bands_csv(bands, out)) if csv else None
    return _finish(args, {"threshold_db": args.threshold}, doc, write)


def _cmd_gain_stats(args) -> int:
    cuts = fileio.load_farfield_cuts(args.cut)
    region = phase_center.DEFAULT_BEAM_REGION if args.region is None else parse_region(args.region)
    stats = [gain_beam_stats(c, region=region, linear_mean=args.linear_mean) for c in cuts]
    doc = {
        "region_deg": list(region),
        "mean_domain": "linear" if args.linear_mean else "db",
        "stats": [asdict(s) for s in stats],
    }
    return _finish(args, {"region_deg": list(region)}, doc)


def _cmd_coherence(args) -> int:
    config = _load_config(args)
    bf = _overlay(args, config.beamform, fileio.BeamformConfig, "beamform")
    if bf is None:
        raise ValueError(
            "coherence needs --nodes, --f-action and --sigma-range "
            "(or a --scenario with a beamform section)"
        )
    seed = config.seed if args.seed is None else args.seed

    def scenario_for(sig):
        """The scenario of a per-node ranging std ``sig``."""
        if args.two_way:  # a retrodirective link doubles the phase error per meter
            sig = 2.0 * sig
            if not np.isfinite(sig):
                raise ValueError("the two-way range error 2*sigma_range_m overflows")
        return beamform.CoherenceScenario(**asdict(replace(bf, sigma_range_m=sig)), seed=seed)

    params = {
        "n_nodes": bf.n_nodes,
        "f_action_hz": bf.f_action_hz,
        "sigma_range_m": bf.sigma_range_m,
        "two_way": args.two_way,
        "trials": bf.trials,
        "seed": seed,
    }
    if args.sigma_grid is not None:
        if _out_path(args, config.output_dir) is None:  # checked before any point runs
            raise ValueError("--sigma-grid needs --out for the CSV")
        # every point is checked before the first one runs; Python floats, so an
        # overflowing point raises its message without a numpy warning
        points = [(sig, scenario_for(sig)) for sig in parse_grid(args.sigma_grid).tolist()]
        rows = [(sig, sc.sigma_phi(), beamform.coherent_gain(sc, workers=args.workers))
                for sig, sc in points]
        params["sigma_grid"] = args.sigma_grid
        return _finish(args, params, write=lambda out: fileio.write_coherence_grid_csv(rows, out),
                       status=lambda out: f"wrote {len(rows)} grid points to {out}",
                       output_dir=config.output_dir)
    scenario = scenario_for(bf.sigma_range_m)
    report = beamform.coherent_gain(scenario, workers=args.workers)
    doc = dict(params, sigma_phi_rad=scenario.sigma_phi(), report=asdict(report))
    return _finish(args, params, doc, output_dir=config.output_dir)


def _cmd_geometry(args) -> int:
    if args.geometry_action == "validate":
        dims = geometry.load_dimensions(args.infile)
        violations = geometry.validate(dims)
        if violations:
            for v in violations:
                print(f"violation: {v}", file=sys.stderr)
            return 1
        return _finish(args, status=lambda out: (
            f"{args.infile}: all {len(dims.lengths_mm)} dimensions consistent"))
    dims = geometry.reference_dimensions()
    return _finish(args, {"source": "built-in reference design"},
                   write=lambda out: geometry.save_dimensions(dims, out),
                   status=lambda out: f"wrote reference dimensions to {out}")


def _cmd_sweep(args) -> int:
    separations = parse_grid(args.delta_f)
    snrs = parse_grid(args.snr)
    # every cell and the output directory are checked before the first Monte Carlo runs
    columns = []
    for sep in separations:
        tones = ToneSet.two_tone(sep)
        columns.append([
            RangingScenario(
                tones=tones,
                snr_db=float(snr),
                true_delay=args.delay_fraction / sep,
                two_way=args.two_way,
                sample_rate=args.sample_rate,
                duration=args.duration,
                seed=args.seed,
            )
            for snr in snrs
        ])
    _out_path(args)
    rows = []
    for sep, column in zip(separations, columns):
        zeta_f2 = column[0].zeta_f2()  # one tone pair per column
        for scenario, report in zip(column, monte_carlo_column(column, args.trials, args.workers)):
            rows.append((
                float(sep),
                scenario.snr_db,
                crlb_result(zeta_f2, scenario.snr_db, args.two_way).std_range,
                _rmse_range(report, args.two_way),
                report.crlb_ratio,
                report.failures,
            ))
    params = {
        "delta_f_grid_hz": args.delta_f,
        "snr_grid_db": args.snr,
        "trials": args.trials,
        "seed": args.seed,
        "duration_s": args.duration,
        "sample_rate_hz": args.sample_rate,
        "two_way": args.two_way,
        "delay_fraction": args.delay_fraction,
    }
    return _finish(args, params, write=lambda out: fileio.write_sweep_csv(rows, out),
                   status=lambda out: f"wrote {len(rows)} grid points to {out}")


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The CLI's argument parser, built once per process and reused by every
    :func:`dispatch` call (parsing leaves the parser unchanged)."""
    parser = _Parser(
        prog="rangekit",
        description="Two-tone ranging accuracy, antenna phase-center and band metrics.",
    )
    parser.add_argument("--version", action="version", version=f"rangekit {__version__}")
    parser.set_defaults(quiet=False)
    # one --quiet for every subcommand and geometry action; with no default of
    # its own, an action parser cannot overwrite a -q given before the action
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", "-q", action="store_true", default=argparse.SUPPRESS,
                       help="suppress stdout report")
    sub = parser.add_subparsers(dest="command", metavar="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, parents=[quiet])
        p.set_defaults(func=func)
        return p

    p = add("waveform", _cmd_waveform, "synthesize a tone pair and report spectral moments")
    p.add_argument("--scenario", help="scenario JSON with a waveform section")
    p.add_argument("--separation", dest="separation_hz", type=float, help="tone separation in Hz")
    p.add_argument("--duration", dest="duration_s", type=float, help="pulse duration in s")
    p.add_argument("--sample-rate", dest="sample_rate_hz", type=float, help="sample rate in Hz")
    p.add_argument("--out", help="write the discrete spectrum CSV here")

    p = add("range-sim", _cmd_range_sim, "Monte Carlo delay estimation vs the accuracy bound")
    p.add_argument("--scenario", required=True, help="scenario JSON (waveform + ranging sections)")
    p.add_argument("--trials", type=int, help="override the scenario trial count")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="write the JSON report here")

    p = add("phase-center", _cmd_phase_center, "inter-band phase-center displacement series")
    p.add_argument(
        "--cut", action="append", required=True, help="far-field CSV, given twice (band A, band B)"
    )
    p.add_argument(
        "--window",
        type=float,
        default=phase_center.DEFAULT_WINDOW_DEG,
        help="sliding fit window in degrees",
    )
    p.add_argument("--beam", help="beam region lo:hi in degrees")
    p.add_argument("--out", help="write the per-angle series CSV here (stats JSON alongside)")

    p = add("s11-bands", _cmd_s11_bands, "resonances and fractional bandwidths of an S11 sweep")
    p.add_argument("--in", dest="infile", required=True, help="one-port Touchstone file")
    p.add_argument(
        "--threshold",
        type=float,
        default=antenna_metrics.DEFAULT_THRESHOLD_DB,
        help="band threshold in dB",
    )
    p.add_argument("--out", help="write bands as .json or .csv")

    p = add("gain-stats", _cmd_gain_stats, "max/mean gain over the main-beam region")
    p.add_argument("--cut", required=True, help="far-field CSV (one or more cuts)")
    p.add_argument("--region", help="angular region lo:hi in degrees")
    p.add_argument(
        "--linear-mean", action="store_true", help="average powers instead of dB values"
    )
    p.add_argument("--out", help="write the JSON stats here")

    p = add("coherence", _cmd_coherence, "ranging error to coherent-gain degradation")
    p.add_argument("--scenario", help="scenario JSON with a beamform section")
    p.add_argument("--nodes", dest="n_nodes", type=int, help="number of array nodes")
    p.add_argument(
        "--f-action", dest="f_action_hz", type=float, help="coherent action frequency in Hz"
    )
    p.add_argument(
        "--sigma-range", dest="sigma_range_m", type=float, help="per-node ranging std in m"
    )
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--two-way", action="store_true", help="retrodirective phase mapping")
    p.add_argument("--sigma-grid", help="sweep sigma_range over start:step:stop, write CSV")
    p.add_argument("--out", help="JSON report (or CSV with --sigma-grid)")

    p = add("geometry", _cmd_geometry, "patch dimension record utilities")
    gsub = p.add_subparsers(dest="geometry_action", metavar="action", required=True)
    gv = gsub.add_parser("validate", help="check a dimension JSON for consistency", parents=[quiet])
    gv.add_argument("--in", dest="infile", required=True)
    gr = gsub.add_parser("reference", help="write the built-in reference dimensions",
                         parents=[quiet])
    gr.add_argument("--out", required=True)

    p = add("sweep", _cmd_sweep, "accuracy surface over (separation, SNR) grid")
    p.add_argument("--delta-f", required=True, help="separation grid start:step:stop in Hz")
    p.add_argument("--snr", required=True, help="SNR grid start:step:stop in dB")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--duration", type=float, default=1e-6)
    p.add_argument("--sample-rate", type=float, default=4e9)
    p.add_argument("--two-way", action="store_true")
    p.add_argument(
        "--delay-fraction",
        type=float,
        default=0.3,
        help="true delay as a fraction of the 1/delta_f ambiguity window",
    )
    p.add_argument("--out", default="sweep.csv", help="accuracy-surface CSV path")

    return parser


def dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"rangekit: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    args.argv = ["rangekit"] + list(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"rangekit: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"rangekit: error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"rangekit: i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
