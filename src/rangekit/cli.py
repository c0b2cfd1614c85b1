"""The ``rangekit`` command-line tool.

Subcommands: waveform, range-sim, phase-center, s11-bands, gain-stats,
coherence, geometry, sweep.  Exit codes: 0 success, 1 validation/usage
error, 2 I/O error.  Every file-writing run drops a ``*.manifest.json``
next to its primary output recording the tool version, input digests and
fully resolved parameters; outputs are byte-reproducible for a fixed
scenario and seed (the manifest timestamp is the one exception).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, beamform, fileio, geometry
from .antenna_metrics import find_bands, gain_beam_stats, load_touchstone
from .phase_center import displacement_series, displacement_stats
from .ranging import RangingScenario, crlb_result, delay_to_range, monte_carlo
from .waveform import (
    SpectrumModel,
    ToneSet,
    mean_squared_bandwidth,
    rect_rms_bandwidth,
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


def parse_grid(text: str) -> np.ndarray:
    """Inclusive arithmetic grid from 'start:step:stop'."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:step:stop, got {text!r}")
    start, step, stop = (float(p) for p in parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must be >= start")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def parse_region(text: str) -> tuple:
    """Angular region from 'lo:hi' in degrees."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"region must be lo:hi, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if hi <= lo:
        raise ValueError("region must have positive width")
    return (lo, hi)


def _emit(args, doc) -> None:
    if not args.quiet:
        print(json.dumps(doc, indent=2))


def _load_config(args):
    if getattr(args, "scenario", None) is None:
        return None
    return fileio.load_scenario(args.scenario)


def _resolve_out(out, config):
    if out is None:
        return None
    out = Path(out)
    if config is not None and not out.is_absolute():
        return Path(config.output_dir) / out
    return out


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_waveform(args) -> int:
    config = _load_config(args)
    if config is not None and config.waveform is not None:
        wf = config.waveform
        tones = wf.tone_set()
        duration = args.duration if args.duration is not None else wf.duration_s
        sample_rate = args.sample_rate if args.sample_rate is not None else wf.sample_rate_hz
        if args.separation is not None:
            tones = ToneSet.two_tone(args.separation)
    else:
        if args.separation is None or args.duration is None or args.sample_rate is None:
            raise ValueError(
                "waveform needs --separation, --duration and --sample-rate "
                "(or a --scenario with a waveform section)"
            )
        tones = ToneSet.two_tone(args.separation)
        duration, sample_rate = args.duration, args.sample_rate
    signal = synth_two_tone(tones, duration, sample_rate)
    spectrum = spectrum_of(signal)
    zeta_analytic = mean_squared_bandwidth(SpectrumModel.from_tones(tones))
    zeta_discrete = mean_squared_bandwidth(spectrum)
    sep = tones.separation
    doc = {
        "tone_frequencies_hz": [float(f) for f in tones.frequencies],
        "duration_s": float(duration),
        "sample_rate_hz": float(sample_rate),
        "samples": len(signal),
        "zeta_f2_analytic_rad2_s2": zeta_analytic,
        "zeta_f2_discrete_rad2_s2": zeta_discrete,
        "ratio_vs_flat_spectrum": (zeta_analytic / rect_rms_bandwidth(sep)) if sep > 0 else None,
    }
    out = _resolve_out(args.out, config)
    if out is not None:
        fileio.write_spectrum_csv(spectrum, out)
        inputs = [args.scenario] if args.scenario else []
        fileio.write_manifest(out, args.argv, doc, inputs)
    _emit(args, doc)
    return 0


def _run_ranging(scenario, trials, workers):
    """Monte Carlo report, accuracy bound and Monte Carlo range rmse of one scenario."""
    report = monte_carlo(scenario, trials, workers=workers)
    bound = crlb_result(scenario.zeta_f2(), scenario.snr_db, scenario.two_way)
    return report, bound, delay_to_range(report.rmse_tau, scenario.two_way)


def _cmd_range_sim(args) -> int:
    config = fileio.load_scenario(args.scenario)
    scenario = config.ranging_scenario(seed=args.seed)
    trials = args.trials if args.trials is not None else config.ranging.trials
    report, bound, mc_rmse_range_m = _run_ranging(scenario, trials, args.workers)
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
        "crlb": fileio.report_dict(bound),
        "monte_carlo": fileio.report_dict(report),
        "mc_rmse_range_m": mc_rmse_range_m,
    }
    out = _resolve_out(args.out, config)
    if out is not None:
        fileio.dump_json(doc, out)
        fileio.write_manifest(out, args.argv, doc["scenario"], [args.scenario])
    _emit(args, doc)
    return 0


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
    beam = parse_region(args.beam)
    series = displacement_series(cut_a, cut_b, window_deg=args.window, beam_region=beam)
    stats = displacement_stats(series)
    doc = {
        "frequency_a_hz": cut_a.frequency_hz,
        "frequency_b_hz": cut_b.frequency_hz,
        "window_deg": args.window,
        "beam_region_deg": list(beam),
        "angles": len(series),
        "stats": fileio.report_dict(stats),
    }
    if args.out is not None:
        out = Path(args.out)
        fileio.write_displacement_csv(series, out)
        stats_path = out.with_suffix(".stats.json")
        fileio.dump_json(doc, stats_path)
        fileio.write_manifest(
            out,
            args.argv,
            {k: doc[k] for k in ("frequency_a_hz", "frequency_b_hz", "window_deg", "beam_region_deg")},
            list(args.cut),
            extra_outputs=[stats_path],
        )
    _emit(args, doc)
    return 0


def _cmd_s11_bands(args) -> int:
    trace = load_touchstone(args.infile)
    bands = find_bands(trace, threshold_db=args.threshold)
    doc = {
        "threshold_db": args.threshold,
        "bands": [fileio.report_dict(b) for b in bands],
    }
    if args.out is not None:
        out = Path(args.out)
        if out.suffix.lower() == ".csv":
            fileio.write_bands_csv(bands, out)
        else:
            fileio.dump_json(doc, out)
        fileio.write_manifest(out, args.argv, {"threshold_db": args.threshold}, [args.infile])
    _emit(args, doc)
    return 0


def _cmd_gain_stats(args) -> int:
    cuts = fileio.load_farfield_cuts(args.cut)
    region = parse_region(args.region)
    stats = [gain_beam_stats(c, region=region, linear_mean=args.linear_mean) for c in cuts]
    doc = {
        "region_deg": list(region),
        "mean_domain": "linear" if args.linear_mean else "db",
        "stats": [fileio.report_dict(s) for s in stats],
    }
    if args.out is not None:
        fileio.dump_json(doc, args.out)
        fileio.write_manifest(
            Path(args.out), args.argv, {"region_deg": list(region)}, [args.cut]
        )
    _emit(args, doc)
    return 0


def _cmd_coherence(args) -> int:
    config = _load_config(args)
    defaults = config.beamform if config is not None and config.beamform is not None else None
    nodes = args.nodes if args.nodes is not None else (defaults.n_nodes if defaults else None)
    f_action = args.f_action if args.f_action is not None else (
        defaults.f_action_hz if defaults else None
    )
    sigma_range = args.sigma_range if args.sigma_range is not None else (
        defaults.sigma_range_m if defaults else None
    )
    trials = args.trials if args.trials is not None else (defaults.trials if defaults else 100000)
    if nodes is None or f_action is None or sigma_range is None:
        raise ValueError(
            "coherence needs --nodes, --f-action and --sigma-range "
            "(or a --scenario with a beamform section)"
        )
    seed = args.seed if args.seed is not None else (config.seed if config is not None else 0)

    def report_for(sig):
        """(sigma_phi, report) for a per-node ranging std ``sig``."""
        if args.two_way:  # a retrodirective link doubles the phase error per meter
            sig = 2.0 * sig
        scenario = beamform.CoherenceScenario(
            n_nodes=nodes, f_action_hz=f_action, sigma_range_m=sig, trials=trials, seed=seed
        )
        return scenario.sigma_phi(), beamform.coherent_gain(scenario, workers=args.workers)

    params = {
        "n_nodes": nodes,
        "f_action_hz": f_action,
        "sigma_range_m": sigma_range,
        "two_way": args.two_way,
        "trials": trials,
        "seed": seed,
    }
    inputs = [args.scenario] if args.scenario else []
    if args.sigma_grid is not None:
        if args.out is None:
            raise ValueError("--sigma-grid needs --out for the CSV")
        rows = [(sig, *report_for(sig)) for sig in parse_grid(args.sigma_grid)]
        fileio.write_coherence_grid_csv(rows, args.out)
        params["sigma_grid"] = args.sigma_grid
        fileio.write_manifest(Path(args.out), args.argv, params, inputs)
        if not args.quiet:
            print(f"wrote {len(rows)} grid points to {args.out}")
        return 0
    sigma_phi, rep = report_for(sigma_range)
    doc = dict(params)
    doc["sigma_phi_rad"] = sigma_phi
    doc["report"] = fileio.report_dict(rep)
    if args.out is not None:
        fileio.dump_json(doc, args.out)
        fileio.write_manifest(Path(args.out), args.argv, params, inputs)
    _emit(args, doc)
    return 0


def _cmd_geometry(args) -> int:
    if args.geometry_action == "validate":
        dims = geometry.load_dimensions(args.infile)
        violations = geometry.validate(dims)
        if violations:
            for v in violations:
                print(f"violation: {v}", file=sys.stderr)
            return 1
        if not args.quiet:
            print(f"{args.infile}: all {len(dims.lengths_mm)} dimensions consistent")
        return 0
    # reference
    dims = geometry.reference_dimensions()
    geometry.save_dimensions(dims, args.out)
    fileio.write_manifest(Path(args.out), args.argv, {"source": "built-in reference design"})
    if not args.quiet:
        print(f"wrote reference dimensions to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    separations = parse_grid(args.delta_f)
    snrs = parse_grid(args.snr)
    points = []
    for sep in separations:
        true_delay = args.delay_fraction / sep
        for snr in snrs:
            scenario = RangingScenario(
                tones=ToneSet.two_tone(sep),
                snr_db=float(snr),
                true_delay=true_delay,
                two_way=args.two_way,
                sample_rate=args.sample_rate,
                duration=args.duration,
                seed=args.seed,
            )
            report, bound, mc_rmse_range_m = _run_ranging(scenario, args.trials, args.workers)
            points.append(
                fileio.SweepPoint(
                    delta_f_hz=float(sep),
                    snr_db=float(snr),
                    crlb_std_range_m=bound.std_range,
                    mc_rmse_range_m=mc_rmse_range_m,
                    crlb_ratio=report.crlb_ratio,
                    failures=report.failures,
                )
            )
    fileio.write_sweep_csv(points, args.out)
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
    fileio.write_manifest(Path(args.out), args.argv, params)
    if not args.quiet:
        print(f"wrote {len(points)} grid points to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="rangekit",
        description="Two-tone ranging accuracy, antenna phase-center and band metrics.",
    )
    parser.add_argument("--version", action="version", version=f"rangekit {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--quiet", "-q", action="store_true", help="suppress stdout report")
        return p

    p = add("waveform", _cmd_waveform, "synthesize a tone pair and report spectral moments")
    p.add_argument("--scenario", help="scenario JSON with a waveform section")
    p.add_argument("--separation", type=float, help="tone separation in Hz")
    p.add_argument("--duration", type=float, help="pulse duration in s")
    p.add_argument("--sample-rate", type=float, help="sample rate in Hz")
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
    p.add_argument("--window", type=float, default=10.0, help="sliding fit window in degrees")
    p.add_argument("--beam", default="-30:30", help="beam region lo:hi in degrees")
    p.add_argument("--out", help="write the per-angle series CSV here (stats JSON alongside)")

    p = add("s11-bands", _cmd_s11_bands, "resonances and fractional bandwidths of an S11 sweep")
    p.add_argument("--in", dest="infile", required=True, help="one-port Touchstone file")
    p.add_argument("--threshold", type=float, default=-10.0, help="band threshold in dB")
    p.add_argument("--out", help="write bands as .json or .csv")

    p = add("gain-stats", _cmd_gain_stats, "max/mean gain over the main-beam region")
    p.add_argument("--cut", required=True, help="far-field CSV (one or more cuts)")
    p.add_argument("--region", default="-30:30", help="angular region lo:hi in degrees")
    p.add_argument(
        "--linear-mean", action="store_true", help="average powers instead of dB values"
    )
    p.add_argument("--out", help="write the JSON stats here")

    p = add("coherence", _cmd_coherence, "ranging error to coherent-gain degradation")
    p.add_argument("--scenario", help="scenario JSON with a beamform section")
    p.add_argument("--nodes", type=int, help="number of array nodes")
    p.add_argument("--f-action", type=float, help="coherent action frequency in Hz")
    p.add_argument("--sigma-range", type=float, help="per-node ranging std in m")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--two-way", action="store_true", help="retrodirective phase mapping")
    p.add_argument("--sigma-grid", help="sweep sigma_range over start:step:stop, write CSV")
    p.add_argument("--out", help="JSON report (or CSV with --sigma-grid)")

    p = add("geometry", _cmd_geometry, "patch dimension record utilities")
    gsub = p.add_subparsers(dest="geometry_action", metavar="action")
    gv = gsub.add_parser("validate", help="check a dimension JSON for consistency")
    gv.add_argument("--in", dest="infile", required=True)
    gv.add_argument("--quiet", "-q", action="store_true")
    gv.set_defaults(func=_cmd_geometry, geometry_action="validate")
    gr = gsub.add_parser("reference", help="write the built-in reference dimensions")
    gr.add_argument("--out", required=True)
    gr.add_argument("--quiet", "-q", action="store_true")
    gr.set_defaults(func=_cmd_geometry, geometry_action="reference")

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
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        print("rangekit: a subcommand is required", file=sys.stderr)
        return 1
    if getattr(args, "command", None) == "geometry" and getattr(args, "geometry_action", None) is None:
        parser.print_usage(sys.stderr)
        print("rangekit: geometry needs an action (validate | reference)", file=sys.stderr)
        return 1
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
