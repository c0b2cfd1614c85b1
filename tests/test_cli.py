"""End-to-end CLI tests driven through the in-process dispatcher."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import three_dip_trace
import rangekit
from rangekit.antenna_metrics import write_touchstone
from rangekit.cli import build_parser, dispatch, parse_grid, parse_region
from rangekit.fileio import save_farfield_cuts
from rangekit.geometry import load_dimensions, reference_dimensions, save_dimensions, validate
from rangekit.phase_center import point_source_cut

THETA = np.arange(-60.0, 61.0)


def test_parse_grid():
    assert_allclose(parse_grid("0.25e9:0.25e9:1.5e9"), 0.25e9 * np.arange(1, 7))
    assert_allclose(parse_grid("0:2:20"), np.arange(0.0, 21.0, 2.0))
    assert_allclose(parse_grid("5:10:5"), [5.0])
    for bad in ("1:2", "0:0:10", "10:1:0", "a:b:c"):
        with pytest.raises(ValueError):
            parse_grid(bad)
    for bad in ("0:1:inf", "-inf:1:0", "0:inf:5", "nan:1:5", "0:nan:5", "0:1:nan"):
        with pytest.raises(ValueError, match="finite"):
            parse_grid(bad)


def test_parse_region():
    assert parse_region("-30:30") == (-30.0, 30.0)
    assert parse_region("0:15") == (0.0, 15.0)
    for bad in ("30:-30", "10", "1:2:3", "0:inf", "-inf:0", "nan:10"):
        with pytest.raises(ValueError):
            parse_region(bad)


def test_no_arguments_is_usage_error(capsys):
    assert dispatch([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_unknown_flag_and_subcommand(capsys):
    assert dispatch(["waveform", "--bogus", "1"]) == 1
    assert dispatch(["not-a-command"]) == 1
    capsys.readouterr()


def test_help_and_version(capsys):
    assert dispatch(["--help"]) == 0
    assert dispatch(["--version"]) == 0
    out = capsys.readouterr().out
    assert "rangekit" in out


def test_waveform_flags(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = dispatch(
        [
            "waveform",
            "--separation", "1e9",
            "--duration", "1e-6",
            "--sample-rate", "4e9",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["zeta_f2_analytic_rad2_s2"] == pytest.approx((np.pi * 1e9) ** 2, rel=1e-12)
    assert doc["ratio_vs_flat_spectrum"] == pytest.approx(3.0, rel=1e-12)
    assert out.exists()
    manifest = json.loads((tmp_path / "spec.manifest.json").read_text())
    assert manifest["command"][1] == "waveform"
    assert str(out) in manifest["outputs"]


def test_waveform_missing_flags(capsys):
    assert dispatch(["waveform", "--separation", "1e9"]) == 1
    assert "error" in capsys.readouterr().err


def test_waveform_quiet(tmp_path, capsys):
    code = dispatch(
        ["waveform", "-q", "--separation", "5e8", "--duration", "1e-6", "--sample-rate", "4e9"]
    )
    assert code == 0
    assert capsys.readouterr().out == ""


def scenario_file(tmp_path, trials=150):
    doc = {
        "seed": 3,
        "output_dir": str(tmp_path),
        "waveform": {"duration_s": 2.5e-7, "sample_rate_hz": 4e9, "separation_hz": 5e8},
        "ranging": {"snr_db": 25.0, "true_delay_s": 5e-10, "trials": trials},
        "beamform": {"n_nodes": 10, "f_action_hz": 1.88e9, "sigma_range_m": 0.004, "trials": 2000},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def test_range_sim_end_to_end(tmp_path, capsys):
    scen = scenario_file(tmp_path)
    code = dispatch(["range-sim", "--scenario", str(scen), "--out", "report.json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"]["trials"] == 150
    assert doc["monte_carlo"]["failures"] == 0
    assert doc["crlb"]["std_range"] > 0
    assert doc["mc_rmse_range_m"] < 0.1
    # relative --out lands in the scenario's output_dir
    report = tmp_path / "report.json"
    assert report.exists()
    assert json.loads(report.read_text()) == doc
    assert (tmp_path / "report.manifest.json").exists()


def test_range_sim_reruns_byte_identical(tmp_path, capsys):
    scen = scenario_file(tmp_path, trials=80)
    for name in ("a.json", "b.json"):
        assert dispatch(["range-sim", "-q", "--scenario", str(scen), "--out", name]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    ma = json.loads((tmp_path / "a.manifest.json").read_text())
    mb = json.loads((tmp_path / "b.manifest.json").read_text())
    for m in (ma, mb):
        m.pop("created_utc")
        m.pop("command")
        m.pop("outputs")
    assert ma == mb


def test_range_sim_trial_override(tmp_path, capsys):
    scen = scenario_file(tmp_path)
    assert dispatch(["range-sim", "--scenario", str(scen), "--trials", "30"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"]["trials"] == 30
    assert doc["monte_carlo"]["trials"] == 30


def test_out_of_range_seed_exits_1(tmp_path, capsys):
    scen = scenario_file(tmp_path, trials=10)
    for seed in ("-1", str(2**64)):
        assert dispatch(["range-sim", "-q", "--scenario", str(scen), "--seed", seed]) == 1
        assert "seed" in capsys.readouterr().err
    assert dispatch(["coherence", "-q", "--scenario", str(scen), "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("ranging", "trials", "10"),
        ("ranging", "two_way", "no"),
        ("ranging", "snr_db", float("nan")),
        (None, "phase_center", {"window_deg": 10.0}),
    ],
)
def test_bad_scenario_field_exits_1(tmp_path, capsys, section, key, value):
    doc = json.loads(scenario_file(tmp_path, trials=10).read_text())
    (doc if section is None else doc[section])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert dispatch(["range-sim", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rangekit: error: ") and key in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["waveform", "--separation", "5e8", "--duration", "1e-6", "--sample-rate", "inf"],
        ["sweep", "--delta-f", "5e8:1e8:5e8", "--snr", "20:1:20", "--sample-rate", "inf"],
        ["sweep", "--delta-f", "5e8:1e8:5e8", "--snr", "20:1:20", "--duration", "1e300"],
        ["range-sim", "--scenario", "{huge}"],
    ],
    ids=["waveform-inf-rate", "sweep-inf-rate", "sweep-huge-duration", "scenario-huge-duration"],
)
def test_non_finite_record_size_exits_1(tmp_path, capsys, argv):
    doc = json.loads(scenario_file(tmp_path, trials=10).read_text())
    doc["waveform"]["duration_s"] = 1e300  # finite, but the sample count is not
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    argv = [a.format(huge=huge) for a in argv]
    if argv[0] == "sweep":
        argv += ["--trials", "10", "--out", str(tmp_path / "sweep.csv")]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rangekit: error: ") and "finite" in captured.err


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert [line for line in lines if line.startswith("rangekit: error: ")] == lines[-1:]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--delta-f", "5e8:1e8:5e8", "--snr", "0:1:inf"],
        ["sweep", "--delta-f", "nan:1e8:5e8", "--snr", "20:1:20"],
        ["coherence", "--nodes", "4", "--f-action", "1e9", "--sigma-range", "0.01",
         "--sigma-grid", "0:0.001:inf"],
    ],
    ids=["sweep-inf-snr", "sweep-nan-delta-f", "coherence-inf-sigma"],
)
def test_non_finite_grid_exits_1(tmp_path, capsys, argv):
    assert dispatch(argv + ["--trials", "10", "--out", str(tmp_path / "grid.csv")]) == 1
    assert_one_error_line(capsys)


def test_window_longer_than_record_exits_1(tmp_path, capsys):
    doc = json.loads(scenario_file(tmp_path, trials=10).read_text())
    doc["waveform"]["separation_hz"] = 1e6  # 1 us window on a 0.25 us record
    path = tmp_path / "long_window.json"
    path.write_text(json.dumps(doc))
    assert dispatch(["range-sim", "--scenario", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "rangekit: error: ambiguity window 1e-06 s is longer than the 2.5e-07 s record\n"
    )


def test_all_failed_range_sim_reports_null(tmp_path, capsys, monkeypatch):
    # every estimate lands 1.4 ns from the 0.5 ns truth, beyond the 1 ns
    # failure threshold, so no trial is left for the rmse
    monkeypatch.setattr(
        "rangekit.ranging._refine_peaks", lambda env, lags, fs: np.full(len(env), 1.9e-9)
    )
    scen = scenario_file(tmp_path, trials=20)
    assert dispatch(["range-sim", "--scenario", str(scen), "--out", "report.json"]) == 0
    out = capsys.readouterr().out

    def reject(token):
        raise AssertionError(f"{token} in JSON output")

    doc = json.loads(out, parse_constant=reject)
    mc = doc["monte_carlo"]
    assert mc["failures"] == mc["trials"] == 20
    assert mc["rmse_tau"] is mc["bias_tau"] is mc["crlb_ratio"] is None
    assert doc["mc_rmse_range_m"] is None
    assert json.loads((tmp_path / "report.json").read_text(), parse_constant=reject) == doc


def test_memory_error_exits_1(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB")

    monkeypatch.setattr("rangekit.cli.synth_two_tone", exhausted)
    argv = ["waveform", "--separation", "5e8", "--duration", "10", "--sample-rate", "4e9"]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("rangekit: error: ") and "298. GiB" in err


def test_phase_center_end_to_end(tmp_path, capsys):
    cut_a = point_source_cut(0.0, 0.005, 1.88e9, THETA)
    cut_b = point_source_cut(0.0, 0.0, 9.56e9, THETA)
    path_a = tmp_path / "band_a.csv"
    path_b = tmp_path / "band_b.csv"
    save_farfield_cuts(cut_a, path_a)
    save_farfield_cuts(cut_b, path_b)
    out = tmp_path / "series.csv"
    code = dispatch(
        [
            "phase-center",
            "--cut", str(path_a),
            "--cut", str(path_b),
            "--beam", "-30:30",
            "--window", "10",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["angles"] == 61
    assert doc["stats"]["mean_z0_m"] == pytest.approx(0.005, abs=1e-9)
    assert doc["stats"]["mean_x0_m"] == pytest.approx(0.0, abs=1e-9)
    assert out.exists()
    stats_path = tmp_path / "series.stats.json"
    assert json.loads(stats_path.read_text()) == doc
    manifest = json.loads((tmp_path / "series.manifest.json").read_text())
    assert str(stats_path) in manifest["outputs"]
    assert len(manifest["inputs"]) == 2


@pytest.mark.parametrize("window", ["inf", "nan", "0"])
def test_phase_center_non_finite_window_exits_1(tmp_path, capsys, window):
    paths = []
    for name, freq in (("a.csv", 1.88e9), ("b.csv", 9.56e9)):
        paths += ["--cut", str(tmp_path / name)]
        save_farfield_cuts(point_source_cut(0.0, 0.0, freq, THETA), tmp_path / name)
    out = tmp_path / "pc.csv"
    assert dispatch(["phase-center", *paths, "--window", window, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("rangekit: error: window width must be finite")
    assert not out.exists()


def test_phase_center_needs_two_cuts(tmp_path, capsys):
    cut = point_source_cut(0.0, 0.0, 1.88e9, THETA)
    path = tmp_path / "one.csv"
    save_farfield_cuts(cut, path)
    assert dispatch(["phase-center", "--cut", str(path)]) == 1
    capsys.readouterr()


def test_s11_bands_csv_and_json(tmp_path, capsys):
    trace = three_dip_trace(step_hz=2e6)
    ts = tmp_path / "sweep.s1p"
    write_touchstone(trace, ts)
    out_csv = tmp_path / "bands.csv"
    assert dispatch(["s11-bands", "--in", str(ts), "--out", str(out_csv)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["bands"]) == 3
    assert doc["threshold_db"] == -10.0
    assert out_csv.read_text().count("\n") == 4  # header + three bands

    out_json = tmp_path / "bands.json"
    assert dispatch(["s11-bands", "-q", "--in", str(ts), "--out", str(out_json)]) == 0
    capsys.readouterr()
    back = json.loads(out_json.read_text())
    assert [b["f_resonance_hz"] for b in back["bands"]] == [1.88e9, 9.56e9, 10.49e9]


def test_s11_bands_threshold_flag(tmp_path, capsys):
    ts = tmp_path / "sweep.s1p"
    write_touchstone(three_dip_trace(step_hz=2e6), ts)
    assert dispatch(["s11-bands", "--in", str(ts), "--threshold", "-15"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["bands"]) == 2  # the -12.26 dB dip drops out
    assert dispatch(["s11-bands", "--in", str(ts), "--threshold", "nan"]) == 1
    assert_one_error_line(capsys)


def test_s11_bands_non_finite_row_exits_1(tmp_path, capsys):
    ts = tmp_path / "sweep.s1p"
    ts.write_text("# HZ S DB R 50\n1e9 -3 0\n2e9 -20 0\ninf -3 0\n")
    assert dispatch(["s11-bands", "--in", str(ts)]) == 1
    assert_one_error_line(capsys)


def test_gain_stats_cli(tmp_path, capsys):
    gains = 5.0 - (THETA / 25.0) ** 2
    cut = point_source_cut(0.0, 0.0, 1.88e9, THETA, magnitude_db=0.0)
    cut = type(cut)(cut.phi_cut_deg, cut.frequency_hz, THETA, gains, cut.phase_deg)
    path = tmp_path / "gain.csv"
    save_farfield_cuts(cut, path)
    out = tmp_path / "stats.json"
    code = dispatch(
        ["gain-stats", "--cut", str(path), "--region", "-30:30", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean_domain"] == "db"
    assert doc["stats"][0]["max_gain_db"] == 5.0
    assert json.loads(out.read_text()) == doc

    assert dispatch(["gain-stats", "--cut", str(path), "--linear-mean"]) == 0
    lin = json.loads(capsys.readouterr().out)
    assert lin["mean_domain"] == "linear"
    assert lin["stats"][0]["mean_gain_db"] > doc["stats"][0]["mean_gain_db"]

    bad = tmp_path / "bad.json"
    assert dispatch(["gain-stats", "--cut", str(path), "--region", "0:inf", "--out", str(bad)]) == 1
    assert_one_error_line(capsys)
    assert not bad.exists()


def test_coherence_flags(tmp_path, capsys):
    out = tmp_path / "coh.json"
    code = dispatch(
        [
            "coherence",
            "--nodes", "10",
            "--f-action", "1.88e9",
            "--sigma-range", "0.004",
            "--trials", "2000",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["mean_gain_fraction"] == pytest.approx(
        doc["report"]["analytic_gain_fraction"], rel=0.05
    )
    assert json.loads(out.read_text()) == doc


def test_coherence_scenario_and_two_way(tmp_path, capsys):
    scen = scenario_file(tmp_path)
    assert dispatch(["coherence", "--scenario", str(scen)]) == 0
    one_way = json.loads(capsys.readouterr().out)
    assert one_way["n_nodes"] == 10 and one_way["trials"] == 2000
    assert dispatch(["coherence", "--scenario", str(scen), "--two-way"]) == 0
    two_way = json.loads(capsys.readouterr().out)
    assert two_way["sigma_phi_rad"] == pytest.approx(2 * one_way["sigma_phi_rad"], rel=1e-12)
    assert two_way["report"]["mean_gain_fraction"] < one_way["report"]["mean_gain_fraction"]


def test_coherence_sigma_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = dispatch(
        [
            "coherence",
            "--nodes", "8",
            "--f-action", "1.88e9",
            "--sigma-range", "0",
            "--trials", "500",
            "--sigma-grid", "0:0.002:0.004",
            "--out", str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("sigma_range_m,sigma_phi_rad,")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[2]) == 1.0  # zero error keeps full gain

    # a two-way link doubles each row's phase error for the same ranging error
    two_way = tmp_path / "grid2.csv"
    assert dispatch(
        ["coherence", "-q", "--nodes", "8", "--f-action", "1.88e9", "--sigma-range", "0",
         "--trials", "500", "--sigma-grid", "0:0.002:0.004", "--two-way", "--out", str(two_way)]
    ) == 0
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    rows2 = [[float(v) for v in line.split(",")] for line in two_way.read_text().splitlines()[1:]]
    assert [r[0] for r in rows2] == [r[0] for r in rows]
    assert [r[1] for r in rows2] == [2.0 * r[1] for r in rows]
    assert rows2[2][2] < rows[2][2]

    # the grid sweep needs somewhere to write
    assert dispatch(
        ["coherence", "--nodes", "8", "--f-action", "1.88e9",
         "--sigma-range", "0", "--sigma-grid", "0:0.002:0.004"]
    ) == 1
    capsys.readouterr()


def test_coherence_missing_parameters(capsys):
    assert dispatch(["coherence", "--nodes", "10"]) == 1
    assert "sigma-range" in capsys.readouterr().err


def test_geometry_reference_and_validate(tmp_path, capsys):
    out = tmp_path / "dims.json"
    assert dispatch(["geometry", "reference", "--out", str(out)]) == 0
    capsys.readouterr()
    dims = load_dimensions(out)
    assert validate(dims) == []
    assert (tmp_path / "dims.manifest.json").exists()
    assert dispatch(["geometry", "validate", "--in", str(out), "-q"]) == 0


def test_geometry_validate_reports_violations(tmp_path, capsys):
    bad = dict(reference_dimensions().lengths_mm)
    bad["B"] = 60.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert dispatch(["geometry", "validate", "--in", str(path)]) == 1
    assert "violation" in capsys.readouterr().err


def test_geometry_needs_action(capsys):
    assert dispatch(["geometry"]) == 1
    capsys.readouterr()


def test_sweep_cli(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    code = dispatch(
        [
            "sweep",
            "--delta-f", "0.5e9:0.5e9:1e9",
            "--snr", "20:10:30",
            "--trials", "20",
            "--duration", "2.5e-7",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "4 grid points" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "delta_f_hz,snr_db,crlb_std_range_m,mc_rmse_range_m,crlb_ratio,failures"
    assert len(lines) == 5
    seps = {float(line.split(",")[0]) for line in lines[1:]}
    assert seps == {0.5e9, 1e9}
    assert (tmp_path / "surface.manifest.json").exists()


def test_missing_input_exits_2(tmp_path, capsys):
    assert dispatch(["s11-bands", "--in", str(tmp_path / "absent.s1p")]) == 2
    assert "i/o" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "spec.csv"
    code = dispatch(
        ["waveform", "--separation", "1e9", "--duration", "1e-6",
         "--sample-rate", "4e9", "--out", str(out)]
    )
    assert code == 2
    capsys.readouterr()


def test_save_dimensions_round_trip_through_cli(tmp_path, capsys):
    # a record written by the library validates cleanly through the CLI
    path = tmp_path / "ref.json"
    save_dimensions(reference_dimensions(), path)
    assert dispatch(["geometry", "validate", "--in", str(path)]) == 0
    capsys.readouterr()


def test_bench_tracer_finds_its_targets(tmp_path, capsys):
    # bench/tracer.py patches rangekit functions by name; a rename must fail here too
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # inside try: uninstall also undoes a partial install
        scen = scenario_file(tmp_path, trials=20)
        assert dispatch(["range-sim", "-q", "--scenario", str(scen), "--out", "r.json"]) == 0
    finally:
        tracer.uninstall()
    names = {span[2] for span in tracer.spans}
    assert {"ranging.monte_carlo", "ranging.crlb_result", "fileio.dump_json"} <= names
    assert tracer.layer_metrics()["ranging.monte_carlo.calls"] == 1


def test_parser_reuse_matches_fresh_processes(tmp_path, capsys):
    # dispatch builds its parser once per process; no call may see an earlier one's flags
    s1p = tmp_path / "sweep.s1p"
    write_touchstone(three_dip_trace(step_hz=5e6), s1p)
    cuts = [tmp_path / "a.csv", tmp_path / "b.csv"]
    save_farfield_cuts(point_source_cut(0.001, 0.006, 1.88e9, THETA), cuts[0])
    save_farfield_cuts(point_source_cut(0.0, 0.001, 9.56e9, THETA), cuts[1])
    pc = ["phase-center", "--cut", str(cuts[0]), "--cut", str(cuts[1])]
    calls = [
        ["s11-bands", "--in", str(s1p), "--threshold"],  # usage error: flag without a value
        ["s11-bands", "--in", str(s1p)],
        pc + ["--window", "6", "--beam", "-20:25"],
        pc,
    ]
    in_process = []
    for argv in calls:
        code = dispatch(argv)
        in_process.append((code, capsys.readouterr().out))
    env = dict(os.environ, PYTHONPATH=str(Path(rangekit.__file__).parents[1]))
    fresh = [
        subprocess.run([sys.executable, "-m", "rangekit.cli", *argv],
                       capture_output=True, text=True, timeout=60, env=env)
        for argv in calls
    ]
    assert in_process == [(proc.returncode, proc.stdout) for proc in fresh]
    assert [code for code, _ in in_process] == [1, 0, 0, 0]
    narrow, default = (json.loads(out) for _, out in in_process[2:])
    assert (narrow["window_deg"], narrow["beam_region_deg"]) == (6.0, [-20.0, 25.0])
    assert (default["window_deg"], default["beam_region_deg"]) == (10.0, [-30.0, 30.0])
    assert build_parser() is build_parser()


def test_console_script_entry_point():
    proc = subprocess.run(
        ["rangekit", "--version"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("rangekit ")


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "rangekit.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
