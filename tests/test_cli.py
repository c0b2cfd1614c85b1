"""End-to-end CLI tests driven through the in-process dispatcher."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import three_dip_trace
import rangekit
from rangekit.antenna_metrics import write_touchstone
from rangekit.cli import build_parser, dispatch, parse_grid, parse_region
from rangekit.fileio import BANDS_HEADER, manifest_path_for, save_farfield_cuts
from rangekit.geometry import load_dimensions, reference_dimensions, save_dimensions, validate
from rangekit.phase_center import FarFieldCut, displacement_stats, point_source_cut

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
    with pytest.raises(ValueError, match="below the float spacing"):
        parse_grid("1e16:1:1.0000000000000002e16")  # 1e16 + 1 rounds back to 1e16
    with pytest.raises(ValueError, match="exceeds the largest float"):
        parse_grid("-1.7e308:1e308:1.7e308")
    with pytest.raises(ValueError, match="more than 1000000 points"):
        parse_grid("0:1e-9:1")
    assert len(parse_grid("0:1e-6:0.999999")) == 1_000_000


def test_parse_region():
    assert parse_region("-30:30") == (-30.0, 30.0)
    assert parse_region("0:15") == (0.0, 15.0)
    for bad in ("30:-30", "10", "1:2:3", "0:inf", "-inf:0", "nan:10"):
        with pytest.raises(ValueError):
            parse_region(bad)


def assert_usage_error(capsys, missing):
    """A usage line, then one error line naming the ``missing`` argument."""
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: rangekit")
    assert error == f"rangekit: error: the following arguments are required: {missing}"
    assert captured.out == ""


def test_no_arguments_is_usage_error(capsys):
    assert dispatch([]) == 1
    assert_usage_error(capsys, "subcommand")


def test_geometry_needs_action(capsys):
    assert dispatch(["geometry"]) == 1
    assert_usage_error(capsys, "action")


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
    manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
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
    assert (tmp_path / "report.json.manifest.json").exists()


def test_range_sim_reruns_byte_identical(tmp_path, capsys):
    scen = scenario_file(tmp_path, trials=80)
    for name in ("a.json", "b.json"):
        assert dispatch(["range-sim", "-q", "--scenario", str(scen), "--out", name]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    ma = json.loads((tmp_path / "a.json.manifest.json").read_text())
    mb = json.loads((tmp_path / "b.json.manifest.json").read_text())
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
        ("waveform", "tone_phases_rad", [0.0, 1.0]),  # phases need a tone list, not a separation
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


def test_short_record_exits_1(capsys):
    # 1 ns at 1 GS/s is a one-sample record, too short for a spectrum
    argv = ["waveform", "--separation", "2e8", "--duration", "1e-9", "--sample-rate", "1e9"]
    assert dispatch(argv) == 1
    assert capsys.readouterr() == (
        "",
        "rangekit: error: a 1e-09 s record at 1e+09 Hz holds 1 sample(s); at least 2 are needed\n",
    )


@pytest.mark.parametrize("separation", ["5e5", "1e-300"])
def test_separation_below_record_resolution_exits_1(tmp_path, capsys, separation):
    # a 1 us record resolves tones 1 MHz apart; closer ones have no
    # discrete spectrum of their own
    argv = ["waveform", "--separation", separation, "--duration", "1e-6", "--sample-rate", "4e9",
            "--out", str(tmp_path / "spec.csv")]
    assert dispatch(argv) == 1
    assert capsys.readouterr() == ("", f"rangekit: error: tone separation {float(separation):g} Hz "
                                       "is below the 1e+06 Hz resolution of a 1e-06 s record\n")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sigma-range", "0.004", "--trials", "10", "--sigma-grid", "0:1e300:1e301",
          "--out", "g.csv"], "the phase error 2*pi*f_action_hz*sigma_range_m/c overflows"),
        (["--sigma-range", "1e308", "--two-way"], "the two-way range error 2*sigma_range_m overflows"),
    ],
    ids=["grid-point", "two-way-doubling"],
)
def test_coherence_overflow_stderr_is_one_error_line(tmp_path, argv, message):
    # a subprocess, so a numpy warning printed before the error line shows in stderr
    env = dict(os.environ, PYTHONPATH=str(Path(rangekit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "rangekit.cli", "coherence", "--nodes", "10",
         "--f-action", "1.88e9", *argv],
        capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"rangekit: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


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
    manifest = json.loads((tmp_path / "series.csv.manifest.json").read_text())
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
    # outputs that differ only in suffix keep a manifest each
    for out in (out_csv, out_json):
        assert json.loads(manifest_path_for(out).read_text())["outputs"] == [str(out)]


def test_s11_bands_csv_without_bands(tmp_path, capsys):
    # a valid sweep that never dips below -10 dB: the CSV is the header alone
    ts = tmp_path / "flat.s1p"
    ts.write_text("# GHZ S DB R 50\n1 -3 0\n2 -4 0\n3 -3 0\n")
    out_csv = tmp_path / "nob.csv"
    assert dispatch(["s11-bands", "--in", str(ts), "--out", str(out_csv)]) == 0
    csv_run = capsys.readouterr()
    assert csv_run.err == ""
    assert out_csv.read_text() == BANDS_HEADER + "\n"
    assert manifest_path_for(out_csv).exists()
    assert dispatch(["s11-bands", "--in", str(ts), "--out", str(tmp_path / "nob.json")]) == 0
    assert capsys.readouterr().out == csv_run.out
    assert json.loads(csv_run.out)["bands"] == []


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


@pytest.mark.parametrize("level", [3100.0, -4000.0])
def test_gain_stats_linear_mean_far_from_0_db(tmp_path, capsys, level):
    path = tmp_path / "cut.csv"
    save_farfield_cuts(point_source_cut(0.0, 0.0, 1.88e9, THETA, magnitude_db=level), path)
    assert dispatch(["gain-stats", "--cut", str(path), "--linear-mean"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["stats"][0]["mean_gain_db"] == level


def test_gain_stats_db_mean_near_largest_float(tmp_path, capsys):
    # the dB samples sum past the largest float; pyproject.toml makes the
    # RuntimeWarning an overflow would print an error
    path = tmp_path / "cut.csv"
    save_farfield_cuts(point_source_cut(0.0, 0.0, 1.88e9, THETA[:3], magnitude_db=1e308), path)
    assert dispatch(["gain-stats", "--cut", str(path), "--region", "-60:-58"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["stats"][0]["mean_gain_db"] == pytest.approx(1e308, rel=1e-12)


def test_phase_center_rejects_frequency_without_finite_wavenumber(tmp_path, capsys):
    # 2*pi*f overflows past about 2.9e307 Hz; gain-stats, which forms no
    # wavenumber, still reads such a cut
    paths = []
    for name, freq in (("a.csv", 1e308), ("b.csv", 1.88e9)):
        zeros = np.zeros(len(THETA))
        save_farfield_cuts(FarFieldCut(0.0, freq, THETA, zeros, zeros), tmp_path / name)
        paths += ["--cut", str(tmp_path / name)]
    assert dispatch(["phase-center", *paths]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["rangekit: error: frequency 1e+308 Hz is too large to form a wavenumber"]
    assert dispatch(["gain-stats", "--cut", paths[1]]) == 0
    assert json.loads(capsys.readouterr().out)["stats"][0]["frequency_hz"] == 1e308


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


def test_coherence_outputs_land_in_output_dir(tmp_path, capsys, monkeypatch):
    doc = json.loads(scenario_file(tmp_path).read_text())
    doc["output_dir"] = "outdir"
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    (tmp_path / "outdir").mkdir()
    monkeypatch.chdir(tmp_path)
    coherence = ["coherence", "--scenario", "scenario.json", "--trials", "200"]
    assert dispatch(coherence + ["--out", "r.json"]) == 0
    assert json.loads(Path("outdir/r.json").read_text()) == json.loads(capsys.readouterr().out)
    assert dispatch(coherence + ["--sigma-grid", "0:0.002:0.004", "--out", "g.csv"]) == 0
    assert capsys.readouterr().out == f"wrote 3 grid points to {Path('outdir', 'g.csv')}\n"
    assert sorted(p.name for p in Path("outdir").iterdir()) == [
        "g.csv", "g.csv.manifest.json", "r.json", "r.json.manifest.json"]
    manifest = json.loads(Path("outdir/g.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(Path("outdir", "g.csv"))]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "scenario.json"]


@pytest.mark.parametrize(
    "flag, value, key, expected",
    [
        ("--separation", "2e8", "tone_frequencies_hz", [-1e8, 1e8]),
        ("--duration", "5e-7", "duration_s", 5e-7),
        ("--sample-rate", "8e9", "sample_rate_hz", 8e9),
    ],
)
def test_waveform_flag_overrides_scenario_field(tmp_path, capsys, flag, value, key, expected):
    argv = ["waveform", "--scenario", str(scenario_file(tmp_path))]
    assert dispatch(argv) == 0
    base = json.loads(capsys.readouterr().out)
    assert dispatch(argv + [flag, value]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert base[key] != expected and doc[key] == expected
    for other in ("tone_frequencies_hz", "duration_s", "sample_rate_hz"):
        if other != key:
            assert doc[other] == base[other]


def test_waveform_separation_replaces_scenario_tone_list(tmp_path, capsys):
    doc = json.loads(scenario_file(tmp_path).read_text())
    doc["waveform"] = {
        "duration_s": 1e-6,
        "sample_rate_hz": 4e9,
        "tone_frequencies_hz": [-3e8, 1e8, 4e8],
        "tone_amplitudes": [1.0, 0.5, 2.0],
    }
    path = tmp_path / "tones.json"
    path.write_text(json.dumps(doc))
    assert dispatch(["waveform", "--scenario", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["tone_frequencies_hz"] == [-3e8, 1e8, 4e8]
    assert dispatch(["waveform", "--scenario", str(path), "--separation", "5e8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tone_frequencies_hz"] == [-2.5e8, 2.5e8]
    assert out["ratio_vs_flat_spectrum"] == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize(
    "flag, value, key, expected",
    [
        ("--nodes", "12", "n_nodes", 12),
        ("--f-action", "2.4e9", "f_action_hz", 2.4e9),
        ("--sigma-range", "0.01", "sigma_range_m", 0.01),
        ("--trials", "700", "trials", 700),
        ("--seed", "9", "seed", 9),
    ],
)
def test_coherence_flag_overrides_scenario_field(tmp_path, capsys, flag, value, key, expected):
    argv = ["coherence", "--scenario", str(scenario_file(tmp_path))]
    assert dispatch(argv) == 0
    base = json.loads(capsys.readouterr().out)
    assert dispatch(argv + [flag, value]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert base[key] != expected and doc[key] == expected
    for other in ("n_nodes", "f_action_hz", "sigma_range_m", "trials", "seed"):
        if other != key:
            assert doc[other] == base[other]


def test_coherence_flags_default_to_scenario_config_defaults(capsys):
    assert dispatch(["coherence", "--nodes", "4", "--f-action", "1e9", "--sigma-range", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["trials"], doc["seed"]) == (100000, 0)


@pytest.mark.parametrize(
    "argv",
    [
        ["waveform", "--separation", "nan", "--duration", "1e-6", "--sample-rate", "4e9"],
        ["waveform", "--scenario", "{scenario}", "--duration", "nan"],
        ["coherence", "--scenario", "{scenario}", "--f-action", "nan"],
        ["coherence", "--nodes", "4", "--f-action", "1e9", "--sigma-range", "nan"],
    ],
    ids=["waveform-separation", "waveform-duration", "coherence-f-action", "coherence-sigma"],
)
def test_non_finite_flag_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "w.csv"
    argv = [a.format(scenario=scenario_file(tmp_path)) for a in argv]
    assert dispatch(argv + ["--out", str(out)]) == 1
    assert_one_error_line(capsys)
    assert list(tmp_path.glob("w*")) == []


def test_coherence_missing_parameters(capsys):
    assert dispatch(["coherence", "--nodes", "10"]) == 1
    assert "sigma-range" in capsys.readouterr().err


def test_geometry_reference_and_validate(tmp_path, capsys):
    out = tmp_path / "dims.json"
    assert dispatch(["geometry", "reference", "--out", str(out)]) == 0
    capsys.readouterr()
    dims = load_dimensions(out)
    assert validate(dims) == []
    assert (tmp_path / "dims.json.manifest.json").exists()
    assert dispatch(["geometry", "validate", "--in", str(out), "-q"]) == 0


@pytest.mark.parametrize(
    "key, value",
    [
        ("C", float("nan")),
        ("width_mm", float("inf")),
        ("thickness_mm", True),
        ("width_mm", "wide"),
        ("C", 10**400),
    ],
    ids=["nan-length", "inf-substrate", "bool-substrate", "str-substrate", "huge-length"],
)
def test_geometry_validate_rejects_non_finite_or_non_numeric(tmp_path, capsys, key, value):
    doc = dict(reference_dimensions().lengths_mm)
    if key in doc:
        doc[key] = value
    else:
        doc["substrate"] = {key: value}
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(doc))
    assert dispatch(["geometry", "validate", "--in", str(path)]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("text", ["[" * 100000, '{"seed": 1, "waveform": {'],
                         ids=["deeply-nested", "truncated"])
@pytest.mark.parametrize("argv, kind", [(["range-sim", "--scenario"], "scenario"),
                                        (["geometry", "validate", "--in"], "dimension")],
                         ids=["range-sim", "geometry-validate"])
def test_invalid_json_exits_1_with_one_line(tmp_path, capsys, text, argv, kind):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert dispatch(argv + [str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"rangekit: error: {kind} file is not valid JSON: ")


WAVEFORM = '"waveform": {"duration_s": 1e-6, "sample_rate_hz": 4e9, "separation_hz": 5e8'


@pytest.mark.parametrize("text, argv, message", [
    ('{"seed": 1, ' + WAVEFORM + '}, "seed": 2}', ["waveform", "--scenario"],
     "scenario file repeats the key 'seed' in one object"),
    ("{" + WAVEFORM + ', "separation_hz": 1e9}}', ["waveform", "--scenario"],
     "scenario file repeats the key 'separation_hz' in one object"),
    (None, ["geometry", "validate", "--in"], "dimension file repeats the key 'A' in one object"),
], ids=["scenario-top-level", "scenario-section", "dimension"])
def test_repeated_json_key_exits_1_with_one_line(tmp_path, capsys, text, argv, message):
    path = tmp_path / "dup.json"
    if text is None:  # the reference record with a second "A" in front
        save_dimensions(reference_dimensions(), path)
        text = '{"A": 1.0, ' + path.read_text().lstrip()[1:]
    path.write_text(text)
    assert dispatch(argv + [str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"rangekit: error: {message}\n"


def run_with_closed_stdout(argv, cwd):
    """Run the CLI in a subprocess whose stdout is a pipe without a reader,
    so every write to it fails with EPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(rangekit.__file__).parents[1]))
    try:
        return subprocess.run([sys.executable, "-m", "rangekit.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60, env=env, cwd=cwd)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [
    ["waveform", "--separation", "1e9", "--duration", "1e-6", "--sample-rate", "4e9",
     "--out", "spec.csv"],
    ["geometry", "reference", "--out", "dims.json"],
], ids=["waveform", "geometry-reference"])
def test_closed_stdout_ends_quietly(tmp_path, argv):
    proc = run_with_closed_stdout(argv, tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    out = tmp_path / argv[-1]
    assert out.exists() and manifest_path_for(out).exists()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_broken_pipe_writing_out_file_is_an_io_error(tmp_path):
    proc = run_with_closed_stdout(["geometry", "reference", "--out", "/dev/stdout"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "rangekit: i/o error: [Errno 32] Broken pipe\n"


def test_geometry_validate_reports_violations(tmp_path, capsys):
    bad = dict(reference_dimensions().lengths_mm)
    bad["B"] = 60.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert dispatch(["geometry", "validate", "--in", str(path)]) == 1
    assert "violation" in capsys.readouterr().err


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
    assert (tmp_path / "surface.csv.manifest.json").exists()


@pytest.mark.parametrize("sample_rate", ["4e9", "1e300"], ids=["nyquist", "record-too-long"])
def test_sweep_validates_every_cell_before_simulating(tmp_path, capsys, monkeypatch, sample_rate):
    # at 4 GS/s the 4 GHz separation breaks Nyquist; at 1e300 S/s every cell's
    # record is too long to allocate; no column may run first
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating the grid")

    monkeypatch.setattr(rangekit.cli, "monte_carlo_column", no_simulation)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--delta-f", "1e9:1e9:4e9", "--snr", "0:10:20", "--sample-rate", sample_rate,
            "--trials", "10", "--out", str(out)]
    assert dispatch(argv) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


def test_coherence_grid_validates_every_point_before_simulating(tmp_path, capsys, monkeypatch):
    # 2*pi*sigma overflows from the 7th point (3e307 m) on; the 6 before it may not run first
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before validating the grid")

    monkeypatch.setattr(rangekit.beamform, "coherent_gain", no_simulation)
    out = tmp_path / "grid.csv"
    argv = ["coherence", "--nodes", "10", "--f-action", "1", "--sigma-range", "0.01",
            "--sigma-grid", "0:5e306:1.7e308", "--out", str(out)]
    assert dispatch(argv) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


def test_non_finite_report_value_exits_1_naming_the_field(tmp_path, capsys, monkeypatch):
    # a producer fault reaches no report: no stdout, no --out file, no manifest
    def faulty_stats(series):
        return replace(displacement_stats(series), mean_x0_m=float("inf"))

    monkeypatch.setattr(rangekit.cli, "displacement_stats", faulty_stats)
    cuts = []
    for name, freq in (("a.csv", 1.88e9), ("b.csv", 9.56e9)):
        cuts += ["--cut", str(tmp_path / name)]
        save_farfield_cuts(point_source_cut(0.0, 0.0, freq, THETA), tmp_path / name)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    # quiet, the stats JSON is encoded before the series CSV is written
    for out in ([], ["--out", str(out_dir / "pc.csv")], ["-q", "--out", str(out_dir / "pc.csv")]):
        assert dispatch(["phase-center", *cuts, *out]) == 1
        assert capsys.readouterr() == (
            "", "rangekit: error: field stats.mean_x0_m is inf, which JSON cannot hold\n"
        )
    assert list(out_dir.iterdir()) == []


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


def test_missing_output_dir_exits_2_before_simulating(tmp_path, capsys, monkeypatch):
    # a long run must not compute first and only then find --out unwritable
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the output directory")

    monkeypatch.setattr(rangekit.cli, "monte_carlo", no_simulation)
    monkeypatch.setattr(rangekit.cli, "monte_carlo_column", no_simulation)
    monkeypatch.setattr(rangekit.beamform, "coherent_gain", no_simulation)
    monkeypatch.chdir(tmp_path)
    scen = scenario_file(tmp_path, trials=300_000)
    doc = json.loads(scen.read_text())
    scen.write_text(json.dumps(dict(doc, output_dir="missing")))
    missing = tmp_path / "missing"
    for argv, out in (
        (["range-sim", "--scenario", str(scen), "--out", "r.json"], "missing/r.json"),
        (["coherence", "--scenario", str(scen), "--sigma-grid", "0:0.001:0.01",
          "--out", "g.csv"], "missing/g.csv"),
        (["sweep", "--delta-f", "5e8:1e8:5e8", "--snr", "0:10:20",
          "--out", str(missing / "s.csv")], str(missing / "s.csv")),
    ):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rangekit: i/o error: [Errno 2] No such file or directory: '{out}'\n"
    assert not missing.exists()


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
    # the coherence engine runs every block inside its one run_trials call
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert dispatch(["coherence", "-q", "--nodes", "10", "--f-action", "1.88e9",
                         "--sigma-range", "0.004", "--trials", "1100"]) == 0
    finally:
        tracer.uninstall()
    (engine,) = [span for span in tracer.spans if span[2] == "rand.run_trials"]
    chunks = [span for span in tracer.spans if span[2] == "beamform.chunk"]
    assert len(chunks) == 3  # 1100 trials = 512 + 512 + 76
    for _, parent, _, start, end, _ in chunks:
        assert parent == engine[0]
        assert engine[3] <= start <= end <= engine[4]


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
    env = dict(os.environ, PYTHONPATH=str(Path(rangekit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "rangekit.cli", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0


@pytest.fixture
def quiet_inputs(tmp_path):
    """argv (minus -q) of one valid call per subcommand and geometry action."""
    s1p = tmp_path / "sweep.s1p"
    write_touchstone(three_dip_trace(step_hz=5e6), s1p)
    cuts = [tmp_path / "a.csv", tmp_path / "b.csv"]
    save_farfield_cuts(point_source_cut(0.001, 0.006, 1.88e9, THETA), cuts[0])
    save_farfield_cuts(point_source_cut(0.0, 0.001, 9.56e9, THETA), cuts[1])
    dims = tmp_path / "dims.json"
    save_dimensions(reference_dimensions(), dims)
    coherence = ["coherence", "--nodes", "4", "--f-action", "1.88e9", "--sigma-range", "0.004",
                 "--trials", "200"]
    return {
        "waveform": ["waveform", "--separation", "5e8", "--duration", "1e-6",
                     "--sample-rate", "4e9"],
        "range-sim": ["range-sim", "--scenario", str(scenario_file(tmp_path, trials=20))],
        "phase-center": ["phase-center", "--cut", str(cuts[0]), "--cut", str(cuts[1])],
        "s11-bands": ["s11-bands", "--in", str(s1p)],
        "gain-stats": ["gain-stats", "--cut", str(cuts[0])],
        "coherence": coherence,
        "coherence-grid": coherence + ["--sigma-grid", "0:0.004:0.004",
                                       "--out", str(tmp_path / "grid.csv")],
        "geometry-validate": ["geometry", "validate", "--in", str(dims)],
        "geometry-reference": ["geometry", "reference", "--out", str(tmp_path / "ref.json")],
        "sweep": ["sweep", "--delta-f", "5e8:5e8:5e8", "--snr", "20:10:20", "--trials", "20",
                  "--duration", "2.5e-7", "--out", str(tmp_path / "sweep.csv")],
    }


@pytest.mark.parametrize(
    "name",
    ["waveform", "range-sim", "phase-center", "s11-bands", "gain-stats", "coherence",
     "coherence-grid", "geometry-validate", "geometry-reference", "sweep"],
)
def test_quiet_silences_every_subcommand_and_action(quiet_inputs, capsys, name):
    argv = quiet_inputs[name]
    assert dispatch(argv) == 0
    assert capsys.readouterr().out != ""
    # -q after the subcommand, before and after a geometry action, and last
    positions = (1, 2, len(argv)) if argv[0] == "geometry" else (1, len(argv))
    for quiet_argv in [argv[:i] + ["-q"] + argv[i:] for i in positions] + [argv + ["--quiet"]]:
        assert dispatch(quiet_argv) == 0
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "name, out",
    [("waveform", "spec.csv"), ("range-sim", "report.json"), ("phase-center", "series.csv"),
     ("s11-bands", "bands.csv"), ("s11-bands", "bands.json"), ("gain-stats", "gain.json"),
     ("coherence", "coherence.json"), ("coherence-grid", None), ("geometry-reference", None),
     ("sweep", None)],
)
def test_manifest_lists_every_output_and_input(quiet_inputs, tmp_path, capsys, name, out):
    argv = quiet_inputs[name] + ([] if out is None else ["--out", str(tmp_path / out)])
    before = set(tmp_path.rglob("*"))
    assert dispatch(argv) == 0
    capsys.readouterr()
    written = set(tmp_path.rglob("*")) - before
    primary = Path(argv[argv.index("--out") + 1])
    manifest = json.loads(manifest_path_for(primary).read_text())
    assert str(primary) == manifest["outputs"][0]
    assert {Path(p) for p in manifest["outputs"]} | {manifest_path_for(primary)} == written
    named = [value for flag, value in zip(argv, argv[1:]) if flag in ("--scenario", "--in", "--cut")]
    assert manifest["inputs"] == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in named}


@pytest.mark.parametrize(
    "section, key, value",
    [(None, "C", 10**400), ("ranging", "snr_db", 10**400),
     ("beamform", "f_action_hz", "x" * 10_000)],
    ids=["huge-dimension", "huge-scenario-field", "long-string"],
)
def test_rejected_value_is_quoted_short(tmp_path, capsys, section, key, value):
    path = tmp_path / "bad.json"
    if section is None:
        path.write_text(json.dumps(dict(reference_dimensions().lengths_mm, **{key: value})))
        argv, field = ["geometry", "validate", "--in", str(path)], f"dimension {key}"
    else:
        doc = json.loads(scenario_file(tmp_path).read_text())
        doc[section][key] = value
        path.write_text(json.dumps(doc))
        argv, field = ["range-sim", "--scenario", str(path)], f"field {section}.{key}"
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"rangekit: error: {field} must be ") and len(line) < 120


@pytest.mark.parametrize("module, unwanted", [
    # manifests (hashlib), worker threads (concurrent.futures) and the noise
    # draw (numpy.random) load when a run needs them, not with the CLI
    ("rangekit.cli", lambda loaded: {"hashlib", "concurrent.futures", "numpy.random"} & loaded),
    # the package re-exports nothing, so a submodule loads no sibling it does not import
    ("rangekit.phase_center",
     lambda loaded: {m for m in loaded if m.startswith("rangekit.")} - {"rangekit.phase_center"}),
], ids=["rangekit.cli", "rangekit.phase_center"])
def test_cli_import_leaves_optional_modules_unloaded(module, unwanted):
    env = dict(os.environ, PYTHONPATH=str(Path(rangekit.__file__).parents[1]))
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert sorted(unwanted(set(json.loads(proc.stdout)))) == []
