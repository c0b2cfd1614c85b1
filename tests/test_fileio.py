"""File format tests: far-field CSV, plot CSVs, scenario JSON, manifests."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rangekit.antenna_metrics import BandMetrics
from rangekit.fileio import (
    BANDS_HEADER,
    DISPLACEMENT_HEADER,
    FARFIELD_HEADER,
    SPECTRUM_HEADER,
    SWEEP_HEADER,
    SweepPoint,
    emit_plot_data,
    fmt_float,
    load_farfield_cuts,
    load_scenario,
    manifest_path_for,
    parse_scenario,
    report_dict,
    save_farfield_cuts,
    sha256_of,
    write_manifest,
)
from rangekit.phase_center import DisplacementSeries, FarFieldCut, point_source_cut
from rangekit.waveform import SpectrumModel, ToneSet, spectrum_of, synth_two_tone


def test_fmt_float_round_trips():
    values = [0.0, 1.0, -24.7, 1.88e9, np.pi, 1 / 3, 5.090146128313572e-21, 1e-300]
    for v in values:
        assert float(fmt_float(v)) == v


def test_farfield_round_trip_exact(tmp_path):
    rng = np.random.default_rng(2)
    theta = np.arange(-60.0, 61.0, 2.0)
    cuts = [
        FarFieldCut(0.0, 1.88e9, theta, rng.standard_normal(len(theta)), 360 * rng.random(len(theta)) - 180),
        FarFieldCut(90.0, 9.56e9, theta, rng.standard_normal(len(theta)), 360 * rng.random(len(theta)) - 180),
    ]
    path = tmp_path / "cuts.csv"
    save_farfield_cuts(cuts, path)
    assert path.read_text().splitlines()[0] == FARFIELD_HEADER
    back = load_farfield_cuts(path)
    assert len(back) == 2
    by_key = {(c.phi_cut_deg, c.frequency_hz): c for c in back}
    for cut in cuts:
        loaded = by_key[(cut.phi_cut_deg, cut.frequency_hz)]
        assert_array_equal(loaded.theta_deg, cut.theta_deg)
        assert_array_equal(loaded.magnitude_db, cut.magnitude_db)
        assert_array_equal(loaded.phase_deg, cut.phase_deg)


def test_farfield_load_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_farfield_cuts(empty)

    wrong_header = tmp_path / "hdr.csv"
    wrong_header.write_text("theta,phi,freq,mag,phase\n0,0,1e9,0,0\n")
    with pytest.raises(ValueError):
        load_farfield_cuts(wrong_header)

    short_row = tmp_path / "short.csv"
    short_row.write_text(FARFIELD_HEADER + "\n0,0,1e9,0\n")
    with pytest.raises(ValueError):
        load_farfield_cuts(short_row)

    # theta must increase within a (phi, frequency) group
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(
        FARFIELD_HEADER + "\n"
        "10,0,1e9,0,0\n0,0,1e9,0,0\n-10,0,1e9,0,0\n"
    )
    with pytest.raises(ValueError):
        load_farfield_cuts(shuffled)

    header_only = tmp_path / "no_rows.csv"
    header_only.write_text(FARFIELD_HEADER + "\n")
    with pytest.raises(ValueError):
        load_farfield_cuts(header_only)


def test_emit_plot_data_dispatch(tmp_path):
    series = DisplacementSeries(np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([5e-3, 5e-3]))
    p1 = tmp_path / "disp.csv"
    emit_plot_data(series, p1)
    assert p1.read_text().splitlines()[0] == DISPLACEMENT_HEADER

    bands = [BandMetrics(1.88e9, -24.7, 1.87e9, 1.89e9, 0.0106)]
    p2 = tmp_path / "bands.csv"
    emit_plot_data(bands, p2)
    assert p2.read_text().splitlines()[0] == BANDS_HEADER

    sig = synth_two_tone(ToneSet.two_tone(5e8), duration=1e-6, sample_rate=4e9)
    spec = spectrum_of(sig)
    p3 = tmp_path / "spec.csv"
    emit_plot_data(spec, p3)
    assert p3.read_text().splitlines()[0] == SPECTRUM_HEADER

    points = [SweepPoint(5e8, 20.0, 1e-3, 1.1e-3, 1.2, 0)]
    p4 = tmp_path / "sweep.csv"
    emit_plot_data(points, p4)
    lines = p4.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[1].endswith(",0")

    cut = point_source_cut(0.001, 0.002, 1.88e9, np.arange(-30.0, 31.0))
    p5 = tmp_path / "cut.csv"
    emit_plot_data(cut, p5)
    assert p5.read_text().splitlines()[0] == FARFIELD_HEADER

    with pytest.raises(ValueError):
        emit_plot_data([], tmp_path / "none.csv")
    with pytest.raises(TypeError):
        emit_plot_data({"not": "supported"}, tmp_path / "bad.csv")
    with pytest.raises(TypeError):
        emit_plot_data([1.0, 2.0], tmp_path / "bad2.csv")


def test_analytic_spectrum_has_no_csv(tmp_path):
    spec = SpectrumModel.from_tones(ToneSet.two_tone(5e8))
    with pytest.raises(ValueError):
        emit_plot_data(spec, tmp_path / "analytic.csv")


SCENARIO_DOC = {
    "seed": 42,
    "output_dir": "out",
    "waveform": {"duration_s": 1e-6, "sample_rate_hz": 4e9, "separation_hz": 5e8},
    "ranging": {"snr_db": 20.0, "true_delay_s": 5e-10, "two_way": True},
    "beamform": {"n_nodes": 10, "f_action_hz": 1.88e9, "sigma_range_m": 0.004},
}


def test_parse_scenario_full():
    cfg = parse_scenario(json.loads(json.dumps(SCENARIO_DOC)))
    assert cfg.seed == 42 and cfg.output_dir == "out"
    assert cfg.ranging.trials == 1000  # default fills in
    assert cfg.beamform.trials == 100000
    assert cfg.phase_center is None
    scen = cfg.ranging_scenario()
    assert scen.seed == 42 and scen.two_way
    assert scen.tones.separation == 5e8
    assert cfg.ranging_scenario(seed=7).seed == 7


def test_parse_scenario_rejects_unknown_keys():
    doc = dict(SCENARIO_DOC)
    doc["extra"] = 1
    with pytest.raises(ValueError, match="extra"):
        parse_scenario(doc)
    doc = json.loads(json.dumps(SCENARIO_DOC))
    doc["ranging"]["snr"] = 20.0
    with pytest.raises(ValueError, match="ranging"):
        parse_scenario(doc)


def test_parse_scenario_missing_required():
    doc = json.loads(json.dumps(SCENARIO_DOC))
    del doc["waveform"]["duration_s"]
    with pytest.raises(ValueError, match="duration_s"):
        parse_scenario(doc)


def test_parse_scenario_rejects_bad_seed():
    assert parse_scenario({"seed": 2**64 - 1}).seed == 2**64 - 1
    for seed in (2.7, -1, 2**64, True, "3"):
        with pytest.raises(ValueError, match="seed"):
            parse_scenario({"seed": seed})


def test_waveform_section_exclusive_tone_spec():
    doc = json.loads(json.dumps(SCENARIO_DOC))
    doc["waveform"]["tone_frequencies_hz"] = [-2.5e8, 2.5e8]
    cfg = parse_scenario(doc)
    with pytest.raises(ValueError):
        cfg.waveform.tone_set()
    del doc["waveform"]["separation_hz"]
    cfg = parse_scenario(doc)
    tones = cfg.waveform.tone_set()
    assert tones.separation == 5e8


def test_scenario_without_sections_rejects_assembly():
    cfg = parse_scenario({"seed": 1})
    with pytest.raises(ValueError):
        cfg.ranging_scenario()


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_scenario(path)
    with pytest.raises(OSError):
        load_scenario(tmp_path / "absent.json")


def test_manifest_contents(tmp_path):
    data = tmp_path / "input.csv"
    data.write_text("a,b\n1,2\n")
    out = tmp_path / "result.csv"
    out.write_text("x\n")
    extra = tmp_path / "result.stats.json"
    extra.write_text("{}\n")
    mpath = write_manifest(
        out,
        command=["rangekit", "s11-bands", "--in", str(data)],
        parameters={"threshold_db": -10.0},
        input_paths=[data],
        extra_outputs=[extra],
    )
    assert mpath == manifest_path_for(out)
    assert mpath.name == "result.manifest.json"
    doc = json.loads(mpath.read_text())
    assert doc["tool"] == "rangekit"
    assert doc["command"][1] == "s11-bands"
    assert doc["inputs"][str(data)] == sha256_of(data)
    assert doc["parameters"]["threshold_db"] == -10.0
    assert doc["outputs"] == [str(out), str(extra)]
    assert "created_utc" in doc

    # identical run differs at most in the timestamp
    write_manifest(out, ["rangekit", "s11-bands", "--in", str(data)],
                   {"threshold_db": -10.0}, [data], [extra])
    doc2 = json.loads(mpath.read_text())
    doc.pop("created_utc")
    doc2.pop("created_utc")
    assert doc == doc2


def test_report_dict_json_safe():
    point = SweepPoint(np.float64(5e8), 20.0, np.float64(1e-3), 1.1e-3, 1.2, np.int64(3))
    doc = report_dict(point)
    assert type(doc["delta_f_hz"]) is float
    assert type(doc["failures"]) is int
    json.dumps(doc)  # must serialize without a custom encoder
