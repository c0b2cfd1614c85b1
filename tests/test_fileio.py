"""File format tests: far-field CSV, plot CSVs, scenario JSON, manifests."""

import json
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rangekit.antenna_metrics import BandMetrics
from rangekit.beamform import CoherentGainReport
from rangekit.fileio import (
    BANDS_HEADER,
    COHERENCE_GRID_HEADER,
    DISPLACEMENT_HEADER,
    FARFIELD_HEADER,
    SPECTRUM_HEADER,
    SWEEP_HEADER,
    dump_json,
    fmt_float,
    load_farfield_cuts,
    load_scenario,
    manifest_path_for,
    parse_scenario,
    save_farfield_cuts,
    sha256_of,
    write_bands_csv,
    write_coherence_grid_csv,
    write_displacement_csv,
    write_manifest,
    write_spectrum_csv,
    write_sweep_csv,
)
from rangekit.phase_center import DisplacementSeries, FarFieldCut
from rangekit.waveform import SpectrumModel


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

    # the 1 GHz group resumes after the 2 GHz one; theta still increases across its rows
    interleaved = tmp_path / "interleaved.csv"
    interleaved.write_text(
        FARFIELD_HEADER + "\n"
        "0,0,1e9,0,0\n1,0,1e9,0,0\n"
        "0,0,2e9,0,0\n1,0,2e9,0,0\n2,0,2e9,0,0\n"
        "2,0,1e9,0,0\n"
    )
    with pytest.raises(ValueError, match="appear together"):
        load_farfield_cuts(interleaved)

    for bad_row in ("nan,0,1e9,0,0", "1,0,inf,0,0", "1,nan,1e9,0,0", "1,0,1e9,-inf,0",
                    "1,0,1e9,0,nan"):
        non_finite = tmp_path / "non_finite.csv"
        non_finite.write_text(f"{FARFIELD_HEADER}\n0,0,1e9,0,0\n{bad_row}\n2,0,1e9,0,0\n")
        with pytest.raises(ValueError, match="finite"):
            load_farfield_cuts(non_finite)


GOOD_ROWS = "0,0,1e9,0,0\n1,0,1e9,0,0\n2,0,1e9,0,0\n"
# float() reads 1_0 and np.loadtxt does not, so files with these rows take the csv path
CSV_ROWS = "0,0,1e9,0,0\n1_0,0,1e9,0,0\n20,0,1e9,0,0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty far-field file"),
        ("theta,phi,freq,mag,phase\n0,0,1e9,0,0\n",
         "unexpected far-field header: 'theta,phi,freq,mag,phase'"),
        ("\n" + FARFIELD_HEADER + "\n", "unexpected far-field header: ''"),
        (FARFIELD_HEADER + "\n", "far-field file contains no data rows"),
        (FARFIELD_HEADER + "\n\n\n", "far-field file contains no data rows"),
        (FARFIELD_HEADER + "\n0,0,1e9,0\n",
         "far-field row must have 5 columns: ['0', '0', '1e9', '0']"),
        (FARFIELD_HEADER + "\n" + GOOD_ROWS + "3,0,1e9,0,0,\n",
         "far-field row must have 5 columns: ['3', '0', '1e9', '0', '0', '']"),
        (FARFIELD_HEADER + "\n" + GOOD_ROWS + "   \n",
         "far-field row must have 5 columns: ['   ']"),
        (FARFIELD_HEADER + "\n" + GOOD_ROWS + "# note\n",
         "far-field row must have 5 columns: ['# note']"),
        (FARFIELD_HEADER + "\n" + GOOD_ROWS + "3,0,1e9,x,0\n",
         "could not convert string to float: 'x'"),
        (FARFIELD_HEADER + "\n" + GOOD_ROWS + "3,0,1e9,,0\n",
         "could not convert string to float: ''"),
        (FARFIELD_HEADER + "\n" + GOOD_ROWS + "3,nan,1e9,0,0\n",
         "far-field phi and frequency must be finite: ['3', 'nan', '1e9', '0', '0']"),
        (FARFIELD_HEADER + "\n" + GOOD_ROWS + "3,0,-inf,0,0\n",
         "far-field phi and frequency must be finite: ['3', '0', '-inf', '0', '0']"),
        (FARFIELD_HEADER + "\n" + GOOD_ROWS + "0,0,2e9,0,0\n3,0,1e9,0,0\n",
         "far-field rows of one group must appear together: ['3', '0', '1e9', '0', '0']"),
        (FARFIELD_HEADER + "\n" + GOOD_ROWS + "3,0,1e9,nan,0\n",
         "far-field cut magnitude_db must be finite"),
        (FARFIELD_HEADER + "\n2,0,1e9,0,0\n1,0,1e9,0,0\n3,0,1e9,0,0\n",
         "theta samples must be strictly increasing"),
        (FARFIELD_HEADER + "\n0,0,1e9,0,0\n1,0,1e9,0,0\n",
         "a far-field cut needs at least 3 samples"),
        (FARFIELD_HEADER + "\n" + GOOD_ROWS.replace("1e9", "-1e9"),
         "cut frequency must be positive"),
        (FARFIELD_HEADER + "\n" + CSV_ROWS + "3_0,0,1e9,0\n",
         "far-field row must have 5 columns: ['3_0', '0', '1e9', '0']"),
        (FARFIELD_HEADER + "\n" + CSV_ROWS + "1,nan,1e9,0,0\n",
         "far-field phi and frequency must be finite: ['1', 'nan', '1e9', '0', '0']"),
        (FARFIELD_HEADER + "\n" + CSV_ROWS + "0,0,2e9,0,0\n1,0,2e9,0,0\n2,0,2e9,0,0\n3_0,0,1e9,0,0\n",
         "far-field rows of one group must appear together: ['3_0', '0', '1e9', '0', '0']"),
        # the column rule holds for the whole file before a group rule is applied
        (FARFIELD_HEADER + "\n0,0,1e9,0,0\n1,nan,1e9,0,0\n2,0,1e9,0\n",
         "far-field row must have 5 columns: ['2', '0', '1e9', '0']"),
    ],
    ids=["empty", "header", "blank-header", "no-rows", "blank-rows", "short-row",
         "long-row", "blank-cells-row", "comment-row", "not-a-number", "empty-cell", "nan-phi",
         "inf-frequency", "interleaved", "nan-magnitude", "theta-order", "too-few",
         "negative-frequency", "csv-short-row", "csv-nan-phi", "csv-interleaved",
         "columns-before-groups"],
)
def test_farfield_load_error_messages(tmp_path, text, message):
    path = tmp_path / "cut.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_farfield_cuts(path)


def test_farfield_load_quoted_blank_and_crlf(tmp_path):
    path = tmp_path / "cut.csv"
    path.write_bytes(
        b'"theta_deg", phi_deg,frequency_hz,magnitude_db,phase_deg\r\n'
        b'\r\n"0",0,1e9,-1.5,10\r\n1,0,"1e9",-2.5, 20\r\n\r\n2,0,1e9,-3.5,"30"\r\n'
        b'0,90,1e9,0,0\n1,90,1e9,0,0\n1_5,90,1e9,0,0\n'  # float() reads 1_5, loadtxt does not
    )
    a, b = load_farfield_cuts(path)
    assert (a.phi_cut_deg, a.frequency_hz, b.phi_cut_deg) == (0.0, 1e9, 90.0)
    assert_array_equal(a.theta_deg, [0.0, 1.0, 2.0])
    assert_array_equal(a.magnitude_db, [-1.5, -2.5, -3.5])
    assert_array_equal(a.phase_deg, [10.0, 20.0, 30.0])
    assert_array_equal(b.theta_deg, [0.0, 1.0, 15.0])


@pytest.mark.parametrize("magnitude", ["-1.5", "1_5"])  # 1_5: the csv module reads the rows
def test_farfield_load_skips_utf8_byte_order_mark(tmp_path, magnitude):
    # many Windows exporters start a UTF-8 file with a byte-order mark
    text = f"{FARFIELD_HEADER}\r\n0,0,1e9,{magnitude},10\r\n1,0,1e9,-2.5,20\r\n2,0,1e9,-3.5,30\r\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    (want,), (got,) = load_farfield_cuts(plain), load_farfield_cuts(marked)
    assert (got.phi_cut_deg, got.frequency_hz) == (want.phi_cut_deg, want.frequency_hz)
    for name in ("theta_deg", "magnitude_db", "phase_deg"):
        assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize(
    "writer, data, header, row",
    [
        (
            save_farfield_cuts,
            # integer phi and frequency are stored, and so written, as floats
            FarFieldCut(90, 9560000000, [-1.5, 0.0, 2.0], [3.0, 4.0, 5.0], [-10.0, 0.0, 10.0]),
            FARFIELD_HEADER,
            "-1.5,90.0,9560000000.0,3.0,-10.0",
        ),
        (
            write_spectrum_csv,
            SpectrumModel(frequencies=[-5e8, 0.0], energy_density=[1e-9, 0.0]),
            SPECTRUM_HEADER,
            "-500000000.0,1e-09",
        ),
        (
            write_displacement_csv,
            DisplacementSeries([0.5], [0.0], [5e-3]),
            DISPLACEMENT_HEADER,
            "0.5,0.0,0.005",
        ),
        (
            write_bands_csv,
            [BandMetrics(1.88e9, -24.7, 1.87e9, 1.89e9, 0.0106)],
            BANDS_HEADER,
            "1880000000.0,-24.7,1870000000.0,1890000000.0,0.0106",
        ),
        (
            write_sweep_csv,
            [(5e8, 20.0, 1e-3, 1.1e-3, 1.2, np.int64(3))],
            SWEEP_HEADER,
            "500000000.0,20.0,0.001,0.0011,1.2,3",
        ),
        (
            write_coherence_grid_csv,
            [(np.float64(0.004), 0.25, CoherentGainReport(0.98, 0.975, 1.0, 0.002))],
            COHERENCE_GRID_HEADER,
            "0.004,0.25,0.98,0.975,1.0,0.002",
        ),
    ],
    ids=["farfield", "spectrum", "displacement", "bands", "sweep", "coherence-grid"],
)
def test_csv_writer_bytes(tmp_path, writer, data, header, row):
    path = tmp_path / "out.csv"
    writer(data, path)
    assert path.read_bytes().startswith(f"{header}\n{row}\n".encode())
    if writer is write_bands_csv:  # a sweep may have no band: the header alone
        writer([], tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == f"{header}\n".encode()
    elif isinstance(data, list):  # every other list-taking writer refuses an empty list
        with pytest.raises(ValueError):
            writer([], tmp_path / "empty.csv")


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
    doc = json.loads(json.dumps(SCENARIO_DOC))
    doc["phase_center"] = {"window_deg": 10.0}
    with pytest.raises(ValueError, match="phase_center"):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("ranging", "trials", "10"),
        ("ranging", "trials", 10.0),
        ("ranging", "trials", None),
        ("ranging", "two_way", "no"),
        ("ranging", "two_way", 1),
        ("ranging", "snr_db", float("nan")),
        ("ranging", "snr_db", True),
        ("ranging", "true_delay_s", "5e-10"),
        ("waveform", "sample_rate_hz", float("inf")),
        ("waveform", "duration_s", 10**400),
        ("waveform", "tone_amplitudes", [1.0, float("nan")]),
        ("waveform", "tone_phases_rad", 0.0),
        ("beamform", "n_nodes", True),
        ("beamform", "sigma_range_m", -float("inf")),
        (None, "output_dir", 5),
    ],
)
def test_parse_scenario_rejects_bad_field_types(section, key, value):
    doc = json.loads(json.dumps(SCENARIO_DOC))
    (doc if section is None else doc[section])[key] = value
    with pytest.raises(ValueError, match=key):
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


def test_load_scenario_skips_utf8_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(json.dumps(SCENARIO_DOC))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_scenario(marked) == load_scenario(plain) == parse_scenario(SCENARIO_DOC)


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_scenario(path)
    for text in ("[" * 100000, '{"seed": 1, "waveform": {', b"\xff{}"):
        write = path.write_bytes if isinstance(text, bytes) else path.write_text
        write(text)
        with pytest.raises(ValueError, match="^scenario file is not valid JSON: "):
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
    assert mpath.name == "result.csv.manifest.json"
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


def test_dump_json_rejects_non_finite(tmp_path):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            dump_json({"x": bad}, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()  # nothing half-written
