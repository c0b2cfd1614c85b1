"""Touchstone parsing, band extraction and gain statistics tests."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import DIP_SPECS, three_dip_trace
from rangekit.antenna_metrics import (
    SParamTrace,
    find_bands,
    gain_beam_stats,
    load_touchstone,
    write_touchstone,
)
from rangekit.phase_center import FarFieldCut


# 2000 valid rows: a fault after them lies far past the header
LONG = "".join(f"{i} -3 0\n" for i in range(1, 2001))


def write(tmp_path, text, name="t.s1p"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_db_format(tmp_path):
    path = write(tmp_path, "# GHZ S DB R 50\n1.88 -24.70 0\n2.0 -3.0 10\n")
    trace = load_touchstone(path)
    assert_allclose(trace.frequency_hz, [1.88e9, 2.0e9])
    assert_allclose(trace.s11_db, [-24.70, -3.0])


def test_load_ri_and_ma_formats(tmp_path):
    ri = load_touchstone(write(tmp_path, "# HZ S RI R 50\n1.0 0.5 0.0\n2.0 0.0 0.25\n"))
    assert ri.s11_db[0] == pytest.approx(20 * np.log10(0.5), rel=1e-12)
    assert ri.s11_db[1] == pytest.approx(20 * np.log10(0.25), rel=1e-12)
    ma = load_touchstone(write(tmp_path, "# MHZ S MA R 50\n1 0.1 45\n2 1.0 0\n", "m.s1p"))
    assert_allclose(ma.frequency_hz, [1e6, 2e6])
    assert ma.s11_db[0] == pytest.approx(-20.0, rel=1e-12)
    assert ma.s11_db[1] == 0.0


def test_load_defaults_and_comments(tmp_path):
    # no option line -> GHZ S MA R 50; comments stripped
    text = "! swept reflection\n1.0 0.5 0 ! mid row\n2.0 0.25 0\n"
    trace = load_touchstone(write(tmp_path, text))
    assert_allclose(trace.frequency_hz, [1e9, 2e9])
    assert trace.s11_db[0] == pytest.approx(20 * np.log10(0.5))


def test_load_errors(tmp_path):
    with pytest.raises(ValueError):  # non-monotone frequency
        load_touchstone(write(tmp_path, "# GHZ S DB R 50\n2 -3 0\n1 -3 0\n"))
    with pytest.raises(OSError):
        load_touchstone(tmp_path / "missing.s1p")


@pytest.mark.parametrize(
    "text, message",
    [
        ("# GHZ S XX R 50\n1 0.5 0\n2 0.5 0\n", "malformed option line: unknown token 'XX'"),
        ("# GHZ S DB R\n1 -3 0\n2 -3 0\n",
         "malformed option line: R must be followed by a resistance"),
        ("# GHZ Y DB R 50\n1 -3 0\n2 -3 0\n", "only S-parameter files are supported, got Y"),
        ("# GHZ S DB R 50\n# HZ S DB R 50\n1 -3 0\n2 -3 0\n", "multiple option lines"),
        ("# GHZ S DB R 50\n1 -3 0\n2 -3 0\n# HZ S DB R 50\n", "multiple option lines"),
        ("1 -3 0\n# GHZ S DB R 50\n2 -3 0\n", "option line must precede the data"),
        ("# GHZ S DB R 50\n1 -3 0 -20 0 -20 0 -3 0\n",
         "expected one-port rows of 3 columns, got 9 (multi-port data is not supported)"),
        ("# GHZ S DB R 50\n1 -3 0\n2 -3 0 5\n3 -3 0\n",
         "expected one-port rows of 3 columns, got 4 (multi-port data is not supported)"),
        ("# GHZ S DB R 50\n1 -3 0\n2 -3\n", "malformed data row: '2 -3'"),
        ("# GHZ S DB R 50\n1 -3 0\n2 x 0 ! note\n", "malformed data row: '2 x 0 ! note'"),
        ("# GHZ S DB R 50\n1 -3 0\n2 1e 0\n", "malformed data row: '2 1e 0'"),
        # Python's float() takes digit separators, the data block parser does not
        ("# GHZ S DB R 50\n1 -3 0\n2 1_0 0\n", "malformed data block: could not convert"),
        ("# GHZ S DB R 50\n" + LONG + "# HZ S DB R 50\n", "multiple option lines"),
        (LONG + "# HZ S DB R 50\n", "option line must precede the data"),
        ("# GHZ S DB R 50\n" + LONG + "2001 -3 0 x\n",
         "expected one-port rows of 3 columns, got 4 (multi-port data is not supported)"),
        ("# GHZ S DB R 50\n" + LONG + "2001 -3 x\n", "malformed data row: '2001 -3 x'"),
        ("# GHZ S DB R 50\r\n1 -3 0\r\n2 -3", "malformed data row: '2 -3'"),
        ("# GHZ S DB R 50\r\n1 -3 0\r\n2 -3 0\r\n3 -3 y", "malformed data row: '3 -3 y'"),
        ("# GHZ S DB R 50\n", "no data rows in Touchstone file"),
        ("! comments only\n\n", "no data rows in Touchstone file"),
        ("# GHZ S MA R 50\n1 0 0\n2 0.5 0\n",
         "magnitude-angle data requires positive magnitudes"),
        ("# GHZ S RI R 50\n1 0 0\n2 0.5 0\n",
         "real-imaginary data contains a zero-magnitude point"),
        ("# GHZ S DB R 50\n1 -3 0\n", "a trace needs at least 2 points"),
        ("# GHZ S DB R 50\n2 -3 0\n1 -3 0\n", "trace frequencies must be strictly increasing"),
        ("# GHZ S DB R 50\n1 -3 0\n2 nan 0\n", "trace frequencies and S11 values must be finite"),
    ],
)
def test_load_error_messages(tmp_path, text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_touchstone(write(tmp_path, text))


def test_load_blank_lines_comments_and_lower_case_options(tmp_path):
    text = (
        "! header comment\n\n"
        "# mhz s ri r 75 ! trailing option comment\n"
        "   ! indented comment\n"
        "100 0.5 0 ! trailing\n"
        "\n"
        "200\t0.0  0.25\n"
        "   \n"
        "300 0.3 0.4!x\n"
    )
    trace = load_touchstone(write(tmp_path, text))
    assert trace.source_format == "MHZ S RI R 75"
    assert_array_equal(trace.frequency_hz, [100e6, 200e6, 300e6])
    expected = 20.0 * np.log10(np.hypot([0.5, 0.0, 0.3], [0.0, 0.25, 0.4]))
    assert_array_equal(trace.s11_db, expected)


def test_touchstone_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    trace = SParamTrace(
        frequency_hz=np.linspace(1e9, 2e9, 11),
        s11_db=-5.0 - 20.0 * rng.random(11),
    )
    path = tmp_path / "rt.s1p"
    write_touchstone(trace, path)
    back = load_touchstone(path)
    assert np.max(np.abs(back.s11_db - trace.s11_db)) < 1e-9
    assert_allclose(back.frequency_hz, trace.frequency_hz)


def test_trace_validation():
    with pytest.raises(ValueError):
        SParamTrace(np.array([1e9]), np.array([-3.0]))
    with pytest.raises(ValueError):
        SParamTrace(np.array([1e9, 1e9]), np.array([-3.0, -4.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            SParamTrace(np.array([1e9, 2e9, bad]), np.array([-3.0, -4.0, -5.0]))
        with pytest.raises(ValueError, match="finite"):
            SParamTrace(np.array([1e9, 2e9, 3e9]), np.array([-3.0, bad, -5.0]))


def test_find_bands_rejects_non_finite_threshold():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            find_bands(three_dip_trace(), threshold_db=bad)


def test_find_bands_three_dips():
    bands = find_bands(three_dip_trace())
    assert len(bands) == 3
    for band, (fc, s_min, fbw) in zip(bands, DIP_SPECS):
        assert band.f_resonance_hz == fc
        assert band.s11_min_db == s_min
        assert abs(band.fractional_bw - fbw) < 2e-4
        assert not band.truncated
        assert band.f_low_hz <= band.f_resonance_hz <= band.f_high_hz


def test_find_bands_none_below_threshold():
    f = np.linspace(1e9, 2e9, 101)
    trace = SParamTrace(f, -9.0 + 0.1 * np.sin(f / 1e8))
    assert find_bands(trace) == []


def test_find_bands_truncated_at_edge():
    f = np.linspace(1.87e9, 1.89e9, 21)
    s = -24.0 + ((f - 1.88e9) / 5e6) ** 2  # still below -10 at both edges
    bands = find_bands(SParamTrace(f, s))
    assert len(bands) == 1
    assert bands[0].truncated
    assert bands[0].f_low_hz == f[0] and bands[0].f_high_hz == f[-1]


def test_find_bands_threshold_monotonicity():
    trace = three_dip_trace(step_hz=2e6)
    wide = {b.f_resonance_hz: b for b in find_bands(trace, threshold_db=-10.0)}
    narrow = find_bands(trace, threshold_db=-12.0)
    assert len(narrow) <= len(wide)
    for band in narrow:
        ref = wide[band.f_resonance_hz]
        assert band.f_high_hz - band.f_low_hz <= ref.f_high_hz - ref.f_low_hz


def test_find_bands_grid_refinement():
    coarse = find_bands(three_dip_trace(step_hz=2e6))
    fine = find_bands(three_dip_trace(step_hz=1e6))
    for b_fine, b_coarse in zip(fine, coarse):
        ratio_bound = 2e6 / b_fine.f_resonance_hz
        assert abs(b_fine.fractional_bw - b_coarse.fractional_bw) < ratio_bound


def gain_cut(theta, gains):
    return FarFieldCut(0.0, 1.88e9, theta, np.asarray(gains, dtype=float), np.zeros(len(theta)))


def test_gain_stats_constant_pattern():
    stats = gain_beam_stats(gain_cut(np.array([-30.0, 0.0, 30.0]), [3.0, 3.0, 3.0]))
    assert stats.max_gain_db == 3.0 and stats.mean_gain_db == 3.0


def test_gain_stats_peak_sample():
    stats = gain_beam_stats(gain_cut(np.array([-30.0, 0.0, 30.0]), [3.0, 4.8003, 3.0]))
    assert stats.max_gain_db == 4.8003
    assert stats.max_gain_db >= stats.mean_gain_db


def test_gain_stats_triangle_mean():
    theta = np.arange(-30.0, 31.0)
    gains = 6.0 * (1.0 - np.abs(theta) / 30.0)
    stats = gain_beam_stats(gain_cut(theta, gains))
    assert stats.mean_gain_db == pytest.approx(np.mean(gains))  # brute-force oracle
    assert stats.mean_gain_db == pytest.approx(180.0 / 61.0)
    assert abs(stats.mean_gain_db - 3.0) < 0.06


def test_gain_stats_linear_mean_and_region():
    theta = np.arange(-90.0, 91.0)
    gains = np.where(np.abs(theta) <= 30.0, 6.0, -20.0)
    cut = gain_cut(theta, gains)
    db_stats = gain_beam_stats(cut)
    assert db_stats.mean_gain_db == 6.0  # region excludes the floor
    lin = gain_beam_stats(cut, linear_mean=True)
    expected = 10 * np.log10(np.mean(10 ** (gains[np.abs(theta) <= 30.0] / 10.0)))
    assert lin.mean_gain_db == pytest.approx(expected, rel=1e-12)
    assert lin.mean_domain == "linear"
    with pytest.raises(ValueError):
        gain_beam_stats(cut, region=(200.0, 210.0))


@pytest.mark.parametrize("level", [3100.0, -4000.0])
def test_gain_stats_linear_mean_far_from_0_db(level):
    # 10**(g/10) overflows at 3100 dB and underflows to log10(0) at -4000 dB;
    # pyproject.toml makes the RuntimeWarning either would raise an error
    cut = gain_cut(np.array([-30.0, 0.0, 30.0]), [level] * 3)
    assert gain_beam_stats(cut, linear_mean=True).mean_gain_db == level


@pytest.mark.parametrize("level", [1e308, -1e308])
def test_gain_stats_db_mean_near_largest_float(level):
    # the dB samples sum past the largest float; pyproject.toml makes the
    # RuntimeWarning an overflow would print an error
    cut = gain_cut(np.array([-30.0, 0.0, 30.0]), [level] * 3)
    assert gain_beam_stats(cut).mean_gain_db == pytest.approx(level, rel=1e-12)
