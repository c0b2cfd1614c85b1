"""Property tests of the input parsers: every generated input either parses to
what a plain reference reader gives, or is rejected with ValueError (exit 1
and one error line through the CLI).  Touchstone files are also read by a
two-pass reference reader, which must give the same trace or the same error
text.  Scenario JSON goes through the CLI only: exit 0 with finite outputs,
or exit 1 with one error line."""

import csv
import io
import itertools
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from rangekit.antenna_metrics import (
    _FREQ_UNITS,
    SParamTrace,
    _parse_option_line,
    _to_db,
    load_touchstone,
)
from rangekit.cli import MAX_GRID_POINTS, dispatch, parse_grid, parse_region
from rangekit.fileio import FARFIELD_HEADER, load_farfield_cuts, save_farfield_cuts
from rangekit.phase_center import FarFieldCut, point_source_cut

# cell spellings, some of which float() and the csv module read differently
# from np.loadtxt; bad ones mostly come in through the damage step
GOOD = st.sampled_from(["0", "-1.5", "2e1", "-0", " 3", "4 ", '"5"', "1_0"])
BAD = st.sampled_from(["nan", "inf", "-Infinity", "", "x", "  ", "0x1", "1 #2"])
PHIS = st.sampled_from(["0"] * 4 + ["90", "-0", '"0"', "nan"])
FREQS = st.sampled_from(["1e9"] * 4 + ["1.88e9", "1000000000", "-1e9", "inf"])


@st.composite
def farfield_texts(draw):
    """A far-field CSV text: a few groups of rows, then optional damage."""
    rows = []
    for phi, freq in draw(st.lists(st.tuples(PHIS, FREQS), min_size=1, max_size=3)):
        first = draw(st.integers(-3, 3))
        for theta in range(first, first + draw(st.integers(3, 6))):
            rows.append([str(theta), phi, freq, draw(GOOD), draw(GOOD)])
    if draw(st.integers(0, 3)) == 0:  # interleave groups and break theta order
        rows = list(draw(st.permutations(rows)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        action = draw(st.sampled_from(["drop", "add", "quote", "value"]))
        if action == "drop":
            row.pop()
        elif action == "add":
            row.append(draw(GOOD))
        else:
            i = draw(st.integers(0, len(row) - 1))
            row[i] = f'"{row[i]}"' if action == "quote" else draw(st.one_of(GOOD, BAD))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # mostly blank lines, after the header
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([""] * 6 + [" ", "\t", "# note"])))
    header = draw(st.sampled_from([FARFIELD_HEADER] * 4 + ['"theta_deg", phi_deg,frequency_hz,'
                                   'magnitude_db,phase_deg', "theta,phi,freq,mag,phase"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header] + lines) + draw(st.sampled_from([end, ""]))


def reference_cuts(text) -> list:
    """Far-field cuts read with the csv module and itertools.groupby."""
    records = list(csv.reader(io.StringIO(text, newline="")))
    if not records or [h.strip() for h in records[0]] != FARFIELD_HEADER.split(","):
        raise ValueError("header")
    rows = [r for r in records[1:] if r]
    if not rows or any(len(r) != 5 for r in rows):
        raise ValueError("columns")
    values = [[float(v) for v in r] for r in rows]
    if not all(np.isfinite(v[1]) and np.isfinite(v[2]) for v in values):
        raise ValueError("non-finite phi or frequency")
    groups = [(key, list(group)) for key, group in itertools.groupby(values, lambda v: (v[1], v[2]))]
    keys = [key for key, _ in groups]
    if len(set(keys)) != len(keys):
        raise ValueError("a group appears twice")
    cuts = []
    for (phi, freq), group in groups:
        arr = np.array(group)
        cuts.append(FarFieldCut(phi, freq, arr[:, 0], arr[:, 3], arr[:, 4]))
    return cuts


@settings(max_examples=300, deadline=None)
@given(text=farfield_texts())
def test_farfield_reader_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_farfield.csv"
    path.write_bytes(text.encode())
    try:
        expected = reference_cuts(text)
    except ValueError:
        expected = None
    if expected is None:
        try:
            load_farfield_cuts(path)
        except ValueError:
            return
        raise AssertionError(f"accepted a file the reference rejects: {text!r}")
    cuts = load_farfield_cuts(path)
    assert [(c.phi_cut_deg, c.frequency_hz) for c in cuts] == [
        (c.phi_cut_deg, c.frequency_hz) for c in expected
    ]
    for got, want in zip(cuts, expected):
        assert_array_equal(got.theta_deg, want.theta_deg)
        assert_array_equal(got.magnitude_db, want.magnitude_db)
        assert_array_equal(got.phase_deg, want.phase_deg)


# number spellings float() reads, and some it does not
NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0", "-0", "1e16", "1.0000000000000002e16", "1e308", "-1e308", "5e-324",
                     " 1", "1_0", "nan", "inf", "-Infinity", "", "x", "0x1", "1e999"]),
)


@st.composite
def grid_texts(draw):
    """'start:step:stop' strings, often with a step near the float spacing of start."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.text(max_size=12))
    if kind == 1:
        return ":".join(draw(st.lists(NUMBER, min_size=1, max_size=4)))
    start = draw(st.floats(allow_nan=False, allow_infinity=False))
    if kind == 2:
        step = math.ulp(start) * draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
    else:
        step = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    stop = start + step * draw(st.integers(0, 6))
    return f"{start!r}:{step!r}:{stop!r}"


REGION_TEXTS = st.one_of(st.text(max_size=12), st.lists(NUMBER, min_size=1, max_size=3).map(":".join))


def run_cli(argv):
    """Exit code and the ``rangekit: error:`` lines of one in-process CLI call."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = dispatch(argv)
    return code, [line for line in err.getvalue().splitlines() if line.startswith("rangekit: error:")]


def parse_error(parse, text):
    try:
        parse(text)
    except ValueError as exc:
        return f"rangekit: error: {exc}"
    return None


@settings(max_examples=400, deadline=None)
@given(text=grid_texts())
@example("1e16:1:1.0000000000000002e16")  # the step rounds away at 1e16: a repeated point
@example("-1.7e308:1e308:1.7e308")  # the span overflows a float
@example("0:1e-9:1")
def test_parse_grid_is_finite_and_increasing_or_rejected(text):
    try:
        grid = parse_grid(text)
    except ValueError:
        return
    assert grid.ndim == 1 and 1 <= len(grid) <= MAX_GRID_POINTS
    assert np.all(np.isfinite(grid))
    assert np.all(np.diff(grid) > 0)


@settings(max_examples=150, deadline=None)
@given(text=grid_texts())
@example("1e16:1:1.0000000000000002e16")
def test_grid_through_cli_fails_with_one_error_line(tmp_path_factory, text):
    # --snr is never valid, so the call exits 1 without simulating; a bad
    # --delta-f must be the error it reports
    out = tmp_path_factory.getbasetemp() / "fuzz_sweep.csv"
    code, errors = run_cli(["sweep", f"--delta-f={text}", "--snr=:", "--out", str(out), "-q"])
    assert code == 1 and len(errors) == 1
    expected = parse_error(parse_grid, text)
    assert errors[0] == (expected or parse_error(parse_grid, ":"))
    assert not out.exists()


@settings(max_examples=300, deadline=None)
@given(text=REGION_TEXTS)
def test_parse_region_is_finite_and_increasing_or_rejected(text):
    try:
        lo, hi = parse_region(text)
    except ValueError:
        return
    assert np.isfinite(lo) and np.isfinite(hi) and lo < hi


@pytest.fixture(scope="module")
def cut_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("region") / "cut.csv"
    save_farfield_cuts(point_source_cut(0.0, 0.001, 1.88e9, np.arange(-60.0, 61.0)), path)
    return path


@settings(max_examples=150, deadline=None)
@given(text=REGION_TEXTS)
def test_region_through_cli_exits_cleanly(cut_path, text):
    code, errors = run_cli(["gain-stats", "--cut", str(cut_path), f"--region={text}", "-q"])
    expected = parse_error(parse_region, text)
    if expected is not None:
        assert code == 1 and errors == [expected]
    else:
        assert (code, len(errors)) in ((0, 0), (1, 1))


def run_clean(argv) -> tuple:
    """Exit code and stdout of one in-process CLI call that raised no warning
    and wrote nothing to stderr but, on exit 1, one ``rangekit: error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), redirect_stdout(out):
        warnings.simplefilter("always")
        code = dispatch(argv)
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
        return code, out.getvalue()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("rangekit: error: "), lines
    assert out.getvalue() == ""
    return code, ""


def reject_constant(name):
    raise AssertionError(f"non-finite {name} in a report")


def assert_finite_report(text):
    """Every number in the JSON report ``text`` is finite."""
    assert text
    json.loads(text, parse_constant=reject_constant)


# Touchstone option lines, each with the S11 values its format takes; damage
# brings in cells that float() and np.loadtxt read differently or not at all,
# and option lines that are malformed, repeated or placed after the data
OPTIONS = st.sampled_from([
    ("# HZ S DB R 50", st.floats(-40.0, 2.0)),
    ("# GHZ S DB", st.floats(-40.0, 2.0)),
    ("# MHZ S MA R 50", st.floats(0.005, 1.5)),
    ("", st.floats(0.005, 1.5)),  # no option line: GHZ S MA R 50
    ("# khz s ri ! lower case", st.floats(-1.0, 1.0)),
])
TS_NUMBER = st.sampled_from(["0", "-0", "1e308", "5e-324", "nan", "inf", "1_0", "x", "0x1",
                             "1e999"])
BAD_OPTIONS = st.sampled_from(["#", "# R", "# R x", "# GHZ Z MA", "# GHZ S XX", "# HZ S DB R 50"])


@st.composite
def touchstone_texts(draw):
    """A one-port Touchstone text: comments, an option line and rows, then optional damage."""
    option, values = draw(OPTIONS)
    lines = draw(st.lists(st.sampled_from(["! comment", "", "  ! indented"]), max_size=2))
    lines.append(option)
    start = draw(st.sampled_from([1.0, 1e3, 1.5e9, 0.0, -2.0]))
    step = draw(st.sampled_from([1.0, 0.25, 1e6]))
    for i in range(draw(st.integers(2, 12))):
        lines.append(f"{start + i * step!r} {draw(values)!r} {draw(values)!r}")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split()
        action = draw(st.sampled_from(["drop", "add", "cell", "comment", "option", "tab", "swap"]))
        if action == "option":
            lines.insert(draw(st.integers(0, len(lines))), draw(BAD_OPTIONS))
        elif action == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif cells:
            if action == "drop":
                cells.pop()
            elif action == "add":
                cells.append(draw(TS_NUMBER))
            elif action == "cell":
                cells[draw(st.integers(0, len(cells) - 1))] = draw(TS_NUMBER)
            elif action == "comment":
                cells.append("! trailing")
            lines[i] = ("\t" if action == "tab" else " ").join(cells)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def reference_touchstone(path):
    """A Touchstone trace read in two passes: the per-line rules over the
    header, one np.loadtxt over the data, and the per-line rules over every
    line again only when loadtxt refuses the data."""
    def check_lines(lines, header_only=False):
        option, first_row = None, len(lines)
        for i, raw in enumerate(lines):
            line = raw.split("!", 1)[0].strip()
            if not line:
                continue
            if line.startswith("#"):
                if option is not None:
                    raise ValueError("multiple option lines")
                if first_row < i:
                    raise ValueError("option line must precede the data")
                option = _parse_option_line(line[1:].split())
                continue
            first_row = min(first_row, i)
            if header_only:
                break
            values = line.split()
            if len(values) != 3:
                if len(values) > 3:
                    raise ValueError(
                        f"expected one-port rows of 3 columns, got {len(values)} "
                        "(multi-port data is not supported)"
                    )
                raise ValueError(f"malformed data row: {raw.strip()!r}")
            try:
                for v in values:
                    float(v)
            except ValueError:
                raise ValueError(f"malformed data row: {raw.strip()!r}")
        return option, first_row

    with open(path) as fh:
        lines = fh.readlines()
    option, first_row = check_lines(lines, header_only=True)
    if first_row == len(lines):
        raise ValueError("no data rows in Touchstone file")
    try:
        data = np.loadtxt(lines[first_row:], comments="!", ndmin=2)
        if data.shape[1] != 3:
            raise ValueError(f"{data.shape[1]} columns")
    except ValueError as exc:
        check_lines(lines)
        raise ValueError(f"malformed data block: {exc}") from None
    unit, parameter, fmt, resistance = option or _parse_option_line(())
    with np.errstate(over="ignore"):
        freq = data[:, 0] * _FREQ_UNITS[unit]
    return SParamTrace(freq, _to_db(fmt, data[:, 1], data[:, 2]),
                       f"{unit} {parameter} {fmt} R {resistance:g}")


def read_or_error(read, path):
    """``read(path)``, or the text of the ValueError it raises."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def assert_same_trace_or_error(path):
    """load_touchstone and the reference give the same trace, or the same error text."""
    got, want = read_or_error(load_touchstone, path), read_or_error(reference_touchstone, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.source_format == want.source_format
        assert got.frequency_hz.tobytes() == want.frequency_hz.tobytes()
        assert got.s11_db.tobytes() == want.s11_db.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=touchstone_texts())
@example("! c\r\n# HZ S DB R 50\r\n1 -3 0\r\n2 -4 0\r\n")  # CRLF line endings
@example("# HZ S DB R 50\n! note\n\n  ! indented\n1 -3 0\n2 -4 0\n")  # lines before the data
# float() takes 1_0 and np.loadtxt does not; the row number in the message
# counts from the first data row, past the skipped comment and blank lines
@example("! c\n# HZ S DB R 50\n\n! note\n1 -3 0\n2 1_0 0\n")
def test_touchstone_reader_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_reference.s1p"
    path.write_bytes(text.encode())
    assert_same_trace_or_error(path)


def test_touchstone_reader_matches_reference_on_a_long_sweep(tmp_path):
    rng = np.random.default_rng(5)
    freq = np.linspace(1e9, 11e9, 10001).tolist()
    mag, angle = rng.uniform(0.01, 1.0, 10001).tolist(), rng.uniform(-180, 180, 10001).tolist()
    path = tmp_path / "long.s1p"
    path.write_text("! 10001-point sweep\n# HZ S MA R 50\n"
                    + "".join(f"{f!r} {m!r} {a!r}\n" for f, m, a in zip(freq, mag, angle)))
    assert len(load_touchstone(path).frequency_hz) == 10001
    assert_same_trace_or_error(path)


@settings(max_examples=300, deadline=None)
@given(text=touchstone_texts())
@example("# HZ S DB R 50\n0 -20 0\n1 -5 0\n")  # a band whose resonance sits at 0 Hz
@example("# GHZ S DB\n1e308 -20 0\n2e308 -5 0\n")  # frequencies overflow in Hz
def test_touchstone_through_cli_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.s1p"
    path.write_bytes(text.encode())
    code, out = run_clean(["s11-bands", "--in", str(path)])
    if code == 0:
        assert_finite_report(out)


# scenario values: sizes stay small, so every accepted scenario runs in
# milliseconds; BAD_VALUES break a field's type or range, and an integer past
# int64 goes only into fields that do not size an array or a loop
BAD_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -1, 0, -0.5,
                              True, None, "x", [], {}, [1.0, "x"]])
SIZE_KEYS = {"duration_s", "sample_rate_hz", "trials", "n_nodes"}
TONE_HZ = st.sampled_from([2e8, 5e8, 7e8, 1e9, 1.9e9, 0.0, -5e8, 2**64])
SECTIONS = {
    "waveform": {
        "duration_s": st.sampled_from([2.5e-7, 1e-6, 1e-9]),
        "sample_rate_hz": st.sampled_from([4e9, 2e9, 1e9]),
    },
    "ranging": {
        "snr_db": st.sampled_from([25.0, 0.0, -10.0, 60.0, 300.0, 1e5, -1e5]),
        "true_delay_s": st.sampled_from([5e-10, 0.0, 1e-10, 1.99e-9, -1e-9, 1e300]),
        "two_way": st.booleans(),
        "trials": st.sampled_from([1, 20]),
    },
    "beamform": {
        "n_nodes": st.sampled_from([2, 10, 1]),
        "f_action_hz": st.sampled_from([1.88e9, 1.0, 1e15]),
        "sigma_range_m": st.sampled_from([0.004, 0.0, 1e3, 1e300]),
        "trials": st.sampled_from([1, 50]),
    },
}


@st.composite
def scenario_docs(draw):
    """A scenario document with some of its sections, then optional damage."""
    doc = {"seed": draw(st.sampled_from([0, 3, 2**64 - 1]))}
    for name, fields in SECTIONS.items():
        if draw(st.sampled_from([True] * 4 + [False])):
            doc[name] = {key: draw(value) for key, value in fields.items()}
    wf = doc.get("waveform")
    if wf is not None and draw(st.booleans()):
        wf["separation_hz"] = draw(st.sampled_from([5e8, 1e9, 2e8, 3e9]))
    elif wf is not None:
        n = draw(st.integers(1, 3))
        tones = st.lists(TONE_HZ, min_size=n, max_size=n, unique=True)
        wf["tone_frequencies_hz"] = sorted(draw(tones))
        for key, values in (("tone_amplitudes", [1.0, 0.5, 0.0]), ("tone_phases_rad", [0.0, -3.0])):
            if draw(st.booleans()):
                wf[key] = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if not doc:  # a drop took its only key; nothing is left to damage
            break
        name = draw(st.sampled_from(sorted(doc)))
        target = doc[name] if isinstance(doc[name], dict) and draw(st.integers(0, 4)) else doc
        key = name if target is doc else draw(st.sampled_from(sorted(target) or ["unknown"]))
        action = draw(st.sampled_from(["value", "value", "drop", "unknown"]))
        if action == "value":
            bad = BAD_VALUES if key in SIZE_KEYS else st.one_of(BAD_VALUES, st.just(2**64))
            target[key] = draw(bad)
        elif action == "drop":
            target.pop(key, None)
        else:
            target["unknown"] = 1
    return draw(st.sampled_from([doc] * 19 + [draw(BAD_VALUES)]))


@settings(max_examples=300, deadline=None)
@given(doc=scenario_docs(), command=st.sampled_from(["waveform", "range-sim", "coherence"]))
@example(doc={"waveform": {"duration_s": 1e-6, "sample_rate_hz": 4e9, "separation_hz": 5e8},
              "ranging": {"snr_db": 25.0, "true_delay_s": 5e-10}}, command="range-sim")
@example(doc={"waveform": {"duration_s": 1e-6, "sample_rate_hz": 4e9, "separation_hz": 5e8},
              "ranging": {"snr_db": 1e5, "true_delay_s": 5e-10}}, command="range-sim")
@example(doc={"waveform": {"duration_s": 1e-6, "sample_rate_hz": 4e9,
                           "tone_frequencies_hz": [0.0, 2**64]}}, command="waveform")
@example(doc={"beamform": {"n_nodes": 2, "f_action_hz": 1.0, "sigma_range_m": 1e300}},
         command="coherence")  # sigma_phi**2 overflows
@example(doc={"beamform": {"n_nodes": 2, "f_action_hz": 2**64, "sigma_range_m": 1e300}},
         command="coherence")  # sigma_phi overflows
def test_scenario_through_cli_exits_cleanly(tmp_path_factory, doc, command):
    path = tmp_path_factory.getbasetemp() / "fuzz_scenario.json"
    path.write_text(json.dumps(doc))
    # a scenario's trial counts are checked but kept small here, so
    # coherence's default 100000 trials do not slow every example
    trials = [] if command == "waveform" else ["--trials", "20"]
    code, out = run_clean([command, "--scenario", str(path), *trials])
    if code == 0:
        assert_finite_report(out)
