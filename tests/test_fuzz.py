"""Property tests of the input parsers: every generated input either parses to
what a plain reference reader gives, or is rejected with ValueError (exit 1
and one error line through the CLI)."""

import csv
import io
import itertools
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

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
