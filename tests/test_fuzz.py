"""Property tests of the input parsers: every generated file either parses to
what a plain reference reader gives, or is rejected with ValueError."""

import csv
import io
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from rangekit.fileio import FARFIELD_HEADER, load_farfield_cuts
from rangekit.phase_center import FarFieldCut

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
