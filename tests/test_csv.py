"""CSV point files: the loaders against a plain-Python reader of the grammar,
and the writers against ``csv.writer``.

The grammar (README, "Point files"): UTF-8 text; lines end in LF, CRLF or
CR; blank lines and lines of only ASCII whitespace and commas are skipped;
a leading byte order mark is dropped; the first remaining line is a header
when its first cell does not begin like a number (an optional sign, then a
digit or '.');
a cell is an optional sign and ASCII digits inside int64, with whitespace
(``str.isspace``) around it.  With ``labeled``, the last column is a label in {-1, 1}.  A
fault names the first line that has one; within a line the checks run in
the order ragged row, non-integer cell, bad label, coordinate outside int64,
zero point.
"""

import csv
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdc.dataset import (
    CSV_WRITE_ROWS,
    LabeledDataset,
    PointSet,
    load_labeled,
    load_points,
    save_labeled_csv,
    save_points_csv,
)
from fdc.errors import FdcError, NonInteger, ParseError, ZeroPoint

INT64 = (-(2 ** 63), 2 ** 63 - 1)
ASCII_BLANK = " \t\x0b\x0c\x1c\x1d\x1e\x1f,"
INTEGER = r"[+-]?[0-9]+"
NUMERIC_START = r"[+-]?[\d.]"


def reference_load(text, labeled):
    """(X, y) as lists, or (error class, line), by the grammar above."""
    lines = re.split(r"\r\n|\r|\n", text.removeprefix("\ufeff"))
    rows = [(n, line) for n, line in enumerate(lines, start=1) if line.strip(ASCII_BLANK)]
    if rows and not re.match(NUMERIC_START, rows[0][1].split(",")[0].strip()):
        rows = rows[1:]
    if not rows:
        return ParseError, None
    width = None
    X, y = [], []
    for n, line in rows:
        cells = [c.strip() for c in line.split(",")]
        if width is None:
            width = len(cells)
            if labeled and width < 2:
                return ParseError, n
        if len(cells) != width:
            return ParseError, n
        if not all(re.fullmatch(INTEGER, c) for c in cells):
            return NonInteger, n
        vals = [int(c) for c in cells]
        if labeled:
            if vals[-1] not in (-1, 1):
                return ParseError, n
            y.append(vals.pop())
        if not all(INT64[0] <= v <= INT64[1] for v in vals):
            return ParseError, n
        if not any(vals):
            return ZeroPoint, n
        X.append(vals)
    return X, y


def loader_result(path, labeled):
    """What the fdc loader gives, in reference_load's form."""
    try:
        if labeled:
            ds = load_labeled(path)
            return ds.base.points, ds.labels
        return load_points(path).points, None
    except FdcError as exc:
        return type(exc), exc.line


EDGE = [2 ** 63 - 1, -(2 ** 63), 2 ** 62, -(2 ** 62)]
BAD_TOKENS = ["", "1.5", "x", "1e3", "--1", "+", "0x10", "1 2",
              str(2 ** 63), str(-(2 ** 63) - 1), str(2 ** 64), str(-(2 ** 70))]
PAD = st.text(alphabet=" \t\x0c\xa0\u3000", max_size=2)


@st.composite
def cell(draw, fault_rate):
    if draw(st.integers(0, 99)) < fault_rate:
        token = draw(st.sampled_from(BAD_TOKENS))
    else:
        pick = draw(st.integers(0, 9))
        v = draw(st.sampled_from(EDGE) if pick == 0 else
                 st.integers(*INT64) if pick == 1 else st.integers(-3, 3))
        token = ("+" if v >= 0 and draw(st.booleans()) else "") + str(v)
    return draw(PAD) + token + draw(PAD)


@st.composite
def csv_file(draw):
    """A small CSV text built from the grammar's ingredients and faults."""
    width = draw(st.integers(1, 4))
    fault_rate = draw(st.sampled_from([0, 2, 10]))
    blank = st.sampled_from(["", " ", "\t", ",,", " , ", ",\t", "\x0b,", "\u3000"])
    lines = [draw(blank)] if draw(st.booleans()) else []
    if draw(st.booleans()):
        lines.append(",".join(f"x{i}" for i in range(width)))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(blank))
        elif kind == 1 and fault_rate:  # ragged
            lines.append(",".join(draw(st.lists(cell(0), min_size=1, max_size=5))))
        elif kind == 2:  # zero point, then a label
            lines.append(",".join(["0"] * (width - 1) + [draw(st.sampled_from(["1", "-1"]))]))
        else:
            cells = [draw(cell(fault_rate)) for _ in range(width - 1)]
            bad_label = draw(st.integers(0, 99)) < fault_rate
            label = draw(st.sampled_from(["0", "2", "-2", "x"] if bad_label else
                                         ["1", "-1", " -1", "+1\t"]))
            lines.append(",".join(cells + [label]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text[:-len(ends[-1])]
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


@settings(max_examples=300, deadline=None)
@given(csv_file())
def test_loaders_match_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pts.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        for labeled in (False, True):
            want = reference_load(text, labeled)
            got = loader_result(path, labeled)
            if isinstance(want[0], type):
                assert got == want, (labeled, text)
            else:
                assert not isinstance(got[0], type), (labeled, text, got)
                X = np.array(want[0], dtype=np.int64).reshape(len(want[0]), -1)
                np.testing.assert_array_equal(got[0], X)
                assert got[0].dtype == np.int64
                if labeled:
                    np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_non_utf8_byte_names_its_line(tmp_path, end):
    p = tmp_path / "pts.csv"
    p.write_bytes(f"1,2{end}".encode() + b"\xff\xfe,3" + end.encode())
    with pytest.raises(ParseError, match="UTF-8") as ei:
        load_points(p)
    assert ei.value.line == 2


@pytest.mark.parametrize("text, error, line", [
    ("x,y\n1_000,2\n", NonInteger, 2),      # int() accepts underscores
    ("1,2\n١,2\n", NonInteger, 2),      # and non-ASCII digits
    ("1_000,2\n", NonInteger, 1),            # not taken for a header
    ('"1",2\n"3" ,"4"\n', None, None),       # quoted cells
    ('1,2\n3, "4"\n', NonInteger, 2),        # a quote after a space is a character
    ("1,2\n3,4,\n", ParseError, 2),          # a trailing comma makes a third cell
    ("1,2\n3,\n", NonInteger, 2),
    ("1,2\n" + "9" * 200_000 + ",1\n", ParseError, 2),  # beyond csv's field limit
    ("9" * 200_000 + ",1\n", ParseError, 1),            # and not taken for a header
    ("1,2\n" + "9" * 5000 + ",1\n", ParseError, 2),    # beyond int()'s 4300 digits
    ("9" * 5000 + ",1\n1,2\n", ParseError, 1),         # and not taken for a header
    ("1,2\n+" + "0" * 5000 + "3,4\n", None, None),    # leading zeros do not count
    ("1\xa0,2\n3,\u3000\x0c4\n", None, None),         # str.isspace around a cell
    ("1,2\n\u3000,\n", NonInteger, 2),                # but a line of it is not blank
    ("1.5,2\n3,4\n", NonInteger, 1),                   # begins like a number: no header
    ("1e3,2\n3,4\n", NonInteger, 1),
    ("x0,x1\n1,2\n3,4\n", None, None),                # a header
    ("\ufeff1,2\n3,4\n", None, None),                  # a byte order mark is dropped
    ("\ufeffx,y\n1,2\n3,4\n", None, None),
])
def test_cell_grammar(tmp_path, text, error, line):
    p = tmp_path / "pts.csv"
    p.write_text(text, encoding="utf-8")
    if error is None:
        np.testing.assert_array_equal(load_points(p).points, [[1, 2], [3, 4]])
        return
    with pytest.raises(error) as ei:
        load_points(p)
    assert ei.value.line == line


def _float_fallback_loadtxt(lines, **kwargs):
    """np.loadtxt(dtype=np.int64) as NumPy 1.23-1.26 run it: a cell that is
    not an int64 integer is read as a float and cast, with a warning."""
    rows = []
    for line in lines:
        row = []
        for c in line.decode().split(","):
            try:
                v = int(c)
                if not INT64[0] <= v <= INT64[1]:
                    raise ValueError(c)
            except ValueError:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                v = int(np.float64(c).astype(np.int64))
            row.append(v)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("text, labeled, error", [
    ("1,2\n1.5,2\n", False, NonInteger),
    ("1,2\n1e3,2\n", False, NonInteger),
    ("1,2,1\n3,4,1.0\n", True, NonInteger),
    ("1,2\n" + str(2 ** 63) + ",2\n", False, ParseError),
])
@pytest.mark.parametrize("action", ["ignore", "always"])
def test_float_fallback_is_a_fault(tmp_path, monkeypatch, text, labeled, error, action):
    """Where loadtxt only warns before taking a cell as a float, the cell is
    still a fault, whatever the caller's warning filter."""
    monkeypatch.setattr(np, "loadtxt", _float_fallback_loadtxt)
    p = tmp_path / "pts.csv"
    p.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter(action, DeprecationWarning)
        with pytest.raises(error) as ei:
            (load_labeled if labeled else load_points)(p)
    assert ei.value.line == 2


def _csv_writer_bytes(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        for r in rows:
            w.writerow([int(v) for v in r])
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("header", [False, True])
def test_writers_match_csv_writer(tmp_path, header):
    big = 2 ** 62
    edge = np.array([[big - 1, -big, 7], [-1, 0, big + 5], [3, -(2 ** 63), 2 ** 63 - 1]],
                    dtype=np.int64)
    g = np.random.default_rng(5)
    for n in (3, 2 * CSV_WRITE_ROWS + 5):  # one write block, then three
        X = np.concatenate([edge, g.integers(-(2 ** 63), 2 ** 63 - 1, size=(n - 3, 3))])
        y = np.where(np.arange(n) % 3 == 1, -1, 1)
        ds = LabeledDataset(PointSet(3, X), y)
        save_labeled_csv(tmp_path / "a.csv", ds, header=header)
        want = _csv_writer_bytes(tmp_path / "b.csv", np.column_stack([X, y]),
                                 header=["x0", "x1", "x2", "y"] if header else None)
        assert (tmp_path / "a.csv").read_bytes() == want
        save_points_csv(tmp_path / "c.csv", ds.base)
        assert (tmp_path / "c.csv").read_bytes() == _csv_writer_bytes(tmp_path / "d.csv", X)
