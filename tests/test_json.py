"""JSON point files: the loaders against a plain-Python reader of the format.

The format (README, "Point files"): one object {"dim": d, "points": [[...],
...], "labels": [...]}, "dim" optional and "labels" read only for a labeled
file.  A point is a list of JSON integers (true and false are not) of one
common width, not all zero; a coordinate lies inside int64; a label is the
integer -1 or 1.  A fault names its record's 1-based position; the checks run
in the order: every point's shape, type and zero test, then the labels, then
the int64 range of the coordinates, then "dim", then the coordinate -2^63,
which has no int64 negation.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdc.dataset import load_labeled, load_points
from fdc.errors import FdcError, NonInteger, ParseError, ZeroPoint

INT64 = (-(2 ** 63), 2 ** 63 - 1)


def reference_load(doc, labeled):
    """(X, y) as lists, or (error class, position), by the format above."""
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        return ParseError, None
    pts = doc["points"]
    if not pts:
        return ParseError, None
    for i, row in enumerate(pts, start=1):
        if not isinstance(row, list) or len(row) != len(pts[0]):
            return ParseError, i
        if any(type(v) is not int for v in row):
            return NonInteger, i
        if not any(row):
            return ZeroPoint, i
    y = []
    if labeled:
        if not isinstance(doc.get("labels"), list):
            return ParseError, None
        y = doc["labels"]
        for i, v in enumerate(y, start=1):
            if type(v) is not int or v not in (-1, 1):
                return ParseError, i
    for i, row in enumerate(pts, start=1):
        if not all(INT64[0] <= v <= INT64[1] for v in row):
            return ParseError, i
    dim = doc.get("dim", len(pts[0]))
    if type(dim) is not int or dim != len(pts[0]):
        return ParseError, None
    for i, row in enumerate(pts, start=1):
        if INT64[0] in row:  # -2^63 has no int64 negation
            return ParseError, i
    if labeled and len(y) != len(pts):
        return ParseError, None
    return pts, y


def loader_result(path, labeled):
    """What the fdc loader gives, in reference_load's form."""
    try:
        if labeled:
            ds = load_labeled(path)
            return ds.base.points, ds.labels
        return load_points(path).points, None
    except FdcError as exc:
        return type(exc), getattr(exc, "line", None)


EDGE = [2 ** 63 - 1, -(2 ** 63), 2 ** 62, -(2 ** 62)]
BAD_VALUES = [1.5, 2.0, -0.0, True, False, None, "3", [1], {}, 2 ** 63, -(2 ** 63) - 1,
              2 ** 70]
BAD_LABELS = [0, 2, -2, 1.0, True, False, None, "1", 2 ** 63, 2 ** 70]


@st.composite
def coordinate(draw, fault_rate):
    if draw(st.integers(0, 99)) < fault_rate:
        return draw(st.sampled_from(BAD_VALUES))
    pick = draw(st.integers(0, 9))
    return draw(st.sampled_from(EDGE) if pick == 0 else
                st.integers(*INT64) if pick == 1 else st.integers(-3, 3))


@st.composite
def json_doc(draw):
    """A small document built from the format's ingredients and faults."""
    width = draw(st.integers(0, 4))
    fault_rate = draw(st.sampled_from([0, 2, 10]))
    points = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 19))
        if kind == 0 and fault_rate:  # not a list
            points.append(draw(st.sampled_from([1, "1,2", None, {"x": 1}])))
        elif kind == 1 and fault_rate:  # ragged
            points.append(draw(st.lists(coordinate(0), max_size=5)))
        elif kind == 2:
            points.append([0] * width)
        else:
            points.append([draw(coordinate(fault_rate)) for _ in range(width)])
    doc = {"points": points}
    if draw(st.booleans()):
        doc["labels"] = [
            draw(st.sampled_from(BAD_LABELS)) if draw(st.integers(0, 99)) < fault_rate
            else draw(st.sampled_from([1, -1]))
            for _ in range(len(points) + draw(st.sampled_from([0, 0, 0, -1, 1])))
        ]
    dim = draw(st.sampled_from(["absent", "width", "width", "other", "bad"]))
    if dim == "width":
        doc["dim"] = width
    elif dim == "other":
        doc["dim"] = width + 1
    elif dim == "bad":
        doc["dim"] = draw(st.sampled_from([True, 2.0, "2", None]))
    if fault_rate and draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([points, {"pts": points}, {"points": {"a": 1}}]))
    return doc


@settings(max_examples=400, deadline=None)
@given(json_doc())
def test_loaders_match_reference(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pts.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for labeled in (False, True):
            want = reference_load(doc, labeled)
            got = loader_result(path, labeled)
            if isinstance(want[0], type):
                assert got == want, (labeled, doc)
            else:
                assert not isinstance(got[0], type), (labeled, doc, got)
                np.testing.assert_array_equal(got[0], np.array(want[0], dtype=np.int64))
                assert got[0].dtype == np.int64
                if labeled:
                    np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("labeled", [False, True])
def test_minus_2_63_names_its_record(tmp_path, labeled):
    # Its negation, +2^63, is not an int64, so its direction cannot be found.
    doc = {"points": [[1, 2], [-(2 ** 63), 1], [3, 4]], "labels": [1, -1, 1]}
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert reference_load(doc, labeled) == (ParseError, 2)
    with pytest.raises(ParseError, match="-9223372036854775808") as ei:
        (load_labeled if labeled else load_points)(path)
    assert ei.value.line == 2
