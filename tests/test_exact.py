import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdc.errors import EmptyInput
from fdc.exact import (
    IntSpan,
    directions,
    exact_pivot_indices,
    exact_rank,
    membership_mask,
    primitive_rows,
    span_of_rows,
)
from fdc.linalg import span_of
from tests.conftest import seeded_points


def test_primitive_row():
    P, g = primitive_rows(np.array([[4, -8, 12], [-3, 0, 6]]))
    np.testing.assert_array_equal(P, [[1, -2, 3], [-1, 0, 2]])
    np.testing.assert_array_equal(g, [4, 3])
    np.testing.assert_array_equal(directions(np.array([[-3, 0, 6]]))[0], [[1, 0, -2]])
    np.testing.assert_array_equal(primitive_rows(np.array([[5]]))[0], [[1]])
    with pytest.raises(EmptyInput):
        primitive_rows(np.array([[1, 2], [0, 0]]))


def _pooled(rows):
    """Plain-Python pooling: primitive direction, sign flipped so the first
    nonzero entry is positive, directions in order of first occurrence."""
    dirs, mult, inverse = [], [], []
    for row in rows:
        g = 0
        for v in row:
            g = math.gcd(g, v)
        p = tuple(v // g for v in row)
        if next(v for v in p if v) < 0:
            p = tuple(-v for v in p)
        if p not in dirs:
            dirs.append(p)
            mult.append(0)
        mult[dirs.index(p)] += 1
        inverse.append(dirs.index(p))
    return dirs, mult, inverse


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d).filter(any),
             min_size=1, max_size=5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(-4, 4).filter(bool)),
             min_size=1, max_size=25),
)))
def test_directions_match_python_pooling(case):
    # rows are scaled and negated copies of a few base rows
    base, picks = case
    rows = [[s * v for v in base[i % len(base)]] for i, s in picks]
    dirs, mult, inverse = directions(np.array(rows, dtype=np.int64))
    want_dirs, want_mult, want_inverse = _pooled(rows)
    assert [tuple(int(v) for v in r) for r in dirs] == want_dirs
    assert mult.tolist() == want_mult
    assert inverse.tolist() == want_inverse


def test_int_span_incremental():
    s = IntSpan(3)
    assert s.add((1, 2, 3))
    assert not s.add((2, 4, 6))
    assert s.add((0, 1, 1))
    assert s.rank == 2
    assert s.contains((1, 3, 4))
    assert not s.contains((0, 0, 1))


def test_exact_rank_and_pivots():
    rows = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 5)]
    assert exact_rank(rows) == 3
    assert exact_pivot_indices(rows) == [0, 2, 4]


def _frac_rank(rows):
    # independent reference: fraction Gaussian elimination
    mat = [[Fraction(int(v)) for v in r] for r in rows]
    rank, col = 0, 0
    while rank < len(mat) and col < len(mat[0]):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def test_rank_matches_fraction_reference():
    for seed in range(30):
        pts = seeded_points(4, 7, 3, seed)
        assert exact_rank([tuple(r) for r in pts]) == _frac_rank(pts)


def test_membership_mask_exact_and_prefiltered():
    pts = np.array([[1, 0, 0], [2, 0, 0], [0, 1, 0], [3, 5, 0], [0, 0, 1], [1, 1, 1]])
    basis = [(1, 0, 0), (0, 1, 0)]
    expected = np.array([True, True, True, True, False, False])
    np.testing.assert_array_equal(membership_mask(basis, pts), expected)
    # Coordinates near 2^60 overflow the int64 product's guard, so the same
    # decision goes through the float prefilter and the Python-int product.
    big = [(1, 0, 3 * 2 ** 58), (0, 1, 2 ** 58)]
    pts_big = np.array([[1, 0, 3 * 2 ** 58], [2, 1, 7 * 2 ** 58], [1, 0, 3 * 2 ** 58 + 1],
                        [0, 0, 1], [5, -2, 13 * 2 ** 58]])
    np.testing.assert_array_equal(membership_mask(big, pts_big),
                                  [True, True, False, False, True])


def test_membership_with_huge_coordinates():
    # mixed scales spanning ~2^45: no member may be rejected
    big = 2 ** 45
    pts = np.array([[big, big, 0], [1, -1, 0], [big, 0, 1]], dtype=np.int64)
    basis = [(1, 1, 0), (1, -1, 0)]
    mask = membership_mask(basis, pts)
    np.testing.assert_array_equal(mask, [True, True, False])


def test_membership_converts_only_prefilter_candidates(monkeypatch):
    # 20,000 rows of which 12 lie in the plane and 3 more sit close to it.
    # With small entries the product runs in int64 and converts no row to
    # Python ints; with entries that overflow the int64 guard only the rows
    # passing the float prefilter are converted.
    from fdc import exact

    gen = np.random.default_rng(3)
    pts = gen.integers(-50, 51, size=(20_000, 4))
    pts[:, 3] = gen.integers(1, 51, size=20_000)
    idx = gen.choice(20_000, size=15, replace=False)
    pts[idx[:12], 2:] = 0
    pts[idx[12:]] = [[1000, 1000, 1, 0], [-900, 4000, 0, 3], [7000, 1, 2, 2]]
    basis = [(1, 0, 0, 0), (0, 1, 0, 0)]
    # The shear x2 += B x0 + C x1 maps the plane and the points alike, so it
    # keeps every membership, and it gives the complement 41-bit entries.
    B, C = 2 ** 40 + 1, 2 ** 41 - 3
    big_basis = [(1, 0, B, 0), (0, 1, C, 0)]
    big_pts = pts.copy()
    big_pts[:, 2] += B * pts[:, 0] + C * pts[:, 1]

    converted = []
    real = exact.as_int_rows

    def counting(rows):
        out = real(rows)
        converted.append(len(out))
        return out

    monkeypatch.setattr(exact, "as_int_rows", counting)
    mask = membership_mask(basis, pts)
    assert mask.sum() == 12 and mask[idx[:12]].all()
    assert sum(converted) == 0
    np.testing.assert_array_equal(membership_mask(big_basis, big_pts), mask)
    assert 12 <= sum(converted) <= 15


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=d, max_size=d),
             min_size=1, max_size=d - 1),
    st.lists(st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1),
             min_size=1, max_size=6),
    st.lists(st.lists(st.integers(-2 ** 46, 2 ** 46), min_size=d, max_size=d),
             min_size=1, max_size=6),
)))
def test_membership_mask_matches_reference(case):
    # Members are small combinations of the basis rows (coordinates up to
    # ~2^43), and their neighbours at distance 1 and arbitrary 47-bit rows
    # are mostly not; entries this large take the Python-int fallback.
    basis, combos, others = case
    d = len(basis[0])
    if exact_rank(basis) == 0:
        return
    members = [[sum(c * b[j] for c, b in zip(combo, basis)) for j in range(d)]
               for combo in combos]
    near = [[v + (j == 0) for j, v in enumerate(row)] for row in members]
    pts = np.array(members + near + others, dtype=np.int64)
    span = span_of_rows(basis, dim=d)
    want = [_frac_rank(basis + [list(row)]) == _frac_rank(basis) for row in pts.tolist()]
    np.testing.assert_array_equal(membership_mask(basis, pts), want)
    np.testing.assert_array_equal([span.contains(row) for row in pts.tolist()], want)


def test_span_of_rows():
    span = span_of_rows([(1, 2), (2, 4)])
    assert span.rank == 1
    assert span.contains((3, 6))
