from fractions import Fraction

import numpy as np
import pytest

from fdc.errors import EmptyInput
from fdc.exact import (
    IntSpan,
    exact_pivot_indices,
    exact_rank,
    membership_mask,
    primitive_row,
    span_of_rows,
)
from fdc.linalg import span_of
from tests.conftest import seeded_points


def test_primitive_row():
    assert primitive_row((4, -8, 12)) == (1, -2, 3)
    assert primitive_row((-3, 0, 6), keep_sign=False) == (1, 0, -2)
    assert primitive_row((5,)) == (1,)
    with pytest.raises(EmptyInput):
        primitive_row((0, 0))


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
    sub = span_of(np.array(basis, dtype=np.int64))
    np.testing.assert_array_equal(
        membership_mask(basis, pts, ortho_basis=sub.basis), expected
    )


def test_membership_with_huge_coordinates():
    # mixed scales spanning ~2^45: the float prefilter must not mis-reject
    big = 2 ** 45
    pts = np.array([[big, big, 0], [1, -1, 0], [big, 0, 1]], dtype=np.int64)
    basis = [(1, 1, 0), (1, -1, 0)]
    sub = span_of(np.array(basis, dtype=np.int64))
    mask = membership_mask(basis, pts, ortho_basis=sub.basis)
    np.testing.assert_array_equal(mask, [True, True, False])


def test_membership_converts_only_prefilter_candidates(monkeypatch):
    # 20,000 rows of which 12 lie in the plane and 3 more sit within the
    # prefilter's tolerance of it: the prefiltered call returns the
    # unfiltered call's mask and converts only those 15 rows to Python ints.
    from fdc import exact

    gen = np.random.default_rng(3)
    pts = gen.integers(-50, 51, size=(20_000, 4))
    pts[:, 3] = gen.integers(1, 51, size=20_000)
    idx = gen.choice(20_000, size=15, replace=False)
    pts[idx[:12], 2:] = 0
    pts[idx[12:]] = [[1000, 1000, 1, 0], [-900, 4000, 0, 3], [7000, 1, 2, 2]]
    basis = [(1, 0, 0, 0), (0, 1, 0, 0)]
    expected = membership_mask(basis, pts)
    assert expected.sum() == 12 and expected[idx[:12]].all()

    converted = []
    real = exact.as_int_rows

    def counting(rows):
        out = real(rows)
        converted.append(len(out))
        return out

    monkeypatch.setattr(exact, "as_int_rows", counting)
    sub = span_of(np.array(basis, dtype=np.int64))
    mask = membership_mask(basis, pts, ortho_basis=sub.basis)
    np.testing.assert_array_equal(mask, expected)
    assert sum(converted) == 15


def test_span_of_rows():
    span = span_of_rows([(1, 2), (2, 4)])
    assert span.rank == 1
    assert span.contains((3, 6))
