import numpy as np
import pytest

from fdc.dataset import PointSet
from fdc.errors import FdcError, SingularTransform
from fdc.linalg import span_of
from fdc.transform import (
    ForsterPiece,
    decomposition_to_dict,
    forster_decompose,
    forster_transform,
    mapped_unit_rows,
    piece_from_dict,
    piece_to_dict,
    verify_piece,
)
from tests.conftest import seeded_point_set, seeded_points

FOUR = PointSet(2, np.array([[1, 0], [0, 1], [1, 1], [1, -1]]))


class TestRadialMap:
    """f_A(x) = Ax / ||Ax|| row by row, as ``mapped_unit_rows`` computes it."""

    def test_identity(self):
        np.testing.assert_allclose(mapped_unit_rows(np.eye(2), np.array([[3.0, 4.0]])),
                                   [[0.6, 0.8]])

    def test_diagonal(self):
        got = mapped_unit_rows(np.diag([1.0, 2.0]), np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(got, [np.array([1.0, 2.0]) / np.sqrt(5.0)])

    def test_positive_scale_invariance(self, rng_np):
        A = rng_np.randn(3, 3) + 3 * np.eye(3)
        X = rng_np.randn(4, 3)
        np.testing.assert_allclose(mapped_unit_rows(A, 7.0 * X), mapped_unit_rows(A, X),
                                   atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(mapped_unit_rows(A, X), axis=1), 1.0,
                                   atol=1e-12)

    def test_zero_point(self):
        # A zero row has no image direction.
        with pytest.raises(SingularTransform):
            mapped_unit_rows(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_singular_transform(self):
        with pytest.raises(SingularTransform):
            mapped_unit_rows(np.zeros((2, 2)), np.array([[1.0, 0.0]]))


class TestForsterTransform:
    def test_four_point_balanced(self):
        piece = forster_transform(FOUR, 1e-3)
        assert piece.subspace.dim == 2
        assert piece.member_indices == [0, 1, 2, 3]
        lam_min, lam_max, delta = piece.certificate
        assert 1.0 / (2 + delta) - 1e-8 <= lam_min <= lam_max <= (1 + delta) / (2 + delta) + 1e-8
        # A proportional to the identity for this symmetric instance
        A = piece.transform
        assert abs(A[0, 1]) < 1e-9 and abs(A[0, 0] - A[1, 1]) < 1e-9

    def test_basis_pair_bottoms_out_at_line(self):
        piece = forster_transform(PointSet(2, np.array([[1, 0], [0, 1]])), 1e-3)
        assert piece.subspace.dim == 1
        assert piece.member_indices == [0]
        assert piece.certificate[0] == pytest.approx(1.0, abs=1e-12)
        assert piece.certificate[1] == pytest.approx(1.0, abs=1e-12)

    def test_three_directions_general_position(self):
        S = PointSet(2, np.array([[1, 0], [1, 2], [-1, 2]]))
        piece = forster_transform(S, 1e-3)
        assert piece.subspace.dim == 2
        assert verify_piece(piece, S).passed

    def test_weights_align_with_members_and_pass_recheck(self):
        from fdc.scaling import recheck_certificate

        S = PointSet(2, np.array([[2, 0], [0, 3], [5, 5], [4, -4]]))
        piece = forster_transform(S, 1e-3)
        assert len(piece.weights.c_sq) == len(piece.member_indices)
        pts = S.points[piece.member_indices].astype(np.float64)
        ok, worst, thr = recheck_certificate(pts, piece.weights)
        assert ok


def _near_line_set(bits):
    """Six points within a few units of the line through v at scale 2^bits,
    six small random points; no heavy flat exists at any ``bits``."""
    g = np.random.default_rng(0)
    v = g.integers(1, 9, 4)
    near = [2 ** bits * (i + 1) * v + g.integers(-3, 4, 4) for i in range(6)]
    rest = g.integers(-9, 10, (6, 4))
    rest[~rest.any(axis=1)] = [1, 0, 0, 0]
    return PointSet(4, np.vstack([np.array(near, dtype=np.int64), rest]))


class TestNearLine:
    """Newton on Barthe's potential reaches weight ranges the fixed point
    cannot; past binary64's reach the transform ends in a typed error."""

    @pytest.mark.parametrize("bits", [8, 12, 16, 24])
    def test_decomposes_and_every_piece_verifies(self, bits):
        S = _near_line_set(bits)
        dec = forster_decompose(S, 0.25)
        assert all(verify_piece(p, S).passed for p in dec.pieces)

    @pytest.mark.parametrize("bits", [32, 40])
    def test_beyond_binary64_raises_typed_error(self, bits):
        with pytest.raises(FdcError):
            forster_decompose(_near_line_set(bits), 0.25)


def test_enumerable_scale_first_step_is_decided_exactly():
    # 15 lines with 1,473,655 hits in d = 10, from a learner stage: too much
    # weight for the heavy-first chain, yet few enough flats to enumerate
    # (none is heavy).  The hunt used to end it in IterationBudgetExceeded.
    rows = np.array([
        [5, 1, 7, 3, -1, -8, 7, 2, -1, -6], [7, -8, 6, 1, -5, 4, -2, 8, 4, 1],
        [35, -48, 25, 24, -13, 48, 37, 23, 11, 1],
        [23, -5, -27, -43, -17, -37, -13, -12, 25, -35],
        [59, -73, 16, -1, -35, 41, 36, 16, 19, -8], [8, -4, -3, -6, 1, 4, -3, 8, -4, 1],
        [24, -33, 17, 17, -9, 33, 25, 16, 7, 0], [3, 1, 2, -2, -4, 3, -2, -2, -3, -4],
        [7, -3, 0, -5, 5, 8, 2, -4, 3, -3], [1, -1, 2, 7, 8, 5, 6, 8, 3, 1],
        [3, 0, 5, 0, -4, -5, -3, -2, -4, -4], [5, -6, 8, 5, 4, -8, -6, -8, -4, -8],
        [1, -3, 2, 4, -5, -7, 5, -1, -2, -3], [2, 7, 8, 6, 2, 0, -2, 6, -6, -6],
        [8, -4, -4, -7, 6, 4, 0, -4, -5, -3],
    ])
    counts = [104693, 99018, 94534, 103023, 93556, 103602, 91756, 100021, 99243,
              101776, 97724, 98774, 86701, 87367, 111867]
    piece = forster_transform(PointSet(10, rows), 0.25, counts=counts)
    assert piece.subspace.dim == 10
    assert piece.member_indices == list(range(15))
    lam_min, lam_max, delta = piece.certificate
    assert 1.0 / 10.25 - 1e-8 <= lam_min <= lam_max <= 1.25 / 10.25 + 1e-8


class TestVerifyPiece:
    def test_certified_piece_passes(self):
        piece = forster_transform(FOUR, 1e-3)
        report = verify_piece(piece, FOUR)
        assert report.passed
        assert report.trace == pytest.approx(1.0, abs=1e-10)

    def test_random_transform_fails(self, rng_np):
        piece = forster_transform(FOUR, 1e-3)
        bad = ForsterPiece(
            piece.member_indices, piece.subspace,
            np.array([[1.0, 0.7], [0.1, 0.2]]), piece.weights, piece.certificate,
        )
        report = verify_piece(bad, FOUR)
        assert not report.passed and report.distance > piece.certificate[2]

    def test_dimension_one_exact(self):
        S = PointSet(2, np.array([[3, 0], [-7, 0]]))
        piece = forster_transform(S, 1e-3)
        report = verify_piece(piece, S)
        assert report.passed
        assert report.distance == pytest.approx(0.0, abs=1e-12)
        assert report.trace == pytest.approx(1.0, abs=1e-12)


class TestDecompose:
    def test_basis_pair_two_pieces(self):
        dec = forster_decompose(PointSet(2, np.array([[1, 0], [0, 1]])), 1e-3)
        assert [p.member_indices for p in dec.pieces] == [[0], [1]]

    def test_two_one_split(self):
        dec = forster_decompose(PointSet(2, np.array([[1, 0], [1, 0], [0, 1]])), 1e-3)
        assert [p.member_indices for p in dec.pieces] == [[0, 1], [2]]

    def test_general_position_single_piece(self):
        S = seeded_point_set(4, 40, 50, seed=5)
        dec = forster_decompose(S, 1e-3)
        assert len(dec.pieces) == 1

    def test_partition_and_bounds(self):
        import math

        for seed in range(6):
            S = seeded_point_set(3, 11, 2, seed)
            dec = forster_decompose(S, 1e-3)
            covered = sorted(i for p in dec.pieces for i in p.member_indices)
            assert covered == list(range(S.n))
            assert len(dec.pieces) <= 3 * (math.ceil(math.log(S.n)) + 1)
            for piece in dec.pieces:
                assert verify_piece(piece, S).passed

    def test_fraction_guarantee_each_peel(self):
        # piece produced from residual R has |piece| * dim(span(R)) >= dim(V) * |R|
        S = PointSet(3, np.array(
            [[1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        ))
        remaining = np.arange(S.n)
        pts = S.points
        while remaining.size:
            piece = forster_transform(PointSet(3, pts[remaining]), 1e-3)
            r_span = span_of(pts[remaining]).dim
            assert len(piece.member_indices) * r_span >= piece.subspace.dim * remaining.size
            keep = np.ones(remaining.size, dtype=bool)
            keep[np.asarray(piece.member_indices)] = False
            remaining = remaining[keep]

    def test_equivariance_member_indices(self):
        T = np.array([[1, 2, 0], [0, 1, 1], [0, 0, 1]])  # unimodular
        for seed in range(10):
            pts = seeded_points(3, 9, 2, seed)
            d1 = forster_decompose(PointSet(3, pts), 1e-3)
            d2 = forster_decompose(PointSet(3, pts @ T.T), 1e-3)
            scales = (seeded_points(1, 9, 2, seed + 99)[:, 0] % 3 + 1).astype(np.int64)
            d3 = forster_decompose(PointSet(3, pts * scales[:, None]), 1e-3)
            m1 = [p.member_indices for p in d1.pieces]
            assert m1 == [p.member_indices for p in d2.pieces]
            assert m1 == [p.member_indices for p in d3.pieces]


class TestAntiConcentration:
    def test_mapped_direction_mass(self, rng_np):
        for seed in range(5):
            S = seeded_point_set(4, 30, 20, seed)
            piece = forster_transform(S, 1e-3)
            k = piece.subspace.dim
            coords = S.points[piece.member_indices].astype(float) @ piece.subspace.basis
            f = mapped_unit_rows(piece.transform, coords)
            for _ in range(100):
                v = rng_np.randn(k)
                v /= np.linalg.norm(v)
                frac = np.mean((f @ v) ** 2 >= 1.0 / (2 * k))
                assert frac >= 1.0 / (2 * k) - 2 * piece.certificate[2]


def test_piece_json_roundtrip():
    piece = forster_transform(FOUR, 1e-3)
    doc = piece_to_dict(piece)
    back = piece_from_dict(doc)
    assert back.member_indices == piece.member_indices
    np.testing.assert_allclose(back.transform, piece.transform)
    np.testing.assert_allclose(back.subspace.basis, piece.subspace.basis)
    assert verify_piece(back, FOUR).passed


def test_decomposition_dict_digest_changes_with_source():
    d1 = decomposition_to_dict(forster_decompose(FOUR, 1e-3))
    other = PointSet(2, np.array([[1, 0], [0, 1], [1, 1], [2, -1]]))
    d2 = decomposition_to_dict(forster_decompose(other, 1e-3))
    assert d1["source_digest"] != d2["source_digest"]
