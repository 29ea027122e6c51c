import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fdc import exact, transform
from fdc.dataset import PointSet
from fdc.errors import PrecisionLimit, SingularTransform
from fdc.linalg import span_of
from fdc.transform import (
    ENUM_COMBO_CAP,
    HEAVY_FIRST_CAP,
    ForsterPiece,
    _forster_transform_once,
    decomposition_to_dict,
    forster_decompose,
    forster_transform,
    mapped_unit_rows,
    piece_from_dict,
    piece_to_dict,
    verify_piece,
    weighted_qr_transform,
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
        from tests.reference import recheck_certificate

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
    cannot, and the QR factor keeps the transform accurate there; past
    binary64's reach the transform ends in a typed error."""

    @pytest.mark.parametrize("bits", [8, 12, 16, 24, 32, 40])
    def test_decomposes_and_every_piece_verifies(self, bits):
        S = _near_line_set(bits)
        dec = forster_decompose(S, 0.25)
        assert all(verify_piece(p, S).passed for p in dec.pieces)

    @pytest.mark.parametrize("bits", [48, 52])
    def test_beyond_binary64_raises_typed_error(self, bits):
        with pytest.raises(PrecisionLimit):
            forster_decompose(_near_line_set(bits), 0.25)


class TestWeightedQrTransform:
    """A = R^{-T} from the QR factor of the rows sqrt(c^2 m / M) x meets
    A Sigma_c A^T = I, lower triangular with a positive diagonal."""

    def test_identity_fixed_point(self):
        A = weighted_qr_transform(np.sqrt(3.0) * np.eye(3), np.ones(3), np.ones(3))
        np.testing.assert_allclose(A, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        # Rows (2, 0) and (0, 3): Sigma_c = diag(4, 9).
        A = weighted_qr_transform(np.eye(2), np.array([8.0, 18.0]), np.ones(2))
        np.testing.assert_allclose(A, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_random_rows_multiply_back(self, rng_np):
        X = rng_np.randn(9, 6)
        c_sq = rng_np.uniform(1.0, 5.0, 9)
        mult = rng_np.randint(1, 4, 9)
        sigma = (X * (c_sq * mult)[:, None]).T @ X / mult.sum()
        A = weighted_qr_transform(X, c_sq, mult)
        np.testing.assert_allclose(A @ sigma @ A.T, np.eye(6), atol=1e-12)
        assert np.all(np.triu(A, 1) == 0.0) and np.all(np.diag(A) > 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_piece_transform_whitens_its_weights(self, d, data):
        n = data.draw(st.integers(d, 12))
        entries = st.integers(-9, 9)
        X = np.array(data.draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                        min_size=n, max_size=n)), dtype=np.int64)
        assume(X.any(axis=1).all() and np.linalg.matrix_rank(X) == d)
        piece = forster_transform(PointSet(d, X), 1e-3)
        A = piece.transform
        assert np.all(np.triu(A, 1) == 0.0) and np.all(np.diag(A) > 0)
        coords = X[piece.member_indices].astype(np.float64) @ piece.subspace.basis
        c_sq = piece.weights.c_sq
        sigma = (coords * c_sq[:, None]).T @ coords
        white = A @ sigma @ A.T
        k = piece.subspace.dim
        scale = np.trace(white) / k
        assert np.abs(white / scale - np.eye(k)).max() <= 1e-9


@pytest.fixture
def chain_calls(monkeypatch):
    """Calls the heavy chain and the transform make to the fixed point, the
    exact heavy decision and the scaling solver, counted through wrappers
    on the names ``fdc.transform`` calls them by."""
    calls = {}

    def counted(name):
        fn = getattr(transform, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(transform, name, wrapper)

    for name in ("fixed_point_scaling", "find_heavy_subspace", "solve_scaling_sdp"):
        counted(name)
        calls[name] = 0
    return calls


def _pooled(rows, counts):
    """The pooled directions of rows of which row i appears counts[i] times."""
    dirs, _, inverse = exact.directions(rows)
    return dirs, np.bincount(inverse, weights=counts).astype(np.int64)


def test_seed52_fifteen_line_stage_certified_by_scale_first_fixed_point(chain_calls):
    # 15 lines with 1,473,655 hits in d = 10, from a learner stage on the
    # first file of bench learn-cli seed 52: too much weight for the
    # heavy-first chain and 27,823 direction subsets of size below 10, so
    # the step is scale-first.  Its fixed point certifies, and the piece
    # keeps those weights without solving the scaling problem again.
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
    dirs, mult = _pooled(rows, counts)
    assert dirs.tobytes() == rows.tobytes()
    members, V, _, _, (lam_min, lam_max, _) = _forster_transform_once(dirs, mult, 0.25)
    assert chain_calls == {"fixed_point_scaling": 1, "find_heavy_subspace": 0,
                           "solve_scaling_sdp": 0}
    assert V.dim == 10
    assert members.tolist() == list(range(15))
    assert 1.0 / 10.25 - 1e-8 <= lam_min <= lam_max <= 1.25 / 10.25 + 1e-8


def test_scale_first_step_with_a_heavy_flat_is_decided_exactly(chain_calls):
    # 30 lines in d = 4 carrying 70,000 hits: over HEAVY_FIRST_CAP, with
    # more than ENUM_COMBO_CAP direction subsets of size below 4, so the
    # first step is scale-first.  Ten lines in the plane of the first two
    # axes carry 50,000 hits, a strictly heavy flat, so the fixed point
    # cannot certify and the exact decision must find the plane.  Inside
    # it, 10 lines are few enough to decide exactly without a fixed point.
    plane = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 2], [2, 1], [1, -2],
                      [2, -1], [1, 3], [3, 1]])
    rest = seeded_points(4, 20, 9, seed=5)
    assert rest[:, 2:].any(axis=1).all()
    rows = np.vstack([np.c_[plane, np.zeros((10, 2), dtype=np.int64)], rest])
    counts = [5000] * 10 + [1000] * 20
    assert sum(counts) > HEAVY_FIRST_CAP
    assert sum(math.comb(30, j) for j in range(1, 4)) > ENUM_COMBO_CAP
    dirs, mult = _pooled(rows, counts)
    assert dirs.shape[0] == 30 and mult.sum() == sum(counts)
    members, V, _, _, (lam_min, lam_max, _) = _forster_transform_once(dirs, mult, 0.25)
    # One fixed point for the one scale-first step; the exact decision on
    # it and on the plane; the scaling problem solved once, on the plane.
    assert chain_calls == {"fixed_point_scaling": 1, "find_heavy_subspace": 2,
                           "solve_scaling_sdp": 1}
    assert members.tolist() == list(range(10))
    assert V.dim == 2
    assert sorted(V.int_rows) == [(0, 1, 0, 0), (1, 0, 0, 0)]
    assert 1.0 / 2.25 - 1e-8 <= lam_min <= lam_max <= 1.25 / 2.25 + 1e-8


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
        # The piece transformed from the residual R has |piece| * dim(span(R))
        # >= dim(V) * |R|, and forster_decompose, which pools the points
        # once, peels the same pieces byte for byte.  Besides the fixed set,
        # seeded sets whose rows repeat scaled (times 2 and 5) and negated
        # (times -1 and -3), 36 of their 60 rows in a planted heavy plane.
        sets = [np.array(
            [[1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])]
        for seed in (1, 2, 3):
            g = np.random.default_rng(seed)
            base = seeded_points(4, 24, 6, seed)
            base[:12, 2:] = 0
            base[~base.any(axis=1), 0] = 1
            row = np.concatenate([g.integers(0, 12, size=36), g.integers(12, 24, size=24)])
            scale = g.choice([1, 2, 5, -1, -3], size=60)
            sets.append(base[g.permutation(row)] * scale[:, None])
        for pts in sets:
            dec = forster_decompose(PointSet(pts.shape[1], pts), 1e-3)
            remaining = np.arange(pts.shape[0])
            peeled = []
            while remaining.size:
                piece = forster_transform(pts[remaining], 1e-3)
                r_span = span_of(pts[remaining]).dim
                assert len(piece.member_indices) * r_span >= piece.subspace.dim * remaining.size
                keep = np.ones(remaining.size, dtype=bool)
                keep[np.asarray(piece.member_indices)] = False
                piece.member_indices = remaining[~keep].tolist()
                peeled.append(piece)
                remaining = remaining[keep]
            assert len(dec.pieces) == len(peeled) > 1
            for got, want in zip(dec.pieces, peeled):
                assert got.member_indices == want.member_indices
                assert got.subspace.basis.tobytes() == want.subspace.basis.tobytes()
                assert got.subspace.int_rows == want.subspace.int_rows
                assert got.transform.tobytes() == want.transform.tobytes()
                assert got.weights.c_sq.tobytes() == want.weights.c_sq.tobytes()
                assert (np.array(got.certificate).tobytes()
                        == np.array(want.certificate).tobytes())

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
