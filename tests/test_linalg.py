import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdc import linalg
from fdc.errors import EmptyInput, NonConvergent, NonInteger
from fdc.linalg import Subspace, jacobi_eigh, span_of


class TestSymEigen:
    def test_diagonal(self):
        w, Q = jacobi_eigh(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(Q), np.eye(2), atol=1e-12)

    def test_offdiagonal_symmetry_forced(self):
        w, Q = jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        # eigenvectors up to sign
        assert min(np.abs(Q[:, 0] - [s, s]).max(), np.abs(Q[:, 0] + [s, s]).max()) < 1e-12
        assert min(np.abs(Q[:, 1] - [s, -s]).max(), np.abs(Q[:, 1] + [s, -s]).max()) < 1e-12

    def test_random_5x5_reconstruction(self, rng_np):
        M = rng_np.randn(5, 5)
        M = M + M.T
        w, Q = jacobi_eigh(M)
        rec = (Q * w) @ Q.T
        scale = np.linalg.norm(M)
        assert np.linalg.norm(rec - M) <= 1e-9 * scale

    def test_orthonormality_and_diagonalization_invariants(self, rng_np):
        for _ in range(10):
            k = rng_np.randint(1, 8)
            M = rng_np.randn(k, k)
            M = M + M.T
            w, Q = jacobi_eigh(M)
            assert np.abs(Q.T @ Q - np.eye(k)).max() <= 1e-9
            norm = max(np.abs(w).max(), 1e-300)
            assert np.abs(Q.T @ M @ Q - np.diag(w)).max() <= 1e-9 * norm
            assert np.all(np.diff(w) <= 1e-12)

    def test_sweep_budget_exhausted_raises(self, rng_np, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_SWEEPS", 1)
        M = rng_np.randn(6, 6)
        with pytest.raises(NonConvergent):
            jacobi_eigh(M + M.T)

    def test_batched_agrees_with_single(self, rng_np):
        mats = rng_np.randn(7, 4, 4)
        mats = mats + np.transpose(mats, (0, 2, 1))
        wb, _ = jacobi_eigh(mats)
        for i in range(7):
            wi, _ = jacobi_eigh(mats[i])
            np.testing.assert_allclose(wb[i], wi, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_hypothesis_reconstruction(self, seed):
        r = np.random.RandomState(seed)
        k = r.randint(1, 11)   # odd k: one index sits out each round
        M = r.randn(k, k) * 10.0 ** r.randint(-3, 4)
        M = M + M.T
        w, Q = jacobi_eigh(M)
        assert np.linalg.norm((Q * w) @ Q.T - M) <= 1e-9 * max(np.linalg.norm(M), 1e-300)


class TestSpanOf:
    def test_collinear(self):
        S = span_of(np.array([[1, 0], [2, 0]]))
        assert S.dim == 1
        proj = S.basis @ S.basis.T
        np.testing.assert_allclose(proj, np.diag([1.0, 0.0]), atol=1e-12)

    def test_full_plane(self):
        assert span_of(np.array([[1, 0], [0, 1]])).dim == 2

    def test_xy_plane_in_r3(self):
        S = span_of(np.array([[1, 1, 0], [1, -1, 0]]))
        assert S.dim == 2
        proj = S.basis @ S.basis.T
        np.testing.assert_allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            span_of(np.zeros((0, 3), dtype=np.int64))

    def test_float_points_raise(self):
        with pytest.raises(NonInteger):
            span_of(np.array([[1.0, 0.5], [2.0, 1.0]]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_permutation_and_scaling_invariance(self, seed):
        r = np.random.RandomState(seed)
        n, d = r.randint(2, 7), r.randint(2, 5)
        pts = r.randint(-4, 5, size=(n, d)).astype(np.int64)
        pts[~pts.any(axis=1), 0] = 1
        S1 = span_of(pts)
        perm = r.permutation(n)
        scales = r.randint(1, 5, size=n).astype(np.int64)
        S2 = span_of(pts[perm] * scales[perm][:, None])
        assert S1.dim == S2.dim
        P1 = S1.basis @ S1.basis.T
        P2 = S2.basis @ S2.basis.T
        np.testing.assert_allclose(P1, P2, atol=1e-9)

    def test_subspace_validation(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))

