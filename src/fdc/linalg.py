"""Deterministic dense linear algebra kernel.

Symmetric eigendecomposition is a cyclic Jacobi iteration (vectorized over a
batch axis) rather than LAPACK: certificates must reproduce bit-for-bit across
runs, and Jacobi has no pivoting heuristics or threading nondeterminism.  The
independent certificate re-checks elsewhere in the package deliberately go
through ``np.linalg.eigh`` so the two routes share no eigensolver code.

Rank decisions on integer inputs are exact (fraction-free elimination); the
singular-value threshold test is kept for float inputs only.
"""

from dataclasses import dataclass, field

import numpy as np

from . import exact
from .errors import EmptyInput, NonConvergent, NonSymmetric, NotPositiveDefinite

SYM_TOL = 1e-12
ORTHO_TOL = 1e-10
RANK_TOL = 1e-9
JACOBI_SWEEPS = 100


def check_symmetric(M, tol=SYM_TOL):
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSymmetric(f"not square: shape {M.shape}")
    scale = np.max(np.abs(M)) if M.size else 0.0
    if np.max(np.abs(M - M.T)) > tol * max(scale, 1e-300):
        raise NonSymmetric("matrix exceeds symmetry tolerance")
    return 0.5 * (M + M.T)


def jacobi_eigh(mats, sweeps=JACOBI_SWEEPS):
    """Eigendecomposition of a batch of symmetric matrices by cyclic Jacobi.

    Accepts shape (..., k, k); returns (eigenvalues descending (..., k),
    eigenvectors (..., k, k) with columns matching the eigenvalue order).
    Raises NonConvergent if any batch element still has off-diagonal mass
    above 1e-9 of its scale after the sweep budget.
    """
    A = np.array(mats, dtype=np.float64)
    k = A.shape[-1]
    batch_shape = A.shape[:-2]
    A = A.reshape(-1, k, k)
    A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
    m = A.shape[0]
    V = np.broadcast_to(np.eye(k), (m, k, k)).copy()
    if k == 1:
        w = A[:, 0, 0].reshape(*batch_shape, 1)
        return w, V.reshape(*batch_shape, k, k)

    scale = np.maximum(np.abs(A).reshape(m, -1).max(axis=1), 1e-300)
    rot_tol = 1e-18 * scale

    iu = np.triu_indices(k, 1)
    for _ in range(sweeps):
        off = np.abs(A[:, iu[0], iu[1]]).max(axis=1)
        if np.all(off <= 1e-14 * scale):
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = A[:, p, q]
                active = np.abs(apq) > rot_tol
                if not active.any():
                    continue
                theta = np.where(
                    active, 0.5 * np.arctan2(2.0 * apq, A[:, q, q] - A[:, p, p]), 0.0
                )
                c = np.cos(theta)
                s = np.sin(theta)
                rp = c[:, None] * A[:, p, :] - s[:, None] * A[:, q, :]
                rq = s[:, None] * A[:, p, :] + c[:, None] * A[:, q, :]
                A[:, p, :] = rp
                A[:, q, :] = rq
                cp = c[:, None] * A[:, :, p] - s[:, None] * A[:, :, q]
                cq = s[:, None] * A[:, :, p] + c[:, None] * A[:, :, q]
                A[:, :, p] = cp
                A[:, :, q] = cq
                A[:, p, q] = 0.0
                A[:, q, p] = 0.0
                vp = c[:, None] * V[:, :, p] - s[:, None] * V[:, :, q]
                vq = s[:, None] * V[:, :, p] + c[:, None] * V[:, :, q]
                V[:, :, p] = vp
                V[:, :, q] = vq
    off = np.abs(A[:, iu[0], iu[1]]).max(axis=1)
    if np.any(off > 1e-9 * scale):
        raise NonConvergent("Jacobi sweep budget exceeded")

    w = np.einsum("mii->mi", A).copy()
    order = np.argsort(-w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    V = np.take_along_axis(V, order[:, None, :], axis=2)
    return w.reshape(*batch_shape, k), V.reshape(*batch_shape, k, k)


def sym_eigen(M, sweeps=JACOBI_SWEEPS):
    """Eigendecomposition of one symmetric matrix: (eigenvalues descending, Q)."""
    Ms = check_symmetric(M)
    w, V = jacobi_eigh(Ms, sweeps=sweeps)
    return w, V


def inv_sqrt_psd(M, floor):
    """B with B @ M @ B = I for symmetric positive definite M.

    Raises NotPositiveDefinite if any eigenvalue is below ``floor`` (> 0).
    """
    w, Q = sym_eigen(M)
    if floor <= 0:
        raise ValueError("floor must be positive")
    if w.min() < floor:
        raise NotPositiveDefinite(f"min eigenvalue {w.min():.3e} below floor {floor:.3e}")
    B = (Q / np.sqrt(w)) @ Q.T
    return 0.5 * (B + B.T)


@dataclass
class Subspace:
    """Linear subspace of R^d held as a column-orthonormal basis (d, r).

    ``int_rows``, when present, is a list of integer vectors spanning the same
    subspace exactly; all membership decisions go through them.
    """

    ambient_dim: int
    basis: np.ndarray
    int_rows: list = field(default=None, repr=False)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=np.float64)
        if self.basis.ndim != 2 or self.basis.shape[0] != self.ambient_dim:
            raise ValueError(f"basis shape {self.basis.shape} vs ambient {self.ambient_dim}")
        r = self.basis.shape[1]
        if not (1 <= r <= self.ambient_dim):
            raise ValueError(f"subspace dimension {r} out of range")
        gram = self.basis.T @ self.basis
        if np.max(np.abs(gram - np.eye(r))) > ORTHO_TOL:
            raise ValueError("basis not orthonormal within tolerance")

    @property
    def dim(self):
        return self.basis.shape[1]

def span_of(points, tol=RANK_TOL):
    """Subspace spanned by the given nonzero points.

    Integer inputs get an exact rank/pivot decision; the basis itself is the
    float QR of the pivot rows.  Float inputs fall back to an SVD rank test at
    threshold tol * sigma_max.
    """
    pts = np.asarray(points)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[0] == 0:
        raise EmptyInput("span of empty point set")
    d = pts.shape[1]
    if np.issubdtype(pts.dtype, np.integer):
        piv = exact.exact_pivot_indices(pts, dim=d)
        if not piv:
            raise EmptyInput("all points are zero")
        Q, _ = np.linalg.qr(pts[piv].astype(np.float64).T)
        int_rows = [tuple(int(v) for v in pts[i]) for i in piv]
        return Subspace(d, Q[:, : len(piv)], int_rows=int_rows)
    X = pts.astype(np.float64)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise EmptyInput("all points are zero")
    r = int(np.sum(s > tol * s[0]))
    return Subspace(d, Vt[:r].T)


def full_space(d):
    return Subspace(d, np.eye(d), int_rows=[tuple(int(v) for v in row) for row in np.eye(d, dtype=np.int64)])
