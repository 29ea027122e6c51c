"""Deterministic dense linear algebra kernel.

Symmetric eigendecomposition is a Jacobi iteration in round-robin order
(vectorized over the disjoint pairs of each round and over a batch axis)
rather than LAPACK: certificates must reproduce bit-for-bit across runs, and
Jacobi has no pivoting heuristics or threading nondeterminism.  The
independent certificate re-checks elsewhere in the package deliberately go
through ``np.linalg.eigh`` so the two routes share no eigensolver code.

Rank decisions on integer inputs are exact (fraction-free elimination); the
singular-value threshold test is kept for float inputs only.
"""

from dataclasses import dataclass, field
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _round_robin(k):
    """The rounds of a round-robin tournament on 0..k-1, as flat indices
    into a k x k matrix: (pp, qq, pq, qp, bye) per round.  Each round pairs
    every index at most once, and every pair p < q meets in exactly one of
    the k - 1 rounds (k rounds for odd k, where one index per round sits out,
    the bye)."""
    kk = k + k % 2
    ring = list(range(1, kk))
    rounds = []
    for _ in range(kk - 1):
        order = [0] + ring
        pairs = sorted((min(a, b), max(a, b)) for a, b in zip(order[: kk // 2], order[::-1]))
        P = np.array([p for p, q in pairs if q < k], dtype=np.int64)
        Q = np.array([q for p, q in pairs if q < k], dtype=np.int64)
        bye = np.array([p for p, q in pairs if q == k], dtype=np.int64)
        flat = (P * k + P, Q * k + Q, P * k + Q, Q * k + P, bye * k + bye)
        for a in flat:
            a.flags.writeable = False   # cached: every caller shares them
        rounds.append(flat)
        ring = ring[-1:] + ring[:-1]
    return rounds


def jacobi_eigh(mats, sweeps=JACOBI_SWEEPS):
    """Eigendecomposition of a batch of symmetric matrices by Jacobi sweeps
    in round-robin (parallel) order.

    Accepts shape (..., k, k); returns (eigenvalues descending (..., k),
    eigenvectors (..., k, k) with columns matching the eigenvalue order).
    A sweep is the k - 1 rounds of a round-robin tournament on the indices
    (k rounds for odd k, each with one index left out).  A round's pairs are
    disjoint, so its rotations commute: one step A <- J^T A J, V <- V J with
    J the product of the round's rotations rotates all of them at once, for
    every matrix of the batch (Brent and Luk 1985).  Each rotation zeroes its
    (p, q) entry; it is skipped where that entry is at most 1e-18 of the
    matrix's scale.  Sweeps stop once every off-diagonal entry is within
    1e-14 of the scale.  Raises NonConvergent if any batch element still has
    off-diagonal mass above 1e-9 of its scale after the sweep budget.
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
    rot_tol = 1e-18 * scale[:, None]
    rounds = _round_robin(k)
    J = np.zeros((m, k * k))
    Jm = J.reshape(m, k, k)
    Jt = Jm.transpose(0, 2, 1)

    iu = np.triu_indices(k, 1)
    for _ in range(sweeps):
        off = np.abs(A[:, iu[0], iu[1]]).max(axis=1)
        if np.all(off <= 1e-14 * scale):
            break
        for pp, qq, pq, qp, bye in rounds:
            flat = A.reshape(m, k * k)
            apq = flat[:, pq]
            theta = 0.5 * np.arctan2(2.0 * apq, flat[:, qq] - flat[:, pp])
            theta *= np.abs(apq) > rot_tol
            c = np.cos(theta)
            s = np.sin(theta)
            J[:, pp] = c
            J[:, qq] = c
            J[:, pq] = s
            J[:, qp] = -s
            J[:, bye] = 1.0
            A = Jt @ A @ Jm
            flat = A.reshape(m, k * k)
            flat[:, pq] = 0.0
            flat[:, qp] = 0.0
            V = V @ Jm
            J[:] = 0.0
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
