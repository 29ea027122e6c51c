"""Deterministic dense linear algebra kernel.

The rule: factorizations (QR) come from LAPACK, certificate eigenvalues
from Jacobi, and audit eigenvalues from LAPACK ``eigvalsh``, so construction
and audit share no eigensolver code.  The Jacobi iteration runs in
round-robin order, vectorized over the disjoint pairs of each round and over
a batch axis: certificates must reproduce bit-for-bit across runs, and Jacobi
has no pivoting heuristics or threading nondeterminism.

Spans are of integer points only, and their rank decisions are exact
(fraction-free elimination).
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import exact
from .errors import EmptyInput, NonConvergent, NonInteger, ParseError

ORTHO_TOL = 1e-10
# How far (relative) a document's integer row may sit from its float basis.
INT_ROWS_TOL = 1e-9
JACOBI_SWEEPS = 100


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


def jacobi_eigh(mats):
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
    off-diagonal mass above 1e-9 of its scale after JACOBI_SWEEPS sweeps
    (read at each call).
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
    for _ in range(JACOBI_SWEEPS):
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


def check_int_rows(subspace, what):
    """ParseError naming ``subspace_int_rows`` unless the subspace a
    document gives (``what`` says whose) has no integer rows, or exactly dim
    rows of exact rank dim, each within INT_ROWS_TOL (relative) of the span
    of its float basis."""
    rows, k = subspace.int_rows, subspace.dim
    if not rows:
        return
    name = f"{what} field 'subspace_int_rows'"
    if len(rows) != k or exact.exact_rank(rows, subspace.ambient_dim) != k:
        raise ParseError(f"{name} does not hold {k} independent rows")
    # int / int rounds correctly however large the ints are.
    R = np.array([[v / max(map(abs, row)) for v in row] for row in rows])
    off = R - (R @ subspace.basis) @ subspace.basis.T
    if (np.linalg.norm(off, axis=1) > INT_ROWS_TOL * np.linalg.norm(R, axis=1)).any():
        raise ParseError(f"{name} holds a row outside the span of 'subspace_basis'")


def span_of(points):
    """Subspace spanned by the given nonzero integer points.

    The rank and pivot rows are decided exactly (``exact.IntSpan``); the
    basis itself is the float QR of the pivot rows.  Raises NonInteger on a
    non-integer array.
    """
    pts = np.asarray(points)
    if not np.issubdtype(pts.dtype, np.integer):
        raise NonInteger(f"span of non-integer points (dtype {pts.dtype})")
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[0] == 0:
        raise EmptyInput("span of empty point set")
    d = pts.shape[1]
    piv = exact.exact_pivot_indices(pts, dim=d)
    if not piv:
        raise EmptyInput("all points are zero")
    Q, _ = np.linalg.qr(pts[piv].astype(np.float64).T)
    int_rows = [tuple(int(v) for v in pts[i]) for i in piv]
    return Subspace(d, Q[:, : len(piv)], int_rows=int_rows)


def full_space(d):
    return Subspace(d, np.eye(d), int_rows=[tuple(int(v) for v in row) for row in np.eye(d, dtype=np.int64)])
