"""Deterministic dense linear algebra kernel, and subspaces.

The rule: factorizations (QR) come from LAPACK, certificate eigenvalues
from Jacobi, and audit eigenvalues from LAPACK ``eigvalsh``, so construction
and audit share no eigensolver code.  The Jacobi iteration runs in
round-robin order, vectorized over the disjoint pairs of each round and over
a batch axis: certificates must reproduce bit-for-bit across runs, and Jacobi
has no pivoting heuristics or threading nondeterminism.

Spans are of integer points only, and their rank decisions are exact
(``exact.IntSpan``).  ``Subspace`` holds the exact membership test and the
document form of every piece's and learner stage's subspace.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import exact
from .dataset import finite_array
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

    def members(self, X):
        """Exact membership mask of the rows of the integer array X: all True
        for the full space, else ``exact.membership_mask`` on ``int_rows``."""
        if self.dim == self.ambient_dim:
            return np.ones(len(X), dtype=bool)
        return exact.membership_mask(self.int_rows, X)


def subspace_to_dict(V):
    """The document fields of a subspace: its float basis and integer rows."""
    return {
        "subspace_basis": V.basis.tolist(),
        "subspace_int_rows": [list(map(int, r)) for r in (V.int_rows or [])],
    }


def subspace_from_dict(doc, what):
    """Inverse of ``subspace_to_dict`` on the document ``doc`` of a piece or
    a stage, which ``what`` names ("piece 1").  ParseError naming it and the
    field unless ``subspace_basis`` is a finite (d, k) array with
    1 <= k <= d and ``subspace_int_rows`` holds rows of d integers: none for
    the full space, else exactly k rows of exact rank k, each within
    INT_ROWS_TOL (relative) of the span of the basis.  Other faults (a missing key, a wrong JSON
    type, a basis that is not orthonormal) raise for the reader to report."""
    basis = finite_array(doc["subspace_basis"], what, "subspace_basis")
    d, k = basis.shape if basis.ndim == 2 else (0, 0)
    rows = [tuple(r) for r in doc.get("subspace_int_rows", [])]
    if (not 1 <= k <= d or any(len(r) != d for r in rows)
            or not all(type(v) is int for r in rows for v in r)):
        raise ParseError(f"{what} field 'subspace_basis' or 'subspace_int_rows' is malformed")
    if rows or k < d:
        name = f"{what} field 'subspace_int_rows'"
        if len(rows) != k or exact.IntSpan(d, rows).rank != k:
            raise ParseError(f"{name} does not hold {k} independent rows")
        # int / int rounds correctly however large the ints are.
        R = np.array([[v / max(map(abs, row)) for v in row] for row in rows])
        off = R - (R @ basis) @ basis.T
        if (np.linalg.norm(off, axis=1) > INT_ROWS_TOL * np.linalg.norm(R, axis=1)).any():
            raise ParseError(f"{name} holds a row outside the span of 'subspace_basis'")
    return Subspace(d, basis, int_rows=rows or None)


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
    piv = exact.IntSpan(d, pts).pivots
    if not piv:
        raise EmptyInput("all points are zero")
    Q, _ = np.linalg.qr(pts[piv].astype(np.float64).T)
    int_rows = [tuple(int(v) for v in pts[i]) for i in piv]
    return Subspace(d, Q[:, : len(piv)], int_rows=int_rows)
