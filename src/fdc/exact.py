"""Exact integer linear algebra: rank, span membership, primitive directions.

All decision-critical geometry (heavy-subspace counts, piece membership,
classifier stage locality) is computed over the raw integer coordinates with
fraction-free elimination, so decisions are unaffected by floating-point
round-off.  Python's arbitrary-precision ints carry the intermediate growth
(entries stay small after per-row gcd reduction; dimensions here are <= ~20).
"""

import math

import numpy as np

from .errors import EmptyInput


def as_int_rows(points):
    """Convert an (n, d) integer array (or row list) to tuples of Python ints."""
    arr = np.asarray(points)
    return [tuple(int(v) for v in row) for row in arr.reshape(arr.shape[0], -1)]


def row_gcd(row):
    g = 0
    for v in row:
        g = math.gcd(g, abs(int(v)))
        if g == 1:
            return 1
    return g


def primitive_rows(X):
    """Each row of an integer array divided by the gcd of its entries, sign
    kept.  Returns (P, g) with X == g[:, None] * P; raises EmptyInput on a zero
    row, which has no direction."""
    X = np.asarray(X, dtype=np.int64)
    g = np.gcd.reduce(np.abs(X), axis=1)
    if not g.all():
        raise EmptyInput("zero vector has no direction")
    return X // g[:, None], g


def distinct_rows(X):
    """Distinct rows of an integer array and the index of each row among them.

    Rows are compared as raw bytes, which is exact for integers and about ten
    times faster than ``np.unique(X, axis=0)``; the distinct rows come out in
    byte order, not lexicographic order.
    """
    X = np.ascontiguousarray(X)
    keys = X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).ravel()
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq.view(X.dtype).reshape(-1, X.shape[1]), inverse.reshape(-1)


def directions(X):
    """Pool proportional rows: (dirs, mult, inverse).

    ``dirs`` holds the primitive directions, each flipped so its first nonzero
    entry is positive, in order of first occurrence; ``mult`` counts the rows
    on each and row i lies on dirs[inverse[i]].  Pooling x with lambda*x
    (lambda != 0) leaves spans, memberships, counts and second-moment
    contributions unchanged.
    """
    P, _ = primitive_rows(X)
    n = P.shape[0]
    lead = P[np.arange(n), np.argmax(P != 0, axis=1)]
    P = np.where((lead < 0)[:, None], -P, P)
    uniq, inverse = distinct_rows(P)
    # First occurrence order makes canonical selection downstream stable in
    # the original point indices, not in coordinate values.
    _, first = np.unique(inverse, return_index=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    mult = np.bincount(inverse, minlength=uniq.shape[0])
    return uniq[order], mult[order].astype(np.int64), rank[inverse].astype(np.int64)


class IntSpan:
    """Incrementally built integer row space with exact membership tests.

    Maintains a fraction-free row-echelon form.  ``contains(x)`` tests
    membership; ``add(x)`` inserts x and reports whether it extended the span.
    Rows are gcd-reduced after every elimination step to keep entries small.
    """

    def __init__(self, dim):
        self.dim = dim
        self.rows = []        # echelon rows (lists of int)
        self.pivots = []      # pivot column per row

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, x):
        x = [int(v) for v in x]
        for row, p in zip(self.rows, self.pivots):
            if x[p] != 0:
                a, b = row[p], x[p]
                x = [xi * a - ri * b for xi, ri in zip(x, row)]
                g = row_gcd(x)
                if g > 1:
                    x = [v // g for v in x]
        return x

    def contains(self, x):
        return all(v == 0 for v in self._reduce(x))

    def add(self, x):
        r = self._reduce(x)
        for p in range(self.dim):
            if r[p] != 0:
                self.rows.append(r)
                self.pivots.append(p)
                return True
        return False


def exact_rank(rows, dim=None):
    return len(exact_pivot_indices(rows, dim))


def exact_pivot_indices(rows, dim=None):
    """Indices of the first (in given order) maximal independent subset.

    Rows are converted lazily, so early full-rank termination never touches
    the tail of a large array.
    """
    if len(rows) == 0:
        return []
    dim = dim if dim is not None else len(rows[0])
    span = IntSpan(dim)
    out = []
    for i in range(len(rows)):
        if span.add([int(v) for v in rows[i]]):
            out.append(i)
            if span.rank == dim:
                break
    return out


def span_of_rows(rows, dim=None):
    """IntSpan of the given rows."""
    if not rows:
        raise EmptyInput("span of empty set")
    dim = dim if dim is not None else len(rows[0])
    span = IntSpan(dim)
    for r in rows:
        span.add(r)
    return span


def membership_mask(basis_rows, points, ortho_basis=None):
    """Exact membership of every point in span(basis_rows).

    A float orthogonal-projection prefilter (when ``ortho_basis``, a (d, r)
    column-orthonormal array, is supplied) rejects points whose relative
    residual exceeds 1e-2; true members have residual at machine level because
    the projector is built from an orthonormal Q, so the prefilter cannot
    mis-reject.  Points passing the prefilter, and only those, are converted to
    Python ints and confirmed exactly.
    """
    pts = np.asarray(points)
    n = pts.shape[0]
    mask = np.zeros(n, dtype=bool)
    span = span_of_rows(basis_rows, dim=pts.shape[1])
    if ortho_basis is not None and n > 0:
        x = pts.astype(np.float64)
        proj = x @ ortho_basis @ ortho_basis.T
        resid = np.linalg.norm(x - proj, axis=1)
        norms = np.linalg.norm(x, axis=1)
        candidates = np.nonzero(resid <= 1e-2 * np.maximum(norms, 1.0))[0]
    else:
        candidates = np.arange(n)
    if candidates.size:
        for i, row in zip(candidates, as_int_rows(pts[candidates])):
            if span.contains(row):
                mask[i] = True
    return mask
