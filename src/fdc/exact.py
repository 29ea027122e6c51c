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


def primitive_row(row, keep_sign=True):
    """Divide a nonzero integer vector by the gcd of its entries.

    With keep_sign=False the result is additionally flipped so its first
    nonzero entry is positive (canonical up to +-, used to pool a point and its
    negation, whose second-moment contributions are identical).
    """
    g = row_gcd(row)
    if g == 0:
        raise EmptyInput("zero vector has no direction")
    out = tuple(int(v) // g for v in row)
    if not keep_sign:
        for v in out:
            if v != 0:
                if v < 0:
                    out = tuple(-u for u in out)
                break
    return out


class IntSpan:
    """Incrementally built integer row space with exact membership tests.

    Maintains a fraction-free row-echelon form.  ``extends(x)`` answers whether
    x is outside the current span; ``add(x)`` inserts it.  Rows are gcd-reduced
    after every elimination step to keep entries small.
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

    def extends(self, x):
        return not self.contains(x)

    def add(self, x):
        r = self._reduce(x)
        for p in range(self.dim):
            if r[p] != 0:
                self.rows.append(r)
                self.pivots.append(p)
                return True
        return False

    def copy(self):
        s = IntSpan(self.dim)
        s.rows = [list(r) for r in self.rows]
        s.pivots = list(self.pivots)
        return s


def exact_rank(rows, dim=None):
    if len(rows) == 0:
        return 0
    dim = dim if dim is not None else len(rows[0])
    span = IntSpan(dim)
    for r in rows:
        span.add([int(v) for v in r])
        if span.rank == dim:
            break
    return span.rank


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
