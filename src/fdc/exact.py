"""Exact integer linear algebra: rank, span membership, primitive directions.

All decision-critical geometry (heavy-subspace counts, piece membership,
classifier stage locality) is computed over the raw integer coordinates with
fraction-free elimination, so decisions are unaffected by floating-point
round-off.  A subspace W is held as an integer basis of its orthogonal
complement, so membership of a whole point array is one product perp . X
tested for zero: in int64 when no partial sum can overflow, else through a
float prefilter and Python ints.  Python's arbitrary-precision ints carry the
intermediate growth (entries stay the size of W's minors after per-row gcd
reduction; dimensions here are <= ~20).
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


def extend_perp(perp, x):
    """One fraction-free elimination step on a complement basis.

    ``perp`` lists integer rows spanning W^perp for a subspace W of Q^d.
    Returns rows spanning (W + span(x))^perp, one fewer, or None when x
    already lies in W (every row annihilates it).  With y = perp . x and a
    pivot j where y_j != 0 (the least |y_j|), each row i becomes
    (y_j/g) row_i - (y_i/g) row_j, g = gcd(y_i, y_j), and is divided by the
    gcd of its entries; the pivot row drops out.  The entries stay about the
    size of W's minors: r generators of b bits give (b r)-bit entries
    (measured for d = 10 and b up to 47).
    """
    y = [sum(a * b for a, b in zip(row, x)) for row in perp]
    live = [i for i, v in enumerate(y) if v]
    if not live:
        return None
    j = min(live, key=lambda i: abs(y[i]))
    yj, rj = y[j], perp[j]
    out = []
    for i, row in enumerate(perp):
        if i == j:
            continue
        if y[i]:
            g = math.gcd(y[i], yj)
            a, b = yj // g, y[i] // g
            row = [a * u - b * v for u, v in zip(row, rj)]
            g = row_gcd(row)
            if g > 1:
                row = [v // g for v in row]
        out.append(row)
    return out


INT64_LIMIT = 2 ** 63


def annihilated(perp, X):
    """Mask of the rows x of an integer array X with perp . x == 0 exactly,
    i.e. of the points in the subspace whose complement ``perp`` spans.

    When d * max|perp| * max|X| < 2^63 no partial sum can overflow, and the
    product runs in int64.  Otherwise a float product prefilters: with each
    row of perp scaled into [-1, 1], a member's float residual is round-off,
    below 1e-12 of |perp| . |x|, so only rows inside that band are converted
    to Python ints and multiplied exactly.
    """
    X = np.asarray(X)
    n, d = X.shape
    if not perp or n == 0:
        return np.full(n, not perp, dtype=bool)
    pmax = max(abs(v) for row in perp for v in row)
    xmax = max(-int(X.min()), int(X.max()))
    if d * pmax * xmax < INT64_LIMIT:
        return ~(X @ np.array(perp, dtype=np.int64).T).any(axis=1)
    # int / int rounds correctly however large the ints are.
    pf = np.array([[v / (1 << max(abs(u) for u in row).bit_length()) for v in row]
                   for row in perp])
    xf = X.astype(np.float64)
    resid = np.abs(xf @ pf.T)
    band = np.abs(xf, out=xf) @ np.abs(pf).T
    band *= 1e-12
    band += 1e-290
    cand = np.nonzero((resid <= band).all(axis=1))[0]
    mask = np.zeros(n, dtype=bool)
    if cand.size:
        exact_rows = np.array(as_int_rows(X[cand]), dtype=object)
        prod = exact_rows @ np.array(perp, dtype=object).T
        mask[cand] = ~(prod != 0).any(axis=1)
    return mask


class IntSpan:
    """Incrementally built integer subspace W of Q^dim with exact membership.

    Held as ``perp``, integer rows spanning W^perp (the identity while W is
    zero), so x lies in W iff perp . x == 0: ``contains(x)`` tests one point,
    ``members(X)`` every row of an array at once (``annihilated``), and
    ``add(x)`` extends W by x with one ``extend_perp`` step and reports
    whether it grew.
    """

    def __init__(self, dim):
        self.dim = dim
        self.perp = [[int(i == j) for j in range(dim)] for i in range(dim)]

    @property
    def rank(self):
        return self.dim - len(self.perp)

    def contains(self, x):
        x = [int(v) for v in x]
        return not any(sum(a * b for a, b in zip(row, x)) for row in self.perp)

    def members(self, X):
        return annihilated(self.perp, X)

    def add(self, x):
        perp = extend_perp(self.perp, [int(v) for v in x])
        if perp is None:
            return False
        self.perp = perp
        return True


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


def membership_mask(basis_rows, points):
    """Exact membership of every point (rows of an integer array) in
    span(basis_rows)."""
    pts = np.asarray(points)
    return span_of_rows(basis_rows, dim=pts.shape[1]).members(pts)
