"""Exact integer linear algebra: rank, pivots, span membership, primitive
directions.

All decision-critical geometry (heavy-subspace counts, piece membership,
classifier stage locality) is computed over the raw integer coordinates with
fraction-free elimination, so decisions are unaffected by floating-point
round-off.  A subspace W is held as an integer basis of its orthogonal
complement (``IntSpan``, the one eliminator over Q, which also gives a
span's rank and pivot rows), so membership of a whole point array is one
product perp . X tested for zero: in int64 when no partial sum can overflow,
else first modulo PRIME, where a nonzero residue proves a nonzero product,
and in Python ints for the rows left.  Python's arbitrary-precision ints
carry the intermediate growth (entries stay the size of W's minors after
per-row gcd reduction; dimensions here are <= ~20).
Modulo ``exact_prime(rows)`` every set of the rows has its rank over Q.
"""

import math

import numpy as np

from .errors import EmptyInput, ParseError, SizeLimit

INT64_LIMIT = 2 ** 63
# Finding a direction negates in int64, where -2^63 has no negation.
NO_NEGATION = f"coordinate {-INT64_LIMIT} has no int64 negation"


def as_int_rows(points):
    """Convert an (n, d) integer array (or row list) to tuples of Python ints."""
    arr = np.asarray(points)
    return [tuple(int(v) for v in row) for row in arr.reshape(arr.shape[0], -1)]


def primitive_rows(X):
    """Each row of an integer array divided by the gcd of its entries, sign
    kept.  Returns (P, g) with X == g[:, None] * P; raises EmptyInput on a zero
    row, which has no direction, and ParseError naming the 1-based row on an
    entry -2^63, whose absolute value int64 cannot hold."""
    X = np.asarray(X, dtype=np.int64)
    if X.min(initial=0) == -INT64_LIMIT:
        row = int(np.argmax((X == -INT64_LIMIT).any(axis=1))) + 1
        raise ParseError(NO_NEGATION, line=row)
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
            g = math.gcd(*row)
            if g > 1:
                row = [v // g for v in row]
        out.append(row)
    return out


# The largest prime below 2^28: a product of two residues is below 2^56, so
# int64 (whose numpy arithmetic wraps silently) holds a residue plus a sum of
# RESIDUE_BLOCK such products.
PRIME = 268_435_399
RESIDUE_BLOCK = (INT64_LIMIT - PRIME) // (PRIME - 1) ** 2


def annihilated(perp, X):
    """Mask of the rows x of an integer array X with perp . x == 0 exactly,
    i.e. of the points in the subspace whose complement ``perp`` spans.

    When d * max|perp| * max|X| < 2^63 no partial sum can overflow, and the
    product runs in int64.  Otherwise it runs modulo PRIME first, reduced
    every RESIDUE_BLOCK columns: a row with a nonzero residue is not a
    member, and only the rows whose residues all vanish are converted to
    Python ints and multiplied exactly.
    """
    X = np.asarray(X)
    n, d = X.shape
    if not perp or n == 0:
        return np.full(n, not perp, dtype=bool)
    pmax = max(abs(v) for row in perp for v in row)
    xmax = max(-int(X.min()), int(X.max()))
    if d * pmax * xmax < INT64_LIMIT:
        return ~(X @ np.array(perp, dtype=np.int64).T).any(axis=1)
    R = X % PRIME
    P = np.array([[v % PRIME for v in row] for row in perp], dtype=np.int64).T
    resid = np.zeros((n, len(perp)), dtype=np.int64)
    for j in range(0, d, RESIDUE_BLOCK):
        resid += R[:, j:j + RESIDUE_BLOCK] @ P[j:j + RESIDUE_BLOCK]
        resid %= PRIME
    cand = np.nonzero(~resid.any(axis=1))[0]
    mask = np.zeros(n, dtype=bool)
    if cand.size:
        exact_rows = np.array(as_int_rows(X[cand]), dtype=object)
        mask[cand] = ~(exact_rows @ np.array(perp, dtype=object).T != 0).any(axis=1)
    return mask


# Exponents q of the Mersenne primes 2^q - 1 from 2^31 - 1 to 2^132049 - 1.
MERSENNE_EXPONENTS = (31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
                      9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049)


def exact_prime(rows):
    """The least Mersenne prime above Hadamard's bound on every minor of
    the integer rows, the product of their d largest norms (d columns).
    Every nonzero minor is then nonzero modulo it, so every subset of the
    rows has the same rank over F_p as over Q (Cabay and Lam 1977).  Raises
    SizeLimit past the last exponent of MERSENNE_EXPONENTS."""
    rows = np.asarray(rows)
    norms = sorted((math.isqrt(sum(v * v for v in row)) + 1 for row in as_int_rows(rows)),
                   reverse=True)
    bound = math.prod(norms[:rows.shape[1]])
    for q in MERSENNE_EXPONENTS:
        if 2 ** q - 1 > bound:
            return 2 ** q - 1
    raise SizeLimit(f"Hadamard's bound on the minors exceeds 2^{MERSENNE_EXPONENTS[-1]} - 1")


class IntSpan:
    """The integer subspace W of Q^dim spanned by ``rows`` (an array or a
    list of integer vectors, possibly empty), with exact membership.

    Held as ``perp``, integer rows spanning W^perp (the identity while W is
    zero), so x lies in W iff perp . x == 0: ``contains(x)`` tests one point
    (``annihilated`` tests every row of an array at once), and ``add(x)``
    extends W by x with one ``extend_perp`` step and reports whether it grew.
    ``pivots`` lists the indices of the given rows that grew W, the first
    maximal independent subset in their order; rows after W reaches full
    rank are never read.
    """

    def __init__(self, dim, rows=()):
        self.dim = dim
        self.perp = [[int(i == j) for j in range(dim)] for i in range(dim)]
        self.pivots = []
        for i, x in enumerate(rows):
            if self.add(x):
                self.pivots.append(i)
                if not self.perp:
                    break

    @property
    def rank(self):
        return self.dim - len(self.perp)

    def contains(self, x):
        x = [int(v) for v in x]
        return not any(sum(a * b for a, b in zip(row, x)) for row in self.perp)

    def add(self, x):
        perp = extend_perp(self.perp, [int(v) for v in x])
        if perp is None:
            return False
        self.perp = perp
        return True


def membership_mask(basis_rows, points):
    """Exact membership of every point (rows of an integer array) in
    span(basis_rows); the basis may be an array, and an empty one spans 0."""
    pts = np.asarray(points)
    return annihilated(IntSpan(pts.shape[1], basis_rows).perp, pts)
