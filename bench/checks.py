"""Output checks that share no code with fdc.

Exact decisions (rank, span membership) use Python integers and
``fractions.Fraction``; spectral ones use LAPACK through ``numpy.linalg``.
Nothing here imports fdc, so a fault in ``fdc.exact``, ``fdc.linalg`` or
``fdc.transform.verify_piece`` cannot hide itself.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Exact rational linear algebra
# ---------------------------------------------------------------------------

def _primitive(row):
    """Row divided by the gcd of its entries, first nonzero entry positive."""
    g = 0
    for v in row:
        g = math.gcd(g, v)
    if g == 0:
        return None
    out = tuple(v // g for v in row)
    first = next(v for v in out if v)
    return out if first > 0 else tuple(-v for v in out)


def _rref(rows, dim):
    """Reduced row echelon form of integer rows: list of (pivot, Fraction row).

    Proportional rows are merged first (they add nothing to the span), and
    elimination stops once the rank reaches ``dim``.
    """
    seen = set()
    basis = []
    for raw in rows:
        prim = _primitive([int(v) for v in raw])
        if prim is None or prim in seen:
            continue
        seen.add(prim)
        v = [Fraction(x) for x in prim]
        for p, b in basis:
            if v[p]:
                c = v[p]
                v = [x - c * y for x, y in zip(v, b)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            continue
        inv = v[piv]
        v = [x / inv for x in v]
        for i, (p, b) in enumerate(basis):
            if b[piv]:
                c = b[piv]
                basis[i] = (p, [x - c * y for x, y in zip(b, v)])
        basis.append((piv, v))
        if len(basis) == dim:
            break
    return basis


def rank(rows, dim):
    """Exact rank of integer rows in Z^dim."""
    return len(_rref(rows, dim))


def null_basis(rows, dim):
    """Integer vectors z spanning {z : r . z = 0 for every row r}.

    A point x lies in span(rows) exactly when z . x = 0 for all of them.
    """
    basis = _rref(rows, dim)
    pivots = {p: b for p, b in basis}
    out = []
    for f in range(dim):
        if f in pivots:
            continue
        z = [Fraction(0)] * dim
        z[f] = Fraction(1)
        for p, b in pivots.items():
            z[p] = -b[f]
        lcm = 1
        for x in z:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        out.append([int(x * lcm) for x in z])
    return out


def span_member_mask(int_rows, X):
    """Exact membership of each row of the integer array X in span(int_rows).

    A float residual against the integer null basis rejects clear
    non-members: for a true member the exact residual is 0 and the float one
    is at most d * 2^-52 of its scale, far below the 1e-9 cut.  Rows that
    pass are confirmed with Python integers.
    """
    X = np.asarray(X)
    N = null_basis(int_rows, X.shape[1])
    if not N:
        return np.ones(X.shape[0], dtype=bool)
    Nf = np.array(N, dtype=np.float64)
    Xf = X.astype(np.float64)
    resid = np.abs(Xf @ Nf.T)
    scale = np.abs(Xf) @ np.abs(Nf).T
    cand = np.nonzero(np.all(resid <= 1e-9 * scale, axis=1))[0]
    mask = np.zeros(X.shape[0], dtype=bool)
    if cand.size:
        exact = X[cand].astype(object) @ np.array(N, dtype=object).T
        mask[cand] = np.all(exact == 0, axis=1)
    return mask


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------

def check_decomposition(points, pieces, delta):
    """Properties every Forster decomposition of ``points`` must have.

    ``pieces`` are objects with ``member_indices``, ``subspace.basis`` (d x k,
    orthonormal columns), ``subspace.int_rows`` (integer rows spanning V) and
    ``transform`` (k x k), in peel order.
    """
    X = np.asarray(points, dtype=np.int64)
    n, d = X.shape
    problems = []
    members = [np.asarray(p.member_indices, dtype=np.int64) for p in pieces]
    flat = np.concatenate(members) if members else np.zeros(0, dtype=np.int64)
    if flat.size != n or not np.array_equal(np.sort(flat), np.arange(n)):
        problems.append("member indices do not partition the input")
    bound = d * (math.ceil(math.log(n)) + 1) if n > 1 else d
    if len(pieces) > bound:
        problems.append(f"{len(pieces)} pieces exceed d(ceil(ln n)+1) = {bound}")
    remaining = np.ones(n, dtype=bool)
    for j, (piece, m) in enumerate(zip(pieces, members)):
        if m.size == 0 or m.min() < 0 or m.max() >= n or not remaining[m].all():
            problems.append(f"piece {j}: lists an index outside the residual set")
            continue
        basis = np.asarray(piece.subspace.basis, dtype=np.float64)
        k = basis.shape[1]
        int_rows = piece.subspace.int_rows or []
        if rank(int_rows, d) != k:
            problems.append(f"piece {j}: integer rows do not span a {k}-dim V")
            continue
        if np.max(np.abs(basis.T @ basis - np.eye(k))) > 1e-9:
            problems.append(f"piece {j}: basis is not orthonormal")
        R = np.asarray(int_rows, dtype=np.float64)
        off = np.linalg.norm(R - (R @ basis) @ basis.T, axis=1)
        if np.any(off > 1e-9 * np.linalg.norm(R, axis=1)):
            problems.append(f"piece {j}: float basis does not span the integer V")
        inside = span_member_mask(int_rows, X[m])
        if not inside.all():
            problems.append(
                f"piece {j}: member {int(m[~inside][0])} lies outside V"
            )
        imgs = (X[m].astype(np.float64) @ basis) @ np.asarray(piece.transform).T
        norms = np.linalg.norm(imgs, axis=1)
        if np.any(norms <= 0):
            problems.append(f"piece {j}: transform annihilates a member")
        else:
            f = imgs / norms[:, None]
            eig = np.linalg.eigvalsh(f.T @ f / m.size)
            dist = float(np.max(np.abs(eig - 1.0 / k)))
            if dist > delta:
                problems.append(
                    f"piece {j}: mapped moment is {dist:.3e} from I/k (delta {delta})"
                )
        res = np.nonzero(remaining)[0]
        r = rank(X[res].tolist(), d)
        if m.size * r < k * res.size:
            problems.append(
                f"piece {j}: |members| * rank(residual) = {m.size * r} "
                f"< dim(V) * |residual| = {k * res.size}"
            )
        remaining[m] = False
    return problems


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------

def stages_from_classifier(classifier):
    """(basis, int_rows, transform, w, threshold) per stage of an in-memory
    classifier, read from its attributes."""
    return [
        (np.asarray(s.subspace.basis, dtype=np.float64), s.subspace.int_rows,
         np.asarray(s.transform, dtype=np.float64),
         np.asarray(s.w, dtype=np.float64), float(s.threshold))
        for s in classifier.stages
    ]


def stages_from_model(doc):
    """The same tuples from a model file written by ``fdc learn``."""
    return [
        (np.asarray(s["subspace_basis"], dtype=np.float64), s["subspace_int_rows"],
         np.asarray(s["transform"], dtype=np.float64),
         np.asarray(s["w"], dtype=np.float64), float(s["threshold"]))
        for s in doc["stages"]
    ]


def predict(stages, X, default_label=1):
    """Labels of a chained band classifier.

    A point is claimed by the first stage whose V holds it (exactly) and
    whose mapped score has |w . f| >= threshold * |f|; unclaimed points get
    ``default_label``.
    """
    X = np.asarray(X, dtype=np.int64)
    n, d = X.shape
    out = np.zeros(n, dtype=np.int64)
    open_ = np.ones(n, dtype=bool)
    Xf = X.astype(np.float64)
    for basis, int_rows, A, w, t in stages:
        idx = np.nonzero(open_)[0]
        if idx.size == 0:
            break
        inside = (np.ones(idx.size, dtype=bool) if basis.shape[1] == d
                  else span_member_mask(int_rows, X[idx]))
        imgs = (Xf[idx] @ basis) @ A.T
        norms = np.linalg.norm(imgs, axis=1)
        scores = imgs @ w
        claim = inside & (norms > 0) & (np.abs(scores) >= t * norms)
        out[idx[claim]] = np.where(scores[claim] >= 0, 1, -1)
        open_[idx[claim]] = False
    out[open_] = default_label
    return out


def check_error(stages, X, y, bound, default_label=1):
    """Misclassification rate of the classifier on (X, y) and the problems
    found: the rate must not exceed ``bound``."""
    err = float(np.mean(predict(stages, X, default_label) != np.asarray(y)))
    problems = [] if err <= bound else [f"error {err:.4f} exceeds {bound:.4f}"]
    return err, problems
