"""Reference heavy-subspace engines that the tests cross-check
``fdc.heavy.find_heavy_subspace`` against, and an eigenvalue re-check of
scaling weights, ``recheck_certificate``.

They share no code with the package: they import numpy and the standard
library only, and every rank and membership decision goes through one exact
eliminator, ``Span``, in ``Fraction``s.  The brute force enumerates the spans
of all small subsets.  The literal feasibility-LP engine follows the paper's
construction: a central-cut cutting plane over the box with the greedy
matroid oracle, extraction of a heavy subspace from a feasible vector, and
the pair-swap sweep for the equality threshold.  Both are for small
instances.  Each engine returns a ``Result``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

BRUTE_MAX_DIM = 4
BRUTE_MAX_N = 12


@dataclass
class Result:
    """A heavy-subspace decision: the subspace's dimension and the indices
    of the points it holds, when one was found."""

    found: bool
    dim: int = None
    member_indices: list = None


class ExtractionFailed(Exception):
    """A vector the LP accepted did not yield a heavy subspace."""


def _rows(points):
    return [tuple(int(v) for v in r) for r in points]


class Span:
    """Row space over Q of integer rows, by Gaussian elimination in
    ``Fraction``s: ``basis`` holds (pivot column, row scaled to 1 there),
    each row zero at the earlier rows' pivots."""

    def __init__(self, rows=()):
        self.basis = []
        for row in rows:
            self.add(row)

    @property
    def dim(self):
        return len(self.basis)

    def _reduce(self, row):
        v = [int(x) for x in row]   # ints until a basis row makes Fractions
        for col, b in self.basis:
            if v[col]:
                c = v[col]
                v = [x - c * y for x, y in zip(v, b)]
        return v

    def add(self, row):
        """Adds ``row``; True when it was independent of the span."""
        v = self._reduce(row)
        col = next((j for j, x in enumerate(v) if x), None)
        if col is None:
            return False
        pivot = Fraction(v[col])
        self.basis.append((col, [x / pivot for x in v]))
        return True

    def __contains__(self, row):
        return not any(self._reduce(row))

    def members(self, rows):
        """Indices of the rows in the span."""
        return [i for i, r in enumerate(rows) if r in self]


def brute_force_heavy_subspace(points, k=None):
    """Exhaustive heavy-subspace decision for d <= 4, n <= 12.

    Within a k-dimensional subspace holding the points (default: their
    span), enumerates the spans of all subsets of at most k-1 points and
    returns a subspace meeting the fraction threshold
    |S cap W| * k >= dim(W) * |S| (the canonical one by max excess, min
    dimension, lexicographic members), else not-found.  Points spanning
    less than k dimensions are their own answer.  Raises ValueError beyond
    the documented instance size.
    """
    rows = _rows(points)
    n, d = len(rows), len(rows[0])
    if d > BRUTE_MAX_DIM or n > BRUTE_MAX_N:
        raise ValueError(f"brute force limited to d<={BRUTE_MAX_DIM}, n<={BRUTE_MAX_N}")
    span = Span(rows)
    k = span.dim if k is None else k
    if span.dim < k:
        return Result(True, span.dim, list(range(n)))
    best = None
    seen = set()
    for size in range(1, k):
        for comb in combinations(rows, size):
            W = Span(comb)
            if W.dim != size:
                continue
            members = tuple(W.members(rows))
            if members in seen:
                continue
            seen.add(members)
            excess = k * len(members) - n * size
            if excess >= 0 and (best is None or (-excess, size, members) < best):
                best = (-excess, size, members)
    if best is None:
        return Result(False)
    return Result(True, best[1], list(best[2]))


class Greedy:
    """The greedy matroid oracle on fixed integer rows.  A row equal to one
    met earlier in a walk is dependent on the rows chosen by then, so it is
    skipped; whether a set of distinct rows is independent is decided once
    (by ``Span``) and memoized."""

    def __init__(self, rows):
        ids = {}
        self.ids = [ids.setdefault(r, len(ids)) for r in rows]
        self.distinct = list(ids)
        self.independent = {}

    def basis(self, weights, k):
        """(order, positions): the rows by weight descending (ties by
        index), and the positions (ascending) within that order of the
        greedy basis of k rows; ValueError if the rows span fewer."""
        order = np.lexsort((np.arange(len(weights)), -np.asarray(weights, dtype=np.float64)))
        chosen, seen, positions = frozenset(), set(), []
        for pos, i in enumerate(order.tolist()):
            r = self.ids[i]
            if r in seen:
                continue
            seen.add(r)
            key = chosen | {r}
            ok = self.independent.get(key)
            if ok is None:
                ok = self.independent[key] = Span(
                    self.distinct[j] for j in key).dim == len(key)
            if ok:
                chosen = key
                positions.append(pos)
                if len(positions) == k:
                    return order, positions
        raise ValueError(f"points span only {len(positions)} of {k} dimensions")


def max_weight_basis(points, subspace_dim, weights):
    """Indices (ascending) of the maximum-weight linearly independent set of
    size subspace_dim: greedy over points by weight descending, ties broken by
    smaller index, skipping points dependent on the chosen prefix.

    Raises ValueError if the points do not span a subspace_dim-dimensional
    space, or without one weight per point.
    """
    rows = _rows(points)
    if len(weights) != len(rows):
        raise ValueError("one weight per point required")
    order, positions = Greedy(rows).basis(weights, subspace_dim)
    return sorted(int(order[p]) for p in positions)


def central_cut(cut, center, r0, lo, hi, side, budget):
    """Central-cut ellipsoid method over the box [lo, hi]^n.

    Starts from the ball of radius r0 around ``center``.  Each step cuts on a
    violated box face, else on ``cut(center)``: a normal a of a constraint the
    center violates (the feasible set lies in a . x <= a . center), or None to
    accept the center, which is then returned.  When the feasible set is
    nonempty it contains a box of side ``side``, so the ellipsoid's volume
    dropping below that box's, or its half-width along a cut normal or its
    shortest semi-axis dropping to side/2, is an infeasibility verdict:
    returns None.  Raises RuntimeError on numerical failure or after
    ``budget`` steps.
    """
    n = center.size
    P = np.eye(n) * (r0 * r0)
    log_det = 2.0 * n * math.log(r0)
    log_ball = 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)
    log_vol_min = n * math.log(side)
    half2 = (0.5 * side) ** 2
    for it in range(budget):
        if log_ball + 0.5 * log_det <= log_vol_min:
            return None
        low = int(np.argmin(center))
        high = int(np.argmax(center))
        if center[low] < lo:
            a = np.zeros(n)
            a[low] = -1.0
        elif center[high] > hi:
            a = np.zeros(n)
            a[high] = 1.0
        else:
            a = cut(center)
            if a is None:
                return center
        Pa = P @ a
        aPa = float(a @ Pa)
        if not math.isfinite(aPa):
            raise RuntimeError("ellipsoid lost definiteness")
        slab2 = half2 * float(a @ a)
        if aPa <= slab2:
            if aPa < -16.0 * slab2:
                raise RuntimeError("ellipsoid lost definiteness")
            return None
        ga = Pa / math.sqrt(aPa)
        center = center - ga / (n + 1.0)
        P = (n * n / (n * n - 1.0)) * (P - (2.0 / (n + 1.0)) * np.outer(ga, ga))
        # Symmetrize and pad: keeps P positive definite under round-off; the
        # pad only inflates the volume, so the infeasible verdict stays sound.
        P = 0.5 * (P + P.T)
        P *= 1.0 + 1e-12
        log_det += (
            n * math.log(n * n / (n * n - 1.0))
            + math.log(max(1.0 - 2.0 / (n + 1.0), 1e-12))
            + n * 1e-12
        )
        if it % 32 == 31:
            # The eigenfloor also repairs round-off drift in P and log_det.
            eigs = np.linalg.eigvalsh(P)
            if eigs[0] <= half2:
                return None
            log_det = float(np.sum(np.log(eigs)))
    raise RuntimeError("ellipsoid budget exhausted without a verdict")


def lp_feasible(points, subspace_dim):
    """Feasible vector for the basis-threshold LP, or None if infeasible.

    The LP over [0,1]^N has one constraint per basis B of the points,
    sum_i v_i >= (N/k) * sum_{i in B} v_i + 1, and is feasible iff some
    proper subspace holds >= (N/k)*dim(W) + 1 points.  Solved by
    ``central_cut``; the violated-constraint oracle is the greedy
    maximum-weight basis at the current center.  A center is accepted once
    the worst constraint holds with slack >= -margin (margin = 1/(4N));
    binary certificates have integral slack >= 0, so the relaxation admits no
    spurious accepts, and any feasible instance keeps an inward box of side
    margin/(2N) around a binary certificate.

    Requires N to be a multiple of subspace_dim (callers duplicate points).
    Raises RuntimeError on numerical failure, which is distinct from the
    infeasible (None) verdict.
    """
    greedy = Greedy(_rows(points))
    N, k = len(greedy.ids), subspace_dim
    if N % k != 0:
        raise ValueError("point count must be a multiple of the subspace dimension")
    margin = 1.0 / (4.0 * N)
    budget = int(16 * N * N * (k + math.log(max(N, 2))))
    ratio = N / k

    def cut(center):
        order, positions = greedy.basis(center, k)
        basis = order[positions]
        if center.sum() - ratio * center[basis].sum() - 1.0 >= -margin:
            return None
        a = -np.ones(N)
        a[basis] += ratio
        return a

    return central_cut(cut, np.full(N, 0.5), 0.5 * math.sqrt(N), 0.0, 1.0,
                       margin / (2.0 * N), budget)


def extract_subspace(points, subspace_dim, feasible_v):
    """Heavy subspace read off a feasible LP vector.

    Sorts the weights descending (ties by index), reruns the greedy basis, and
    locates kappa with basis position p_{kappa+1} > (N/k)*kappa + 1; the first
    (N/k)*kappa + 1 sorted points then span a kappa-dimensional subspace.
    ExtractionFailed if there is no such kappa.
    """
    rows = _rows(points)
    N, k = len(rows), subspace_dim
    order, positions = Greedy(rows).basis(feasible_v, k)
    kappa = next((j for j in range(1, k) if positions[j] + 1 > N / k * j + 1), None)
    if kappa is None:
        raise ExtractionFailed("no kappa with p_{kappa+1} > (N/k)kappa + 1")
    W = Span(rows[i] for i in order[: (N * kappa) // k + 1])
    if W.dim != kappa:
        raise ExtractionFailed(f"extracted head spans dim {W.dim}, expected {kappa}")
    return Result(True, kappa, W.members(rows))


def _strict_lp_decision(rows, k):
    """Strict-threshold decision via the duplicated LP.

    Detects subspaces whose integer count excess k*|S cap W| - |S|*dim(W) is at
    least gcd(|S|, k); smaller positive excesses and the equality case are the
    equality stage's job.  Returns a verified result or None.
    """
    m = k // math.gcd(len(rows), k)
    dup = [r for r in rows for _ in range(m)]   # row i is dup[i*m : (i+1)*m]
    v = lp_feasible(dup, k)
    if v is None:
        return None
    hit = extract_subspace(dup, k, v)
    members = sorted({t // m for t in hit.member_indices})
    if k * len(members) - len(rows) * hit.dim < 1:
        raise ExtractionFailed("LP extraction produced a non-heavy subspace")
    return Result(True, hit.dim, members)


def pair_swap_search(points, subspace_dim):
    """The all-pairs replacement sweep, run literally with the LP engine.

    For each ordered pair (source i, replaced j) the point list with x_j
    replaced by a copy of x_i is fed to the strict LP; any extracted subspace
    is re-verified against the *original* counts and returned on first hit
    (pairs in lexicographic order, so the result is deterministic).
    """
    rows = _rows(points)
    n0, k = len(rows), subspace_dim
    for i in range(n0):
        for j in range(n0):
            if i == j:
                continue
            mod = rows.copy()
            mod[j] = rows[i]
            W = Span(mod)
            if W.dim >= k:
                # The swap kept the span: ask the strict LP.
                try:
                    hit = _strict_lp_decision(mod, k)
                except ExtractionFailed:
                    hit = None
                if hit is None:
                    continue
                W = Span(mod[t] for t in hit.member_indices)
            members = W.members(rows)
            if k * len(members) >= n0 * W.dim:
                return Result(True, W.dim, members)
    return Result(False)


def lp_heavy_subspace(points):
    """The heavy-subspace decision within the span of the points, by the
    literal LP engine: the strict LP, then the pair-swap sweep for the
    equality threshold.  Small instances only."""
    rows = _rows(points)
    k = Span(rows).dim
    if k == 1:
        return Result(False)
    return _strict_lp_decision(rows, k) or pair_swap_search(rows, k)


RECHECK_TOL = 1e-9


def recheck_certificate(points, weights):
    """Independent eigenvalue re-check of the scaling inequality
    c^2(x) x x^T <= ((k + delta)/n) * Sigma_c for every row x.

    Uses LAPACK eigenvalues (np.linalg.eigvalsh), a different route from the
    package's leverages, and allows a worst eigenvalue down to -RECHECK_TOL
    of tr(Sigma_c).  ``weights`` holds ``c_sq`` and ``delta``.  Returns
    (ok, worst_eigenvalue, threshold).
    """
    pts = np.asarray(points, dtype=np.float64)
    n, k = pts.shape
    c = np.asarray(weights.c_sq, dtype=np.float64)
    sigma = (pts * c[:, None]).T @ pts
    scaled = ((k + weights.delta) / n) * sigma
    mats = scaled[None, :, :] - c[:, None, None] * np.einsum("ni,nj->nij", pts, pts)
    mins = np.linalg.eigvalsh(mats)[:, 0]
    threshold = -RECHECK_TOL * float(np.trace(sigma))
    return bool(mins.min() >= threshold), float(mins.min()), threshold
