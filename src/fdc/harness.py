"""Experiment and audit harness: reference heavy-subspace engines, the
Massart model's example oracle and its counting wrapper, seeded trials, and
the bit-complexity-independence study.

Two reference engines decide the heavy-subspace predicate independently of
``fdc.heavy``.  The brute-force oracle shares no decision code with it
(Fraction-based reduced row echelon, exhaustive span enumeration).  The
literal feasibility-LP engine follows the paper's construction: a central-cut
cutting plane over the box with the greedy matroid oracle, extraction of a
heavy subspace from a feasible vector, and the pair-swap sweep for the
equality threshold.  Both are for small instances and cross-checks.
"""

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import exact, rng
from .dataset import (
    EtaSpec,
    MassartModel,
    PointSet,
    _draw_gaussian_grid,
    as_point_array,
    gen_hard_instance,
    massart_draw,
    massart_draw_rows,
)
from .errors import (
    InternalInvariantViolated,
    IterationBudgetExceeded,
    RankDeficient,
    SizeLimit,
)
from .heavy import HeavySubspaceResult
from .learner import (
    TRANSFORM_DELTA,
    LearnerConfig,
    learn_halfspace,
    score_partial,
)
from .linalg import span_of

BRUTE_MAX_DIM = 4
BRUTE_MAX_N = 12


# ---------------------------------------------------------------------------
# Brute-force heavy-subspace oracle (independent implementation)
# ---------------------------------------------------------------------------

def _frac_basis(rows):
    """Reduced basis (pivot-normalized Fraction rows) of the given int rows."""
    basis = []
    for r in rows:
        v = [Fraction(int(x)) for x in r]
        for pivot_col, b in basis:
            if v[pivot_col] != 0:
                c = v[pivot_col]
                v = [vi - c * bi for vi, bi in zip(v, b)]
        for j, x in enumerate(v):
            if x != 0:
                inv = x
                v = [vi / inv for vi in v]
                basis.append((j, v))
                break
    return basis


def _frac_in_span(basis, row):
    v = [Fraction(int(x)) for x in row]
    for pivot_col, b in basis:
        if v[pivot_col] != 0:
            c = v[pivot_col]
            v = [vi - c * bi for vi, bi in zip(v, b)]
    return all(x == 0 for x in v)


def brute_force_heavy_subspace(point_set, V=None):
    """Exhaustive heavy-subspace decision for d <= 4, n <= 12.

    Enumerates the spans of all subsets of at most dim(V)-1 points and returns
    a subspace meeting the fraction threshold |S cap W| * dim(V) >= dim(W) * |S|
    (the canonical one by max excess, min dimension, lexicographic members),
    else not-found.  Raises SizeLimit beyond the documented instance size.
    """
    pts = as_point_array(point_set)
    n, d = pts.shape
    if d > BRUTE_MAX_DIM or n > BRUTE_MAX_N:
        raise SizeLimit(f"brute force limited to d<={BRUTE_MAX_DIM}, n<={BRUTE_MAX_N}")
    rows = [tuple(int(v) for v in r) for r in pts]
    if V is None:
        V = span_of(pts)
    k = V.dim
    span_rows_basis = _frac_basis(rows)
    if len(span_rows_basis) < k:
        return HeavySubspaceResult(True, span_of(pts), list(range(n)))
    if k == 1:
        return HeavySubspaceResult(False)
    best = None
    seen = set()
    for size in range(1, k):
        for comb in combinations(range(n), size):
            basis = _frac_basis([rows[i] for i in comb])
            kappa = len(basis)
            if kappa != size or kappa >= k:
                continue
            members = tuple(i for i in range(n) if _frac_in_span(basis, rows[i]))
            if members in seen:
                continue
            seen.add(members)
            excess = k * len(members) - n * kappa
            if excess < 0:
                continue
            key = (-excess, kappa, members)
            if best is None or key < best[0]:
                best = (key, members)
    if best is None:
        return HeavySubspaceResult(False)
    (_, _, members) = best[0]
    W = span_of(pts[list(members)])
    return HeavySubspaceResult(True, W, list(best[1]))


# ---------------------------------------------------------------------------
# Literal feasibility-LP engine (greedy matroid oracle + cutting plane)
# ---------------------------------------------------------------------------

def _greedy_positions(pts, order, k):
    """Positions (ascending) within ``order`` of the greedy basis of the
    points taken in that order: each point joins when it is independent of
    those already chosen (exact, ``exact.IntSpan``)."""
    span = exact.IntSpan(pts.shape[1])
    chosen = []
    for pos, i in enumerate(order):
        if span.add(pts[i]):
            chosen.append(pos)
            if len(chosen) == k:
                break
    return chosen


def _weight_order(weights):
    w = np.asarray(weights, dtype=np.float64)
    return np.lexsort((np.arange(w.size), -w))


def max_weight_basis(points, subspace_dim, weights):
    """Indices (ascending) of the maximum-weight linearly independent set of
    size subspace_dim: greedy over points by weight descending, ties broken by
    smaller index, skipping points dependent on the chosen prefix.

    Raises RankDeficient if the points do not span a subspace_dim-dimensional
    space.
    """
    pts = as_point_array(points)
    if len(weights) != pts.shape[0]:
        raise ValueError("one weight per point required")
    order = _weight_order(weights)
    positions = _greedy_positions(pts, order, subspace_dim)
    if len(positions) < subspace_dim:
        raise RankDeficient(
            f"points span only {len(positions)} of {subspace_dim} dimensions"
        )
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
    returns None.  Raises
    IterationBudgetExceeded on numerical failure or after ``budget`` steps.
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
            raise IterationBudgetExceeded("ellipsoid lost definiteness")
        slab2 = half2 * float(a @ a)
        if aPa <= slab2:
            if aPa < -16.0 * slab2:
                raise IterationBudgetExceeded("ellipsoid lost definiteness")
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
    raise IterationBudgetExceeded("ellipsoid budget exhausted without a verdict")


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
    Raises IterationBudgetExceeded on numerical failure, which is distinct
    from the infeasible (None) verdict.
    """
    pts = as_point_array(points)
    N = pts.shape[0]
    k = subspace_dim
    if N % k != 0:
        raise ValueError("point count must be a multiple of the subspace dimension")
    margin = 1.0 / (4.0 * N)
    budget = int(16 * N * N * (k + math.log(max(N, 2))))
    ratio = N / k

    def cut(center):
        order = _weight_order(center)
        positions = _greedy_positions(pts, order, k)
        if len(positions) < k:
            raise RankDeficient("points do not span the subspace")
        basis = order[positions]
        if center.sum() - ratio * center[basis].sum() - 1.0 >= -margin:
            return None
        a = -np.ones(N)
        a[basis] += ratio
        return a

    return central_cut(cut, np.full(N, 0.5), 0.5 * math.sqrt(N), 0.0, 1.0,
                       margin / (2.0 * N), budget)


def _members(W, pts):
    mask = exact.membership_mask(W.int_rows, pts)
    return [int(i) for i in np.nonzero(mask)[0]]


def extract_subspace(points, subspace_dim, feasible_v):
    """Heavy subspace read off a feasible LP vector.

    Sorts the weights descending (ties by index), reruns the greedy basis, and
    locates kappa with basis position p_{kappa+1} > (N/k)*kappa + 1; the first
    (N/k)*kappa + 1 sorted points then span a kappa-dimensional subspace.
    """
    pts = as_point_array(points)
    N = pts.shape[0]
    k = subspace_dim
    ratio = N / k
    order = _weight_order(feasible_v)
    positions = _greedy_positions(pts, order, k)
    if len(positions) < k:
        raise RankDeficient("points do not span the subspace")
    kappa = None
    for j in range(1, k):
        p_next = positions[j] + 1  # 1-based position of basis element j+1
        if p_next > ratio * j + 1:
            kappa = j
            break
    if kappa is None:
        raise InternalInvariantViolated(
            "no kappa with p_{kappa+1} > (N/k)kappa + 1; vector was not feasible"
        )
    t = (N * kappa) // k + 1
    W = span_of(pts[order[:t]])
    if W.dim != kappa:
        raise InternalInvariantViolated(
            f"extracted head spans dim {W.dim}, expected {kappa}"
        )
    return HeavySubspaceResult(True, W, _members(W, pts))


def _strict_lp_decision(pts, k):
    """Strict-threshold decision via the duplicated LP.

    Detects subspaces whose integer count excess k*|S cap W| - |S|*dim(W) is at
    least gcd(|S|, k); smaller positive excesses and the equality case are the
    equality stage's job.  Returns a verified result or None.
    """
    n0 = pts.shape[0]
    m = k // math.gcd(n0, k)
    dup = np.repeat(pts, m, axis=0)
    v = lp_feasible(dup, k)
    if v is None:
        return None
    W = extract_subspace(dup, k, v).subspace
    members = _members(W, pts)
    if k * len(members) - n0 * W.dim < 1:
        raise InternalInvariantViolated("LP extraction produced a non-heavy subspace")
    return HeavySubspaceResult(True, W, members)


def pair_swap_search(points, subspace_dim):
    """The all-pairs replacement sweep, run literally with the LP engine.

    For each ordered pair (source i, replaced j) the point list with x_j
    replaced by a copy of x_i is fed to the strict LP; any extracted subspace
    is re-verified against the *original* counts and returned on first hit
    (pairs in lexicographic order, so the result is deterministic).  Intended
    for small instances and tests; ``find_heavy_subspace`` resolves the same
    equality band by exact enumeration.
    """
    pts = as_point_array(points)
    n0 = pts.shape[0]
    k = subspace_dim
    for i in range(n0):
        for j in range(n0):
            if i == j:
                continue
            mod = pts.copy()
            mod[j] = pts[i]
            if exact.exact_rank(exact.as_int_rows(mod)) < k:
                # Swap collapsed the span: the span itself is the candidate.
                W = span_of(mod)
            else:
                try:
                    hit = _strict_lp_decision(mod, k)
                except InternalInvariantViolated:
                    hit = None
                if hit is None:
                    continue
                W = hit.subspace
            members = _members(W, pts)
            if k * len(members) >= n0 * W.dim:
                return HeavySubspaceResult(True, W, members)
    return HeavySubspaceResult(False)


def lp_heavy_subspace(point_set):
    """``heavy.find_heavy_subspace`` within the span of the points, decided
    by the literal LP engine: the strict LP, then the pair-swap sweep for the
    equality threshold.  Small instances only; raw multisets (no
    multiplicities)."""
    pts = as_point_array(point_set)
    k = span_of(pts).dim
    if k == 1:
        return HeavySubspaceResult(False)
    return _strict_lp_decision(pts, k) or pair_swap_search(pts, k)


# ---------------------------------------------------------------------------
# Seeded generators for audit instances
# ---------------------------------------------------------------------------

TAG_RAND_PTS = 41


def random_point_set(dim, n, coord_bound, seed):
    """Uniform integer points with coordinates in [-coord_bound, coord_bound],
    zero rows nudged to e1."""
    flat = np.arange(n * dim, dtype=np.uint64)
    X = (rng.integers(seed, TAG_RAND_PTS, flat, 2 * coord_bound + 1) - coord_bound)
    X = X.reshape(n, dim).astype(np.int64)
    zero = ~X.any(axis=1)
    X[zero, 0] = 1
    return PointSet(dim, X)


def general_position_model(dim, n_support, eta, seed, bits=10, eta_kind="constant"):
    """Massart model whose marginal is uniform over a random general-position
    integer support (discretized gaussian grid)."""
    idx = np.arange(n_support, dtype=np.uint64)
    X = _draw_gaussian_grid(seed, idx, dim, scale=float(2 ** (bits - 2)), bits=bits)
    support = PointSet(dim, X)
    w = rng.normals(seed, 99, np.arange(1, dtype=np.uint64), cols=dim)[0]
    w /= np.linalg.norm(w)
    spec = EtaSpec(eta_kind, value=eta) if eta_kind == "constant" else EtaSpec(eta_kind)
    return MassartModel(w, eta, spec, support)


# ---------------------------------------------------------------------------
# Example oracles and learning trials
# ---------------------------------------------------------------------------

class ModelOracle:
    """Sequential example oracle over a MassartModel; single consumer.

    Draw i is a pure function of (seed, i), so the draw sequence is
    reproducible and independent of batching.  ``draw_indexed(n)`` returns
    the support rows of the next n draws and their counter range of draw
    indices, and ``labels_for`` takes the accepted draws' share of that
    tuple, so the learner evaluates classifiers once per support row instead
    of once per draw.  ``draw(n)`` returns the next n draws' points and
    labels, the same (x, y) stream.
    """

    def __init__(self, model, seed):
        self.model = model
        self.seed = seed
        self.count = 0
        self.index = np.arange(model.support.n)  # draws are support rows

    @property
    def support(self):
        return self.model.support.points

    def draw(self, n):
        ds = massart_draw(self.model, n, self.seed, start_index=self.count)
        self.count += n
        return ds.base.points, ds.labels

    def draw_indexed(self, n):
        gidx = range(self.count, self.count + n)
        self.count += n
        rows, _ = massart_draw_rows(self.model, self.seed, gidx, labeled=False)
        return rows, gidx

    def labels_for(self, rows, gidx):
        """Labels of the draws ``gidx`` that hit support rows ``rows``."""
        return massart_draw_rows(self.model, self.seed, gidx, rows=rows)[1]


class CountingOracle:
    """Wraps an oracle and audits the number of examples drawn."""

    def __init__(self, inner):
        self.inner = inner
        self.count = 0

    @property
    def support(self):
        return self.inner.support

    @property
    def index(self):
        return self.inner.index

    def draw_indexed(self, n):
        self.count += n
        return self.inner.draw_indexed(n)

    def labels_for(self, *drawn):
        return self.inner.labels_for(*drawn)


@dataclass
class TrialReport:
    seed: int
    config: dict
    telemetry: list
    final_error: float
    coverage: float
    sample_count: int
    wall_time: float


def run_learning_trial(model, config, seed, test_n=100_000):
    """One seeded learning run with draw accounting and held-out evaluation.

    The draw count is double-entry audited: the inner oracle advances its own
    counter per example and the wrapper counts independently; the two must
    agree exactly.  The test_n held-out draws are not learning draws and are
    not counted.  They are scored per support row: the classifier evaluates
    each support row once, and each draw takes its row's label, the same
    (x, y) stream and report as scoring ``massart_draw``'s points one by one.
    """
    if test_n < 1:
        raise ValueError("test_n must be >= 1")
    inner = ModelOracle(model, rng.derive_seed(seed, 1))
    oracle = CountingOracle(inner)
    t0 = time.perf_counter()
    classifier, telemetry = learn_halfspace(oracle, config, dim=model.dim)
    wall = time.perf_counter() - t0
    if inner.count != oracle.count:
        raise AssertionError(
            f"draw audit mismatch: oracle consumed {inner.count}, wrapper saw {oracle.count}"
        )
    rows, y = massart_draw_rows(model, rng.derive_seed(seed, 2), range(test_n))
    partial = classifier.evaluate(model.support.points)[rows]
    report = score_partial(partial, y, classifier.default_label)
    cfg = {
        "eta": config.eta, "eps": config.eps, "delta": config.delta, "C": config.C,
        "transform_delta": TRANSFORM_DELTA,
    }
    return classifier, TrialReport(
        seed=seed,
        config=cfg,
        telemetry=telemetry,
        final_error=report.total_error,
        coverage=report.coverage,
        sample_count=oracle.count,
        wall_time=wall,
    )


STUDY_COLUMNS = ("b", "trial", "error", "coverage", "draws", "seconds")


def bit_independence_study(dim, bits_list, eta, eps, trials, seed, delta=0.1,
                           n_support=400, test_n=100_000, config_kwargs=None):
    """Learning error under a fixed (b-independent) sample budget as the bit
    complexity of paired hard instances grows.

    For each b the instance shares its direction seed across the b column, so
    only per-point scales differ; the learner's budget comes from
    LearnerConfig alone.  Returns rows in STUDY_COLUMNS order; trials run on
    one worker per core (per-trial seeds, merged deterministically).
    """

    def one_cell(b, trial):
        model, _ = gen_hard_instance(dim, n_support, b, eta,
                                     rng.derive_seed(seed, trial))
        config = LearnerConfig(eta=eta, eps=eps, delta=delta,
                               **(config_kwargs or {}))
        t0 = time.perf_counter()
        _, report = run_learning_trial(model, config,
                                       rng.derive_seed(seed, trial, 7),
                                       test_n=test_n)
        return {
            "b": b,
            "trial": trial,
            "error": report.final_error,
            "coverage": report.coverage,
            "draws": report.sample_count,
            "seconds": time.perf_counter() - t0,
        }

    cells = [(b, trial) for b in bits_list for trial in range(trials)]
    workers = min(os.cpu_count() or 1, max(1, len(cells)))
    if workers == 1:
        return [one_cell(b, t) for b, t in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda bt: one_cell(*bt), cells))


def write_study_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(STUDY_COLUMNS))
        w.writeheader()
        for row in rows:
            w.writerow({c: row[c] for c in STUDY_COLUMNS})
