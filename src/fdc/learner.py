"""Halfspace learning under Massart noise with Forster preprocessing.

The driver loop conditions on the region the current partial classifier
abstains on, Forster-transforms a conditioned sample (so the mapped points are
unit-norm with second moment pinned near I/k, hence no large outliers), runs
the weak learner there, and chains the resulting one-band stages until the
abstention mass drops below eps/3.  Residual abstentions resolve to +1; the
proof charges them wholesale, so the resolved label is immaterial.

The weak learner minimizes the leaky surrogate
    L(w) = E[ max(lambda * m, (1 - lambda) * m) ],   m = -y (w . x),
(leak lambda = eta + eps'/4) by projected subgradient descent over the unit
ball, then picks the widest score band whose validation conditional error
clears eta + eps' - eps'/8.

Every point the learner touches is first reduced to its primitive direction
(divided by the gcd of its coordinates, sign kept).  Labels of homogeneous
halfspaces and every stage decision are invariant under positive rescaling,
so this is semantics-free, and it makes runs on inputs that differ only in
per-point scales bit-identical.

The weak learner's sample is held compressed: the distinct canonical rows
(mapped once each), a per-draw index into them and the per-draw labels.  On a
finite-support oracle the distinct rows are the primitive directions of the
support rows the pool hit; on a continuous marginal they are the distinct
canonical draws.  The subgradient descent runs on per-(row, label) counts, so
its cost scales with the number of distinct rows, not the number of draws;
the draw order still decides which draws train and which validate.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact, rng
from .dataset import PointSet, sign_pm1
from .errors import (
    CoverageFailure,
    DegenerateSecondMoment,
    IterationCapExceeded,
    ParseError,
    SingularTransform,
)
from .exact import distinct_rows, membership_mask, primitive_rows
from .linalg import Subspace
from .transform import forster_transform, mapped_unit_rows

TAG_LEARN = 101


@dataclass
class OutlierBound:
    gamma: float

    def __post_init__(self):
        if not self.gamma >= 1.0 - 1e-9:
            raise ValueError("gamma must be >= 1")


def outlier_bound(vectors, counts=None):
    """Smallest Gamma such that no input is a Gamma-outlier.

    Equals max_x sqrt(x^T Sigma^{-1} x) with Sigma the empirical second-moment
    matrix: the definitional supremum over directions v of |v.x| /
    sqrt(E|v.X|^2) is attained at v = Sigma^{-1} x (Rayleigh quotient).
    ``counts`` gives each row's multiplicity (rows with count 0 are absent).
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DegenerateSecondMoment("need a nonempty 2-d array of vectors")
    if counts is None:
        c = np.ones(X.shape[0])
    else:
        c = np.asarray(counts, dtype=np.float64)
        X, c = X[c > 0], c[c > 0]
        if X.shape[0] == 0:
            raise DegenerateSecondMoment("all multiplicities are zero")
    sigma = ((X.T * c) @ X) / c.sum()
    eigvals = np.linalg.eigvalsh(sigma)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 1e-300):
        raise DegenerateSecondMoment("second-moment matrix is singular on the span")
    sol = np.linalg.solve(sigma, X.T)
    quad = np.einsum("in,ni->i", X, sol)
    return OutlierBound(float(np.sqrt(quad.max())))


@dataclass
class Stage:
    """One chained band rule: claim x in V with |w . f_A(x)| >= threshold."""

    subspace: Subspace
    transform: np.ndarray
    w: np.ndarray
    threshold: float
    ambient_map: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = np.asarray(self.transform, dtype=np.float64)
        self.ambient_map = A @ self.subspace.basis.T  # (k, d): x -> A * coords(x)


@dataclass
class PartialClassifier:
    """Chain of stages mapping a point to {-1, *, +1}; * encoded as 0.

    A point is claimed by the first stage j with x in V_j (exact membership)
    and |w_j . f_{A_j}(x)| >= t_j; the claim is sign(w_j . f_{A_j}(x)) with
    sign(0) = +1.  ``predict`` resolves residual * to default_label.
    """

    stages: list
    default_label: int = 1

    def evaluate(self, X):
        Xc, _ = primitive_rows(X)
        n, d = Xc.shape
        out = np.zeros(n, dtype=np.int64)
        remaining = np.ones(n, dtype=bool)
        for stage in self.stages:
            if not remaining.any():
                break
            idx = np.nonzero(remaining)[0]
            Xi = Xc[idx]
            if stage.subspace.dim == d:
                member = np.ones(idx.size, dtype=bool)
            else:
                member = membership_mask(stage.subspace.int_rows, Xi)
            imgs = Xi.astype(np.float64) @ stage.ambient_map.T
            norms = np.linalg.norm(imgs, axis=1)
            scores = imgs @ stage.w
            claim = member & (norms > 0) & (np.abs(scores) >= stage.threshold * norms)
            labels = sign_pm1(scores)
            take = idx[claim]
            out[take] = labels[claim]
            remaining[take] = False
        return out

    def predict(self, X):
        out = self.evaluate(X)
        return np.where(out == 0, self.default_label, out)

    def star_mask(self, X):
        return self.evaluate(X) == 0


@dataclass
class LearnerConfig:
    """Sample sizes and derived parameters; all b-independent by construction."""

    eta: float
    eps: float
    delta: float
    C: float = 64.0
    transform_delta: float = 0.25
    gd_iters: int = 400

    def __post_init__(self):
        if not (0.0 <= self.eta < 0.5):
            raise ValueError("eta must lie in [0, 1/2)")
        if not (0.0 < self.eps < 1.0 and 0.0 < self.delta < 1.0):
            raise ValueError("eps and delta must lie in (0, 1)")

    def check_sample_size(self, d):
        return math.ceil(self.C * math.log(max(d * self.eps / self.delta, 2.0)) / self.eps ** 2)

    def forster_sample_size(self, d):
        return math.ceil(self.C * d ** 4 * math.log(max(1.0 / self.delta, 2.0)))

    @property
    def eps_prime(self):
        return self.eps / 2.0

    def iteration_cap(self, d):
        return math.ceil((48.0 * d / self.eps) * math.log(6.0 / self.eps)) * (
            1 + math.ceil(math.log(1.0 / self.delta))
        )

    def delta_prime(self, d):
        return self.delta / (d * self.iteration_cap(d) * 100.0)

    def weak_sample_size(self, d):
        dp = self.delta_prime(d)
        return math.ceil(4.0 * (d + math.log(1.0 / dp)) / self.eps_prime ** 2)

    @property
    def rejection_budget_per_point(self):
        return math.ceil(12.0 / self.eps)


@dataclass
class WeakStageResult:
    w: np.ndarray
    threshold: float
    val_coverage: float
    val_error: float
    gamma_empirical: float


def _band_select(s, rows_val, yval, eta, eps_prime, min_claim):
    """Widest prefix of the |score|-sorted validation draws whose conditional
    error clears the selection threshold; returns (threshold, coverage,
    error) or None.

    Draw i scores s[rows_val[i]]; the draws sort by descending |score|, ties
    in draw order.  Prefixes that end between two distinct |s| values are
    judged from per-value counts.  A tie group's interior is replayed in draw
    order only when it can hold the widest admissible prefix: an interior
    prefix j of a group that starts after E wrong draws has error at least
    E / (P_end - 1), and correctly rounded division is monotone, so the
    float test carries over.  Every error is the same float64 division of
    exact integer counts as in a per-draw cumulative sum.
    """
    m = rows_val.shape[0]
    target = eta + eps_prime - eps_prime / 8.0
    pred_pos = s >= 0  # sign_pm1(s) == +1
    # Per row: draws with label +1 and with label -1.
    lab = np.bincount(2 * rows_val + (yval > 0), minlength=2 * s.shape[0]).reshape(-1, 2)
    seen = np.flatnonzero(lab.any(axis=1))
    vals, group_of = np.unique(np.abs(s[seen]), return_inverse=True)
    vals, group_of = vals[::-1], vals.size - 1 - group_of  # group 0: largest |s|
    wrong_row = np.where(pred_pos[seen], lab[seen, 0], lab[seen, 1])
    P = np.cumsum(np.bincount(group_of, weights=lab[seen].sum(axis=1)).astype(np.int64))
    E = np.cumsum(np.bincount(group_of, weights=wrong_row).astype(np.int64))
    P0 = np.concatenate(([0], P[:-1]))  # draws before each group
    E0 = np.concatenate(([0], E[:-1]))

    ends = np.flatnonzero((E / P < target) & (P >= min_claim))
    last = int(ends[-1]) if ends.size else -1
    j = int(P[last]) if ends.size else 0
    inner = (P - P0 >= 2) & (P - 1 >= min_claim) & (E0 / np.maximum(P - 1, 1) < target)
    if inner[last + 1:].any():
        draw_group = np.full(s.shape[0], -1, dtype=np.int64)
        draw_group[seen] = group_of
        draw_group = draw_group[rows_val]
        for g in np.flatnonzero(inner[last + 1:])[::-1] + last + 1:
            at = np.flatnonzero(draw_group == g)
            wrong = pred_pos[rows_val[at]] != (yval[at] > 0)
            js = P0[g] + np.arange(1, at.size + 1)
            ok = ((E0[g] + np.cumsum(wrong)) / js < target) & (js >= min_claim)
            if ok.any():
                j = int(js[np.flatnonzero(ok)[-1]])
                break
    if j == 0:
        return None

    g = int(np.searchsorted(P, j))  # the group holding sorted position j
    if j >= m:
        t = 0.0
    else:
        t = 0.5 * (vals[g] + vals[g + 1 if j == P[g] else g])
        if t >= vals[g]:
            t = vals[g]

    def claim(t):
        n = int(np.searchsorted(-vals, -t, side="right"))  # groups with |s| >= t
        return float(E[n - 1] / P[n - 1]), float(P[n - 1] / m)

    err, cov = claim(t)
    if err >= target and j > min_claim:
        # ties dragged extra points in; fall back to the exact prefix value
        t = vals[g]
        err, cov = claim(t)
    return float(t), cov, err


def weak_partial_learner(F, rows, y, eta, eps_prime, gd_iters=400):
    """One band-rule partial classifier stage on mapped (unit-norm) samples.

    The sample is compressed: draw i is the row F[rows[i]] with label y[i],
    where F holds the distinct mapped rows (||f|| = 1) and labels follow a
    homogeneous halfspace with Massart noise <= eta.  The first half of the
    draws is training data (its first 80,000 draws feed the descent), the
    second half validation data.  Returns a WeakStageResult whose validation
    conditional error is below eta + eps' - eps'/8 with coverage at least 1e-3,
    or raises CoverageFailure.
    """
    F = np.asarray(F, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.intp)
    y = np.asarray(y, dtype=np.int64)
    m = rows.shape[0]
    u, k = F.shape
    if m < 8:
        raise CoverageFailure("too few samples for the weak learner")
    half = m // 2
    rows_val, yval = rows[half:], y[half:]
    try:
        gamma_emp = outlier_bound(F, np.bincount(rows[:half], minlength=u)).gamma
    except DegenerateSecondMoment:
        gamma_emp = float("inf")

    # Descent draws as counts over the signed rows y * f: key 2i + 1 is +f_i,
    # key 2i is -f_i.
    n_gd = min(half, 80_000)
    keys = 2 * rows[:n_gd] + (y[:n_gd] > 0)
    c = np.bincount(keys, minlength=2 * u)
    present = np.nonzero(c)[0]
    c = c[present].astype(np.float64)
    U = F[present // 2] * np.where(present % 2 == 1, 1.0, -1.0)[:, None]

    lam = min(eta + eps_prime / 4.0, 0.499)
    w0 = (c @ U) / n_gd
    n0 = np.linalg.norm(w0)
    w0 = w0 / n0 if n0 > 0 else np.eye(k)[0]

    w = w0.copy()
    best_w = w0.copy()
    best_loss = np.inf
    for t in range(gd_iters):
        margins = -(U @ w)
        slope = np.where(margins > 0, 1.0 - lam, lam)
        # A sum, not the dot product c @ h: a threaded BLAS dot can run
        # hundreds of times slower while another process holds a core.
        loss = float(np.sum(c * np.maximum(lam * margins, (1.0 - lam) * margins))) / n_gd
        if loss < best_loss:
            best_loss = loss
            best_w = w.copy()
        grad = -((c * slope) @ U) / n_gd
        w = w - (0.5 / math.sqrt(t + 1.0)) * grad
        nw = np.linalg.norm(w)
        if nw > 1.0:
            w = w / nw

    candidates = [best_w, w, w0]
    min_claim = max(1, math.ceil(1e-3 * rows_val.shape[0]))
    best = None
    for cand in candidates:
        nc = np.linalg.norm(cand)
        if nc == 0:
            continue
        cand = cand / nc
        sel = _band_select(F @ cand, rows_val, yval, eta, eps_prime, min_claim)
        if sel is None:
            continue
        t_band, cov, err = sel
        if best is None or cov > best[2]:
            best = (cand, t_band, cov, err)
    if best is None:
        raise CoverageFailure(
            "no band met the coverage floor at the required conditional error"
        )
    cand, t_band, cov, err = best
    return WeakStageResult(cand, t_band, cov, err, gamma_emp)


class ModelOracle:
    """Sequential example oracle over a MassartModel; single consumer.

    Draw i is a pure function of (seed, i), so the draw sequence is
    reproducible and independent of batching.  For uniform-support marginals
    the indexed interface exposes which support row each draw hit, letting the
    driver evaluate classifiers once per support row instead of once per draw;
    the realized (x, y) stream is bit-identical to ``draw``.
    """

    def __init__(self, model, seed):
        self.model = model
        self.seed = seed
        self.count = 0

    @property
    def support(self):
        if self.model.marginal.kind == "uniform":
            return self.model.marginal.support.points
        return None

    def draw(self, n):
        from .dataset import massart_draw

        ds = massart_draw(self.model, n, self.seed, start_index=self.count)
        self.count += n
        return ds.base.points, ds.labels

    def draw_indexed(self, n):
        from .dataset import TAG_MARGINAL

        if self.support is None:
            raise ValueError("indexed draws need a uniform-support marginal")
        gidx = np.arange(self.count, self.count + n, dtype=np.uint64)
        self.count += n
        rows = rng.integers(self.seed, TAG_MARGINAL, gidx, self.support.shape[0])
        return rows, gidx

    def labels_for(self, rows, gidx):
        """Labels of the draws ``gidx`` that hit support rows ``rows``: the
        clean label and flip rate are fixed per support row, the flip
        uniform is drawn per draw."""
        from .dataset import TAG_FLIP, eta_values

        S = self.support
        clean = sign_pm1(S.astype(np.float64) @ self.model.w_star)[rows]
        flips = rng.uniform01(self.seed, TAG_FLIP, gidx) < eta_values(self.model, S)[rows]
        return np.where(flips, -clean, clean)


class DatasetOracle:
    """Resamples rows (with replacement) of a fixed labeled dataset."""

    def __init__(self, dataset, seed):
        self.X = dataset.base.points
        self.y = dataset.labels
        self.seed = seed
        self.count = 0

    @property
    def support(self):
        return self.X

    def draw(self, n):
        rows, _ = self.draw_indexed(n)
        return self.X[rows], self.y[rows]

    def draw_indexed(self, n):
        gidx = np.arange(self.count, self.count + n, dtype=np.uint64)
        self.count += n
        rows = rng.integers(self.seed, TAG_LEARN, gidx, self.X.shape[0])
        return rows, gidx

    def labels_for(self, rows, gidx):
        return self.y[rows]


def _rejection_draw(oracle, method, keep, need, budget_draws):
    """Accumulate ``need`` draws of ``oracle.<method>`` (which returns a tuple
    of per-draw arrays) whose first array passes the mask ``keep(first)``;
    returns the accepted arrays, or None once budget_draws have been
    consumed.  Batches hold max(65536, need) draws; a batch whose draws all
    pass is kept as drawn, without a copy or an index array."""
    draw = getattr(oracle, method)
    accepted = []
    got = 0
    used = 0
    while got < need and used < budget_draws:
        batch = int(min(max(65536, need), budget_draws - used))
        arrays = draw(batch)
        used += batch
        m = keep(arrays[0])
        if m.all():
            got += batch
        else:
            idx = np.flatnonzero(m)
            arrays = [a.take(idx, axis=0) for a in arrays]
            got += idx.size
        accepted.append(arrays)
    if got < need:
        return None
    if len(accepted) == 1:
        return tuple(a[:need] for a in accepted[0])
    return tuple(np.concatenate(col)[:need] for col in zip(*accepted))


def _line_sample(lines, line_of, hits):
    """Compressed Forster input of a sample that hit support row i hits[i]
    times, where row i lies on the line lines[line_of[i]]: one row per line
    hit, with its summed hits, ordered by the line's first hit support row.
    exact.directions gives the hit support rows themselves the same rows,
    multiplicities and order, so the transform and its certificate are the
    ones the per-row sample would get."""
    present = np.flatnonzero(hits)
    hit_lines, first = np.unique(line_of[present], return_index=True)
    hit_lines = hit_lines[np.argsort(first)]
    # Float sums of integer counts below 2^53 are exact.
    per_line = np.bincount(line_of[present], weights=hits[present],
                           minlength=lines.shape[0])
    return lines[hit_lines], per_line[hit_lines].astype(np.int64)


def learn_halfspace(oracle, config, dim):
    """Algorithm-1 driver: returns (PartialClassifier with * -> +1, telemetry).

    Loops while the empirical abstention mass on a fresh check sample exceeds
    eps/3: draws a conditioned sample, Forster-transforms it (certificate
    lambda_min >= 1/(k + transform_delta) > 1/(2k)), runs the weak learner on
    the mapped conditioned distribution with eps' = eps/2, and extends the
    chain.  Rejection-budget exhaustion means the uncovered mass collapsed and
    exits the loop; exceeding the iteration cap raises.

    An oracle with a finite ``support`` and ``draw_indexed`` is drawn by
    support row.  Every per-point decision is then made once per distinct
    primitive direction of the support, and the Forster transform sees one
    row per line through the origin, weighted by its hits: positive rescaling
    changes neither a halfspace's label nor a Forster transform.
    """
    d = dim
    check_n = config.check_sample_size(d)
    forster_n = config.forster_sample_size(d)
    weak_n = 2 * config.weak_sample_size(d)
    cap = config.iteration_cap(d)
    eps = config.eps
    budget_fac = config.rejection_budget_per_point
    support = getattr(oracle, "support", None)
    indexed = support is not None and hasattr(oracle, "draw_indexed")
    if indexed:
        method = "draw_indexed"
        directions, direction_of = distinct_rows(primitive_rows(support)[0])
        # Lines through the origin: each direction pooled with its negation;
        # support row i lies on lines[line_of[i]].
        lines, _, line_of = exact.directions(directions)
        line_of = line_of[direction_of]
    else:
        method = "draw"

    classifier = PartialClassifier([], default_label=1)
    telemetry = []
    for it in range(cap):
        if indexed:
            star_dir = (
                classifier.star_mask(directions)
                if classifier.stages
                else np.ones(directions.shape[0], dtype=bool)
            )
            star_support = star_dir[direction_of]

        def star(first):
            """Mask of the draws (support rows, or points) h abstains on."""
            if indexed:
                return star_support[first]
            if classifier.stages:
                return classifier.star_mask(first)
            return np.ones(len(first), dtype=bool)

        p_hat = float(np.mean(star(getattr(oracle, method)(check_n)[0])))
        record = {"iteration": it, "uncovered": p_hat}
        if p_hat <= eps / 3.0:
            record["exit"] = "covered"
            telemetry.append(record)
            return classifier, telemetry

        drawn = _rejection_draw(oracle, method, star, forster_n, forster_n * budget_fac)
        if drawn is None:
            record["exit"] = "rejection_budget"
            telemetry.append(record)
            return classifier, telemetry
        if indexed:
            hits = np.bincount(drawn[0], minlength=support.shape[0])
            sample, counts = _line_sample(lines, line_of, hits)
        else:
            sample, counts = primitive_rows(drawn[0])[0], None
        piece = forster_transform(PointSet(d, sample), config.transform_delta,
                                  counts=counts)
        V, A, k = piece.subspace, piece.transform, piece.subspace.dim
        record["piece"] = {
            "dim": k,
            "lambda_min": piece.certificate[0],
            "lambda_max": piece.certificate[1],
        }

        def in_V(X):
            return membership_mask(V.int_rows, primitive_rows(X)[0])

        # Weak pool, compressed: distinct canonical rows, a per-draw index
        # into them, and the per-draw labels.  Support rows that share a
        # primitive direction share one distinct row.
        if indexed:
            keep_support = (
                (star_dir & in_V(directions))[direction_of] if k < d else star_support
            )

        def keep(first):
            if indexed:
                return keep_support[first]
            return star(first) & in_V(first) if k < d else star(first)

        pool = _rejection_draw(oracle, method, keep, weak_n, weak_n * budget_fac * 2 * d)
        if pool is None:
            record["exit"] = "rejection_budget"
            telemetry.append(record)
            return classifier, telemetry
        if indexed:
            yw = oracle.labels_for(*pool)
            # Renumber the hit directions 0.. in direction order.
            dirs = direction_of[pool[0]]
            present = np.bincount(dirs, minlength=directions.shape[0]) > 0
            rows = (np.cumsum(present) - 1)[dirs]
            distinct = directions[present]
        else:
            yw = pool[1]
            distinct, rows = distinct_rows(primitive_rows(pool[0])[0])
        F = mapped_unit_rows(A, distinct.astype(np.float64) @ V.basis)
        stage_res = weak_partial_learner(
            F, rows, yw, config.eta, config.eps_prime,
            gd_iters=config.gd_iters,
        )
        classifier = PartialClassifier(
            classifier.stages + [Stage(V, A, stage_res.w, stage_res.threshold)],
            default_label=1,
        )
        record["stage"] = {
            "coverage": stage_res.val_coverage,
            "conditional_error": stage_res.val_error,
            "gamma_empirical": stage_res.gamma_empirical,
        }
        telemetry.append(record)
    raise IterationCapExceeded(f"loop did not terminate within {cap} iterations")


@dataclass
class EvalReport:
    error_claimed: float
    coverage: float
    total_error: float


def evaluate_classifier(classifier, test):
    """Empirical misclassification on claimed points, claimed fraction, and
    total error with * resolved to the classifier's default label."""
    X, y = test.base.points, test.labels
    partial = classifier.evaluate(X)
    claimed = partial != 0
    coverage = float(np.mean(claimed))
    if claimed.any():
        error_claimed = float(np.mean(partial[claimed] != y[claimed]))
    else:
        error_claimed = 0.0
    resolved = np.where(partial == 0, classifier.default_label, partial)
    total_error = float(np.mean(resolved != y))
    return EvalReport(error_claimed, coverage, total_error)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def classifier_to_dict(classifier, config=None, telemetry=None):
    doc = {
        "default_label": classifier.default_label,
        "stages": [
            {
                "subspace_basis": s.subspace.basis.tolist(),
                "subspace_int_rows": [list(map(int, r)) for r in (s.subspace.int_rows or [])],
                "transform": np.asarray(s.transform).tolist(),
                "w": np.asarray(s.w).tolist(),
                "threshold": float(s.threshold),
            }
            for s in classifier.stages
        ],
    }
    if config is not None:
        doc["config"] = {
            "eta": config.eta, "eps": config.eps, "delta": config.delta,
            "C": config.C, "transform_delta": config.transform_delta,
        }
    if telemetry is not None:
        doc["telemetry"] = telemetry
    return doc


def _finite(value, name, shape=None):
    """``value`` as a float array of finite numbers (of ``shape`` if given)."""
    arr = np.asarray(value)
    if (arr.dtype.kind not in "iuf" or (shape is not None and arr.shape != shape)
            or not np.all(np.isfinite(arr))):
        raise ParseError(f"model field {name!r} is not finite numbers of shape {shape}")
    return arr.astype(np.float64)


def classifier_from_dict(doc):
    """Inverse of ``classifier_to_dict``.  Checks keys, types, shapes (basis
    (d, k), transform (k, k), w (k,), one d for all stages) and finiteness,
    raising ParseError; a transform that is not invertible raises
    SingularTransform."""
    try:
        stages, label = [], doc.get("default_label", 1)
        for s in doc["stages"]:
            basis = _finite(s["subspace_basis"], "subspace_basis")
            d, k = basis.shape if basis.ndim == 2 else (0, 0)
            rows = [tuple(r) for r in s.get("subspace_int_rows", [])]
            if (not 1 <= k <= d or (stages and d != stages[0].subspace.ambient_dim)
                    or (k < d and not rows) or any(len(r) != d for r in rows)
                    or not all(type(v) is int for r in rows for v in r)):
                raise ParseError("model stage subspace is malformed")
            A = _finite(s["transform"], "transform", (k, k))
            if np.linalg.matrix_rank(A) < k:
                raise SingularTransform("model stage transform is not invertible")
            threshold = s["threshold"]
            if type(threshold) not in (int, float) or not math.isfinite(threshold):
                raise ParseError("model field 'threshold' is not a finite number")
            stages.append(Stage(Subspace(d, basis, int_rows=rows or None), A,
                                _finite(s["w"], "w", (k,)), float(threshold)))
        if label not in (-1, 1):
            raise ParseError("model field 'default_label' is not -1 or 1")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model: {exc!r}") from None
    return PartialClassifier(stages, default_label=int(label))
