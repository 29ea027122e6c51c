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

from . import rng
from .dataset import PointSet, sign_pm1
from .errors import (
    CoverageFailure,
    DegenerateSecondMoment,
    IterationCapExceeded,
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
                member = membership_mask(
                    stage.subspace.int_rows, Xi, ortho_basis=stage.subspace.basis
                )
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


def _band_select(scores, y, eta, eps_prime, min_claim):
    """Widest prefix of |score|-sorted validation points whose conditional
    error clears the selection threshold; returns (threshold, coverage, error)
    or None."""
    m = scores.shape[0]
    target = eta + eps_prime - eps_prime / 8.0
    absval = np.abs(scores)
    order = np.argsort(-absval, kind="stable")
    pred = sign_pm1(scores[order])
    wrong = (pred != y[order]).astype(np.float64)
    cum_err = np.cumsum(wrong) / np.arange(1, m + 1)
    js = np.arange(1, m + 1)
    admissible = (cum_err < target) & (js >= min_claim)
    if not admissible.any():
        return None
    j = int(np.nonzero(admissible)[0][-1]) + 1  # widest admissible prefix
    if j >= m:
        t = 0.0
    else:
        t = 0.5 * (absval[order][j - 1] + absval[order][j])
        if t >= absval[order][j - 1]:
            t = absval[order][j - 1]
    claimed = absval >= t
    err = float(np.mean(sign_pm1(scores[claimed]) != y[claimed]))
    cov = float(np.mean(claimed))
    if err >= target and j > min_claim:
        # ties dragged extra points in; fall back to the exact prefix value
        t = float(absval[order][j - 1])
        claimed = absval >= t
        err = float(np.mean(sign_pm1(scores[claimed]) != y[claimed]))
        cov = float(np.mean(claimed))
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
        sel = _band_select((F @ cand)[rows_val], yval, eta, eps_prime, min_claim)
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
        from .dataset import TAG_FLIP, eta_values, sign_pm1

        X = self.support[rows]
        clean = sign_pm1(X.astype(np.float64) @ self.model.w_star)
        flips = rng.uniform01(self.seed, TAG_FLIP, gidx) < eta_values(self.model, X)
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
    consumed.  Batches hold max(65536, need) draws."""
    draw = getattr(oracle, method)
    accepted = []
    got = 0
    used = 0
    while got < need and used < budget_draws:
        batch = int(min(max(65536, need), budget_draws - used))
        arrays = draw(batch)
        used += batch
        m = keep(arrays[0])
        accepted.append([a[m] for a in arrays])
        got += int(m.sum())
    if got < need:
        return None
    return tuple(np.concatenate(col)[:need] for col in zip(*accepted))


def learn_halfspace(oracle, config, dim):
    """Algorithm-1 driver: returns (PartialClassifier with * -> +1, telemetry).

    Loops while the empirical abstention mass on a fresh check sample exceeds
    eps/3: draws a conditioned sample, Forster-transforms it (certificate
    lambda_min >= 1/(k + transform_delta) > 1/(2k)), runs the weak learner on
    the mapped conditioned distribution with eps' = eps/2, and extends the
    chain.  Rejection-budget exhaustion means the uncovered mass collapsed and
    exits the loop; exceeding the iteration cap raises.

    An oracle with a finite ``support`` and ``draw_indexed`` is drawn by
    support row, and every per-point decision is made once per support row.
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
        canonical, _ = primitive_rows(support)
        directions, direction_of = distinct_rows(canonical)
    else:
        method = "draw"

    classifier = PartialClassifier([], default_label=1)
    telemetry = []
    for it in range(cap):
        if indexed:
            star_support = (
                classifier.star_mask(support)
                if classifier.stages
                else np.ones(support.shape[0], dtype=bool)
            )

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
            # Compressed multiset: the draw only hit support rows.
            hits = np.bincount(drawn[0], minlength=support.shape[0])
            present = np.nonzero(hits)[0]
            sample, counts = canonical[present], hits[present]
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
            return membership_mask(V.int_rows, primitive_rows(X)[0], ortho_basis=V.basis)

        # Weak pool, compressed: distinct canonical rows, a per-draw index
        # into them, and the per-draw labels.  Support rows that share a
        # primitive direction share one distinct row.
        if indexed:
            keep_support = star_support & in_V(support) if k < d else star_support

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
            hit, rows = np.unique(direction_of[pool[0]], return_inverse=True)
            distinct = directions[hit]
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


def classifier_from_dict(doc):
    stages = []
    for s in doc["stages"]:
        basis = np.asarray(s["subspace_basis"], dtype=np.float64)
        int_rows = [tuple(r) for r in s.get("subspace_int_rows", [])] or None
        sub = Subspace(basis.shape[0], basis, int_rows=int_rows)
        stages.append(
            Stage(sub, np.asarray(s["transform"], dtype=np.float64),
                  np.asarray(s["w"], dtype=np.float64), float(s["threshold"]))
        )
    return PartialClassifier(stages, default_label=int(doc.get("default_label", 1)))
