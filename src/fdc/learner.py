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

Every oracle is a weighted finite support drawn by row: ``support`` is its
(u, d) array of support rows, ``index`` maps each of its rows to a support
row (the identity when every row is its own), ``draw_indexed(n)`` returns a
tuple whose first array is the rows of the next n draws, and ``labels_for``
takes the accepted draws' share of that tuple.  Per-row masks and maps are
found once per support row and indexed to the rows once per call, never per
draw.  The weak learner's sample is held compressed: the distinct primitive
directions of the rows the pool hit (mapped once each), a per-draw index
into them and the per-draw labels.  The subgradient descent runs on
per-(row, label) counts, so its cost scales with the number of distinct
rows, not the number of draws; the draw order still decides which draws
train and which validate.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact, rng
from .dataset import finite_array, sign_pm1
from .errors import (
    CoverageFailure,
    DegenerateSecondMoment,
    IterationCapExceeded,
    ParseError,
    SingularTransform,
)
from .exact import distinct_rows, primitive_rows
from .linalg import Subspace, subspace_from_dict, subspace_to_dict
from .transform import _forster_transform_once, mapped_unit_rows

TAG_LEARN = 101
# The Forster relaxation of every stage's transform (certificate lambda_min
# >= 1/(k + TRANSFORM_DELTA) > 1/(2k)), and the weak learner's descent steps.
TRANSFORM_DELTA = 0.25
GD_ITERS = 400


def outlier_bound(vectors, counts=None):
    """Smallest Gamma such that no input is a Gamma-outlier.

    Equals max_x sqrt(x^T Sigma^{-1} x) with Sigma the empirical second-moment
    matrix: the definitional supremum over directions v of |v.x| /
    sqrt(E|v.X|^2) is attained at v = Sigma^{-1} x (Rayleigh quotient).
    ``counts`` gives each row's multiplicity (rows with count 0 are absent).
    It is at least 1: the count-weighted mean of x^T Sigma^{-1} x is k.
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
    return float(np.sqrt(quad.max()))


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
        n = Xc.shape[0]
        out = np.zeros(n, dtype=np.int64)
        remaining = np.ones(n, dtype=bool)
        for stage in self.stages:
            if not remaining.any():
                break
            idx = np.nonzero(remaining)[0]
            Xi = Xc[idx]
            member = stage.subspace.members(Xi)
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


@dataclass
class LearnerConfig:
    """Sample sizes and derived parameters; all b-independent by construction."""

    eta: float
    eps: float
    delta: float
    C: float = 64.0

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


def weak_partial_learner(F, rows, y, eta, eps_prime):
    """One band-rule partial classifier stage on mapped (unit-norm) samples.

    The sample is compressed: draw i is the row F[rows[i]] with label y[i],
    where F holds the distinct mapped rows (||f|| = 1) and labels follow a
    homogeneous halfspace with Massart noise <= eta.  The first half of the
    draws is training data (its first 80,000 draws feed the descent), the
    second half validation data.  The band comes from the widest prefix of
    the |score|-sorted validation draws whose conditional error is below
    eta + eps' - eps'/8 and that holds at least 1e-3 of them; raises
    CoverageFailure when no candidate direction has one.  The returned
    threshold claims every draw whose |score| ties the prefix's last one, so
    when the prefix ends inside a tie group (as on a pool of one direction,
    where every |score| is 1) the returned ``val_error`` can exceed that
    target.
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
        gamma_emp = outlier_bound(F, np.bincount(rows[:half], minlength=u))
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
    for t in range(GD_ITERS):
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


class DatasetOracle:
    """Resamples rows (with replacement) of a fixed labeled dataset.

    ``draw_indexed(n)`` returns the 1-tuple of the next n draws' dataset
    rows: a draw's label is its row's, so ``labels_for`` needs no draw
    index.  ``support`` and ``index`` are the dataset's weighted support."""

    def __init__(self, dataset, seed):
        self.support = dataset.support.points
        self.index = dataset.index
        self.y = dataset.labels
        self.seed = seed
        self.count = 0

    def draw_indexed(self, n):
        gidx = range(self.count, self.count + n)
        self.count += n
        return (rng.integers(self.seed, TAG_LEARN, gidx, self.y.shape[0]),)

    def labels_for(self, rows):
        return self.y[rows]


def _rejection_draw(oracle, keep, need, budget_draws):
    """Accumulate ``need`` draws of ``oracle.draw_indexed`` (a tuple of
    per-draw arrays) whose rows pass the mask ``keep(rows)``; returns
    the accepted arrays, or None once budget_draws have been consumed.  A
    counter range in the tuple (a draw index range) becomes the int64 array
    of the accepted draws' indices.  Batches hold max(65536, need) draws; the
    arrays of a batch whose draws all pass are kept as drawn, without a
    copy."""
    accepted = []
    got = 0
    used = 0
    while got < need and used < budget_draws:
        batch = int(min(max(65536, need), budget_draws - used))
        arrays = oracle.draw_indexed(batch)
        used += batch
        m = keep(arrays[0])
        if m.all():
            arrays = [np.arange(a.start, a.stop) if isinstance(a, range) else a
                      for a in arrays]
            got += batch
        else:
            idx = np.flatnonzero(m)
            arrays = [idx + a.start if isinstance(a, range) else a[idx] for a in arrays]
            got += idx.size
        accepted.append(arrays)
    if got < need:
        return None
    if len(accepted) == 1:
        return tuple(a[:need] for a in accepted[0])
    return tuple(np.concatenate(col)[:need] for col in zip(*accepted))


def _rejection_hits(oracle, accept, need, budget_draws):
    """Per-row hits of the first ``need`` draws of ``oracle.draw_indexed``
    whose row r has ``accept[r]``, or None once budget_draws have been
    consumed.  The draws and batches are ``_rejection_draw``'s, and hits
    equals np.bincount of its rows; each batch is tallied as it is drawn, so
    no draw outlives its batch.  A batch whose accepted draws all count is
    tallied whole and masked per row, without selecting its draws."""
    hits = np.zeros(accept.shape[0], dtype=np.int64)
    got = 0
    used = 0
    while got < need and used < budget_draws:
        batch = int(min(max(65536, need), budget_draws - used))
        rows = oracle.draw_indexed(batch)[0]
        used += batch
        tally = np.bincount(rows, minlength=accept.shape[0]) * accept
        if got + tally.sum() > need:  # only the first need - got accepted count
            tally = np.bincount(rows[accept[rows]][:need - got], minlength=accept.shape[0])
        del rows  # before the next batch is drawn
        hits += tally
        got += int(tally.sum())
    return hits if got == need else None


def _line_sample(lines, line_of, hits):
    """Pooled directions, the input of ``_forster_transform_once``, of a
    sample that hit row i hits[i] times, where row i lies on the line
    lines[line_of[i]]: one row per line hit, with its summed hits, ordered
    by the line's first hit row.  These are the rows, multiplicities and
    order exact.directions gives the per-draw rows, so the transform and
    its certificate are the ones the per-draw sample would get."""
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
    lambda_min >= 1/(k + TRANSFORM_DELTA) > 1/(2k)), runs the weak learner on
    the mapped conditioned distribution with eps' = eps/2, and extends the
    chain.  Rejection-budget exhaustion means the uncovered mass collapsed and
    exits the loop; exceeding the iteration cap raises.

    Every per-point decision is made once per distinct primitive direction
    of the oracle's support, and the Forster transform sees one row per line
    through the origin, weighted by its hits: positive rescaling changes
    neither a halfspace's label nor a Forster transform.
    """
    d = dim
    check_n = config.check_sample_size(d)
    forster_n = config.forster_sample_size(d)
    weak_n = 2 * config.weak_sample_size(d)
    cap = config.iteration_cap(d)
    eps = config.eps
    budget_fac = config.rejection_budget_per_point
    # Drawn row i lies on directions[direction_of[i]], and on the line
    # through the origin lines[line_of[i]] (a direction pooled with its
    # negation).  Both are found on the support, then indexed once.
    directions, direction_of = distinct_rows(primitive_rows(oracle.support)[0])
    direction_of = direction_of[oracle.index]
    lines, _, line_of = exact.directions(directions)
    line_of = line_of[direction_of]

    classifier = PartialClassifier([], default_label=1)
    telemetry = []
    for it in range(cap):
        star_dir = (
            classifier.evaluate(directions) == 0
            if classifier.stages
            else np.ones(directions.shape[0], dtype=bool)
        )
        star_row = star_dir[direction_of]

        p_hat = float(np.mean(star_row[oracle.draw_indexed(check_n)[0]]))
        record = {"iteration": it, "uncovered": p_hat}
        if p_hat <= eps / 3.0:
            record["exit"] = "covered"
            telemetry.append(record)
            return classifier, telemetry

        hits = _rejection_hits(oracle, star_row, forster_n, forster_n * budget_fac)
        if hits is None:
            record["exit"] = "rejection_budget"
            telemetry.append(record)
            return classifier, telemetry
        _, V, A, _, (lam_min, lam_max, _) = _forster_transform_once(
            *_line_sample(lines, line_of, hits), TRANSFORM_DELTA)
        k = V.dim
        record["piece"] = {"dim": k, "lambda_min": lam_min, "lambda_max": lam_max}

        # Weak pool, compressed: distinct canonical rows, a per-draw index
        # into them, and the per-draw labels.  Rows that share a primitive
        # direction share one distinct row.
        keep_row = (star_dir & V.members(directions))[direction_of]
        pool = _rejection_draw(oracle, lambda rows: keep_row[rows], weak_n,
                               weak_n * budget_fac * 2 * d)
        if pool is None:
            record["exit"] = "rejection_budget"
            telemetry.append(record)
            return classifier, telemetry
        yw = oracle.labels_for(*pool)
        # Renumber the hit directions 0.. in direction order.
        rows = direction_of[pool[0]]
        present = np.bincount(rows, minlength=directions.shape[0]) > 0
        rows = (np.cumsum(present) - 1)[rows]
        distinct = directions[present]
        F = mapped_unit_rows(A, distinct.astype(np.float64) @ V.basis)
        stage_res = weak_partial_learner(F, rows, yw, config.eta, config.eps_prime)
        del pool, rows, yw  # before the next stage draws
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
    total error with * resolved to the classifier's default label.  The
    classifier evaluates the test set's support once per row."""
    partial = classifier.evaluate(test.support.points)[test.index]
    return score_partial(partial, test.labels, classifier.default_label)


def score_partial(partial, y, default_label):
    """EvalReport of per-example partial labels (0 for *) against labels y,
    with * resolved to default_label."""
    claimed = partial != 0
    coverage = float(np.mean(claimed))
    if claimed.any():
        error_claimed = float(np.mean(partial[claimed] != y[claimed]))
    else:
        error_claimed = 0.0
    resolved = np.where(partial == 0, default_label, partial)
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
                **subspace_to_dict(s.subspace),
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
            "C": config.C, "transform_delta": TRANSFORM_DELTA,
        }
    if telemetry is not None:
        doc["telemetry"] = telemetry
    return doc


def classifier_from_dict(doc):
    """Inverse of ``classifier_to_dict``.  Checks each stage's subspace
    (``subspace_from_dict``), keys, types, shapes (transform (k, k), w (k,),
    one d for all stages) and finiteness, raising ParseError naming the
    stage ("model stage 1") and the field; a transform that is not
    invertible raises SingularTransform."""
    what = "model"
    try:
        stages, label = [], doc.get("default_label", 1)
        for i, s in enumerate(doc["stages"]):
            what = f"model stage {i}"
            subspace = subspace_from_dict(s, what)
            k = subspace.dim
            if stages and subspace.ambient_dim != stages[0].subspace.ambient_dim:
                raise ParseError(f"{what} field 'subspace_basis' has dimension "
                                 f"{subspace.ambient_dim}, stage 0 "
                                 f"{stages[0].subspace.ambient_dim}")
            A = finite_array(s["transform"], what, "transform", (k, k))
            if np.linalg.matrix_rank(A) < k:
                raise SingularTransform(f"{what} field 'transform' is not invertible")
            threshold = s["threshold"]
            if type(threshold) not in (int, float) or not math.isfinite(threshold):
                raise ParseError(f"{what} field 'threshold' is not a finite number")
            stages.append(Stage(subspace, A, finite_array(s["w"], what, "w", (k,)),
                                float(threshold)))
        if type(label) is not int or label not in (-1, 1):
            raise ParseError("model field 'default_label' is not -1 or 1")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {what}: {exc!r}") from None
    return PartialClassifier(stages, default_label=label)
