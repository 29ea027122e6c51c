"""Per-point scaling weights putting a point set into radial isotropic position.

The feasibility target, for points x spanning a k-dimensional space V with
multiplicities m(x) summing to M, is the matrix inequality

    c^2(x) x x^T  <=  ((k + delta)/M) * sum_y m(y) c^2(y) y y^T     for all x,

with the normalization c^2 >= 1.  Two solvers are provided: a fixed-point
iteration (fast; its output is only ever trusted after certification) and a
central-cut ellipsoid method driven by the spectral separation oracle
(faithful fallback).  Either way the returned weights pass the same
certificate, so correctness never depends on which solver produced them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, IterationBudgetExceeded
from .linalg import jacobi_eigh

ELLIPSOID_N_CAP = 24


@dataclass
class ScalingWeights:
    """Certified weights c^2 (min-normalized to 1) at relaxation delta."""

    c_sq: np.ndarray
    delta: float

    def __post_init__(self):
        c = np.asarray(self.c_sq, dtype=np.float64)
        if not np.all(np.isfinite(c)):
            raise ValueError("weights must be finite")
        if c.min() < 1.0 - 1e-9:
            raise ValueError("weights must satisfy c^2 >= 1")
        object.__setattr__(self, "c_sq", c)


@dataclass
class ViolatedConstraint:
    """Witness that the scaling inequality fails at one point.

    The linear constraint (in the c^2 variables) indexed by (point_index, w):
        c^2(x) |w.x|^2 <= ((k+delta)/M) * sum_y m(y) c^2(y) |w.y|^2
    is violated by violation_gap at the candidate weights.
    """

    point_index: int
    witness: np.ndarray
    violation_gap: float


def weighted_second_moment(points, c_sq, mults=None):
    pts = np.asarray(points, dtype=np.float64)
    w = np.asarray(c_sq, dtype=np.float64)
    if mults is not None:
        w = w * np.asarray(mults, dtype=np.float64)
    return (pts * w[:, None]).T @ pts


REL_SLACK = 1e-12
SECULAR_STEPS = 200   # a cap only; Newton settles within about 15 steps


def _secular_min(lam, w):
    """Least eigenvalue of each rank-one downdate diag(lam) - c z z^T, given
    the weights w = c z_j^2 >= 0 as rows of an (n, k) array: the least root
    of 1 = sum_j w_j/(lam_j - mu), which lies below every pole with w_j > 0,
    or the least pole with w_j == 0 (a deflated eigenvalue) if that is lower.

    Solved in t = hi - mu > 0, with hi the least undeflated pole, where
    F(t) = 1/h(t) - 1 with h(t) = sum_j w_j/(lam_j - hi + t) is increasing
    and concave (Cauchy-Schwarz gives 2h'^2 <= h h'').  So a Newton step
    from below the root stays below it and climbs monotonically; a step that
    leaves the bracket [t_lo, t_up] is replaced by the bracket's geometric
    mean.  The bracket: h(t_up) <= 1 at t_up = sum_j w_j, and h(t_lo) >= 2 at
    t_lo = half the weight on the poles at hi.  Returns (mins, t, hi, gaps):
    mins the eigenvalues, t the roots, gaps = lam_j - hi (inf where
    deflated), so lam_j - mu = gaps + t.
    """
    live = w > 0
    lam_row = np.broadcast_to(lam, w.shape)
    hi = np.where(live, lam_row, np.inf).min(axis=1)
    deflated = np.where(live, np.inf, lam_row).min(axis=1)
    gaps = np.where(live, lam_row - hi[:, None], np.inf)
    w0 = np.where(gaps == 0.0, w, 0.0).sum(axis=1)
    t_lo = 0.5 * w0
    t_up = w.sum(axis=1)
    # Start below t_up where the far poles, frozen at t = 0 (they only fall
    # as t grows), sum to R0 < 1: then the root is at most about w0/(1 - R0).
    R0 = (w / np.where(gaps > 0.0, gaps, np.inf)).sum(axis=1)
    start = np.divide(w0, 1.0 - R0, out=t_up.copy(), where=R0 < 1.0)
    rows = np.nonzero(t_up > 0)[0]
    t = np.minimum(start, t_up)
    lo, up = t_lo[rows], t_up[rows]
    tr, wr, gr = t[rows], w[rows], gaps[rows]
    for _ in range(SECULAR_STEPS):
        if rows.size == 0:
            break
        r = wr / (gr + tr[:, None])
        h = r.sum(axis=1)
        dh = (r / (gr + tr[:, None])).sum(axis=1)
        F = 1.0 / h - 1.0
        lo = np.where(F < 0, np.maximum(lo, tr), lo)
        up = np.where(F >= 0, np.minimum(up, tr), up)
        tn = tr - F * h * h / dh
        inside = ((tn > lo) & (tn < up)) | (F == 0)
        # A step that lands on the bracket's ends means F's round-off has
        # taken over: the root is known to the bracket's width.
        settled = ~inside & (up - lo <= 1e-13 * up)
        tn = np.where(inside, tn, np.sqrt(lo * up))
        done = settled | (np.abs(tn - tr) <= 1e-15 * tn)
        t[rows] = tn
        keep = ~done
        rows, lo, up, tr, wr, gr = rows[keep], lo[keep], up[keep], tn[keep], wr[keep], gr[keep]
    mins = np.minimum(np.where(t_up > 0, hi - t, np.inf), deflated)
    return mins, t, hi, gaps


def separation_oracle(points, candidate, mults=None, tau=None):
    """Most-violated spectral constraint at the candidate weights, or None.

    For each x checks M_x = S - c^2(x) x x^T, S = ((k+delta)/M) Sigma_c, for
    eigenvalues below the slack, and returns the most negative one's
    eigenvector as the witness direction.  Every M_x is a rank-one downdate
    of the one matrix S (Golub 1973; Bunch, Nielsen and Sorensen 1978): with
    S = Q diag(lam) Q^T from one Jacobi eigendecomposition and z = Q^T x,
    the least eigenvalue mu of M_x is the least root of the secular equation
    1 = c^2(x) sum_j z_j^2/(lam_j - mu), solved for all points at once, or
    an eigenvalue lam_j of S whose z_j is zero (deflation; repeated
    eigenvalues need no special case because the least root lies below all
    of them).  The witness is (S - mu I)^{-1} x, or the deflated
    eigenvector.

    With tau=None the slack is per-constraint and purely a round-off
    allowance: REL_SLACK * (tr(scaled Sigma_c) + c^2(x)||x||^2), the natural
    scale of M_x.  A slack proportional to delta * tr(Sigma_c) is unsound once
    the weights span a wide range (it can absorb an order-one violation at a
    weight-1 point), so certification never leans on delta.  An explicit
    scalar ``tau`` is treated as an absolute threshold.
    """
    pts = np.asarray(points, dtype=np.float64)
    n, k = pts.shape
    c = np.asarray(candidate.c_sq, dtype=np.float64)
    m = np.ones(n) if mults is None else np.asarray(mults, dtype=np.float64)
    M = m.sum()
    sigma = weighted_second_moment(pts, c, m)
    scaled = ((k + candidate.delta) / M) * sigma
    lam, Q = jacobi_eigh(scaled)
    z = pts @ Q
    mins, t, hi, gaps = _secular_min(lam, c[:, None] * z * z)
    if tau is None:
        scale = float(np.trace(scaled)) + c * np.einsum("ni,ni->n", pts, pts)
        slack = REL_SLACK * scale
    else:
        slack = np.full(n, float(tau))
    rel = mins + slack
    worst = int(np.argmin(rel))
    if rel[worst] < 0:
        if mins[worst] < hi[worst] - t[worst]:
            w = Q[:, int(np.argmin(np.where(np.isinf(gaps[worst]), lam, np.inf)))]
        else:
            w = Q @ np.where(np.isinf(gaps[worst]), 0.0, z[worst] / (gaps[worst] + t[worst]))
        return ViolatedConstraint(worst, w / np.linalg.norm(w), float(-mins[worst]))
    return None


PREREJECT_MARGIN = 1e-9


def _surely_violated(points, candidate, mults):
    """True only when the separation oracle would surely report a violation:
    a cheap rank-one test that lets ``fixed_point_scaling`` skip the oracle's
    eigendecomposition at weights that are still far from certified.

    With S = ((k+delta)/M) Sigma_c = L L^T, the downdate S - c^2(x) x x^T is
    indefinite iff q(x) = c^2(x) ||L^{-1} x||^2 > 1.  At the point of largest
    q, v = S^{-1} x gives the Rayleigh quotient (v^T S v - c^2(x)(x.v)^2)/v^T v,
    an upper bound on the downdate's least eigenvalue.  The test fires only
    when that bound lies below the oracle's slack by PREREJECT_MARGIN of the
    constraint's scale, far beyond either computation's round-off.  False
    (including on a failed Cholesky) means "ask the oracle", never "certified".
    """
    k = points.shape[1]
    c = candidate.c_sq
    S = ((k + candidate.delta) / mults.sum()) * weighted_second_moment(points, c, mults)
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    sol = np.linalg.solve(L, points.T)
    q = c * np.einsum("kn,kn->n", sol, sol)
    i = int(np.argmax(q))
    if not q[i] > 1.0:
        return False
    x = points[i]
    v = np.linalg.solve(L.T, sol[:, i])
    xv = float(x @ v)
    rayleigh = (float(v @ S @ v) - c[i] * xv * xv) / float(v @ v)
    scale = float(np.trace(S)) + c[i] * float(x @ x)
    return rayleigh < -(REL_SLACK + PREREJECT_MARGIN) * scale


def recheck_certificate(points, weights, mults=None, tol_factor=1e-9):
    """Independent eigenvalue re-check of the scaling inequality.

    Uses LAPACK (np.linalg.eigh), a different eigensolver route from the
    Jacobi-based oracle.  Returns (ok, worst_eigenvalue, threshold).
    """
    pts = np.asarray(points, dtype=np.float64)
    n, k = pts.shape
    c = np.asarray(weights.c_sq, dtype=np.float64)
    m = np.ones(n) if mults is None else np.asarray(mults, dtype=np.float64)
    M = m.sum()
    sigma = weighted_second_moment(pts, c, m)
    scaled = ((k + weights.delta) / M) * sigma
    mats = scaled[None, :, :] - c[:, None, None] * np.einsum("ni,nj->nij", pts, pts)
    mins = np.linalg.eigvalsh(mats)[:, 0]
    threshold = -tol_factor * float(np.trace(sigma))
    return bool(mins.min() >= threshold), float(mins.min()), threshold


def _normalized(c_sq):
    c = np.asarray(c_sq, dtype=np.float64)
    return c / c.min()


# Beyond this intrinsic weight range binary64 cannot resolve the constraint
# slacks (the paper's theoretical weight ceiling n^{poly(b,d)} is far outside
# floating range); solvers refuse to certify past it.
WEIGHT_RANGE_CAP = 1e10


def _unit_rows(points):
    pts = np.asarray(points, dtype=np.float64)
    norms2 = np.einsum("ni,ni->n", pts, pts)
    return pts / np.sqrt(norms2)[:, None], norms2


def fixed_point_scaling(points, delta, max_iters=4000, mults=None, damping=0.0,
                        snapshot_hook=None):
    """Fixed-point accelerator: c <- 1 / ||Sigma^{-1/2} x||, min-normalized.

    Returns certified ScalingWeights or None; None is the only failure channel
    (the caller falls back to the ellipsoid solver).  Internally the points
    are unit-normalized (the problem is invariant under per-point rescaling,
    with the weights absorbing the norms), which keeps the iteration
    well-scaled for inputs whose coordinate magnitudes span many octaves.
    ``snapshot_hook(t, c_sq, sigma_hat)`` is invoked on a sparse schedule so
    callers can inspect the dynamics (used for heavy-subspace candidates).
    The iterates do not depend on ``max_iters``, and the hook always fires at
    t == max_iters, so a caller can tell a run that used its budget up (the
    only kind a larger budget can change) from one that stopped earlier.
    Candidates that ``_surely_violated`` rejects skip the oracle; every
    certificate still comes from ``separation_oracle``.
    """
    raw = np.asarray(points, dtype=np.float64)
    unit, norms2 = _unit_rows(raw)
    n, k = unit.shape
    m = np.ones(n) if mults is None else np.asarray(mults, dtype=np.float64)
    M = m.sum()
    c = np.ones(n)
    snapshots_at = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
                    1597, 2584}
    check_gap = 10
    last_check = -check_gap
    for t in range(1, max_iters + 1):
        sigma = weighted_second_moment(unit, c, m) / M
        jitter = 1e-30 * max(np.trace(sigma), 1e-300)
        try:
            L = np.linalg.cholesky(sigma + jitter * np.eye(k))
        except np.linalg.LinAlgError:
            if snapshot_hook is not None:
                snapshot_hook(t, c.copy(), sigma)
            return None
        sol = np.linalg.solve(L, unit.T)
        quads = np.einsum("kn,kn->n", sol, sol)
        if not np.all(quads > 0):
            return None
        c_new = 1.0 / quads
        c_new = c_new / c_new.min()
        if damping > 0:
            c_new = np.exp((1 - damping) * np.log(c_new) + damping * np.log(c))
            c_new = c_new / c_new.min()
        rel = np.max(np.abs(c_new - c) / np.maximum(c, 1e-300))
        c = c_new
        if snapshot_hook is not None and (t in snapshots_at or t == max_iters):
            snapshot_hook(t, c.copy(), weighted_second_moment(unit, c, m) / M)
        if c.max() > WEIGHT_RANGE_CAP:
            return None
        if rel < 1e-7 or t - last_check >= check_gap or t == max_iters:
            last_check = t
            cand = ScalingWeights(_normalized(c), delta)
            if (not _surely_violated(unit, cand, m)
                    and separation_oracle(unit, cand, mults=m) is None):
                return ScalingWeights(_normalized(c / norms2), delta)
            if rel < 1e-13:
                # Converged but cannot certify: genuinely obstructed.
                return None
    return None


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


def _ellipsoid_scaling(points, delta, mults, radius, budget):
    """Central-cut ellipsoid over the c^2 variables inside [1, radius]^n.

    Expects unit-norm rows.  Returns certified weights, or raises Infeasible
    when the ellipsoid collapses below the box of side ~ delta/(4k) that a
    feasible region contains around a scaled solution, or
    IterationBudgetExceeded.
    """
    pts = np.asarray(points, dtype=np.float64)
    n, k = pts.shape
    m = np.asarray(mults, dtype=np.float64)
    M = m.sum()
    last_violation = None

    def cut(center):
        nonlocal last_violation
        viol = separation_oracle(pts, ScalingWeights(center.copy(), delta), mults=m)
        if viol is None:
            return None
        last_violation = viol
        proj = pts @ viol.witness
        a = -((k + delta) / M) * m * proj * proj
        a[viol.point_index] += proj[viol.point_index] ** 2
        return a

    center = central_cut(cut, np.full(n, 0.5 * (1.0 + radius)),
                         0.5 * (radius - 1.0) * math.sqrt(n) + 1.0, 1.0, radius,
                         max(delta, 1e-12) / (4.0 * k), budget)
    if center is None:
        raise Infeasible("ellipsoid volume exhausted", violation=last_violation)
    return ScalingWeights(_normalized(center), delta)


def solve_scaling_sdp(points, delta, mults=None, fp_budget=4000):
    """Certified scaling weights for points (coordinates in V) at relaxation delta.

    Tries the fixed-point accelerator first, then the ellipsoid method for
    small instances.  The returned weights always pass a final separation
    oracle at the tightened slack; failure raises Infeasible carrying the last
    violated constraint (a heavy subspace exists, or numerics failed).
    """
    raw = np.asarray(points, dtype=np.float64)
    n, k = raw.shape
    m = np.ones(n) if mults is None else np.asarray(mults, dtype=np.float64)
    unit, norms2 = _unit_rows(raw)
    if k == 1 or n == 1:
        w = ScalingWeights(np.ones(n), delta)
        if separation_oracle(unit, w, mults=m) is None:
            return w
        raise Infeasible("degenerate instance fails the 1-d constraint")
    for budget, damping in ((fp_budget, 0.0), (4 * fp_budget, 0.5)):
        w = fixed_point_scaling(raw, delta, max_iters=budget, mults=m, damping=damping)
        if w is not None:
            return w
    if n <= ELLIPSOID_N_CAP:
        # Volume-based Infeasible is only conclusive once the search radius is
        # maxed out: a verdict at a small radius merely rules out solutions
        # inside it, so both failure modes escalate the radius (capped at the
        # certifiable weight range).
        last = None
        radius = max(64.0, float(n * k) ** 2)
        radii = []
        while True:
            radii.append(radius)
            if radius >= WEIGHT_RANGE_CAP:
                break
            radius = min(radius * radius, WEIGHT_RANGE_CAP)
        for i, rad in enumerate(radii):
            budget = int(
                8 * n * (n + 1) * (n * (math.log(rad) + math.log(4 * k / max(delta, 1e-12))) + 10)
            )
            try:
                w = _ellipsoid_scaling(unit, delta, m, rad, budget)
                return ScalingWeights(_normalized(w.c_sq / norms2), delta)
            except (Infeasible, IterationBudgetExceeded) as exc:
                last = exc
                if i == len(radii) - 1 and isinstance(exc, Infeasible):
                    raise
        if isinstance(last, Infeasible):
            raise last
    viol = separation_oracle(unit, ScalingWeights(np.ones(n), delta), mults=m)
    raise Infeasible(
        "scaling solvers failed to certify (heavy subspace or numerical failure)",
        violation=viol,
    )
