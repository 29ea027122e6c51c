"""Per-point scaling weights putting a point set into radial isotropic position.

The feasibility target, for points x spanning a k-dimensional space V with
multiplicities m(x) summing to M, is the matrix inequality

    c^2(x) x x^T  <=  ((k + delta)/M) * sum_y m(y) c^2(y) y y^T     for all x,

with the normalization c^2 >= 1.  A fixed-point iteration is the cheap first
try and damped Newton on Barthe's convex potential the fallback.  Weights
from either are returned only once the spectral separation oracle accepts
them, so correctness never depends on which solver produced them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .linalg import jacobi_eigh


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
    """Witness that the scaling inequality fails at one point: the linear
    constraint c^2(x) |w.x|^2 <= ((k+delta)/M) * sum_y m(y) c^2(y) |w.y|^2,
    indexed by (point_index, witness w), is violated by violation_gap.
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
    eigenvalues below the slack; the most negative one's eigenvector is the
    witness.  Every M_x is a rank-one downdate of S (Golub 1973; Bunch,
    Nielsen and Sorensen 1978): with S = Q diag(lam) Q^T from one Jacobi
    eigendecomposition and z = Q^T x, the least eigenvalue mu of M_x is the
    least root of 1 = c^2(x) sum_j z_j^2/(lam_j - mu), solved for all points
    at once, or an eigenvalue lam_j with z_j = 0 (deflation; repeated
    eigenvalues need no special case, as the least root lies below them all).
    The witness is (S - mu I)^{-1} x, or the deflated eigenvector.

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
    a cheap rank-one test that lets ``fixed_point_scaling`` skip the oracle.

    With S = ((k+delta)/M) Sigma_c = L L^T, S - c^2(x) x x^T is indefinite iff
    q(x) = c^2(x) ||L^{-1} x||^2 > 1.  At the largest q, v = S^{-1} x gives a
    Rayleigh quotient bounding the least eigenvalue from above; the test fires
    only when it lies below the oracle's slack by PREREJECT_MARGIN of the
    constraint's scale.  False (also on a failed Cholesky) means "ask the
    oracle", never "certified".
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


RECHECK_TOL = 1e-9


def recheck_certificate(points, weights):
    """Independent eigenvalue re-check of the scaling inequality.

    Uses LAPACK (np.linalg.eigh), a different eigensolver route from the
    Jacobi-based oracle, and allows a worst eigenvalue down to -RECHECK_TOL
    of tr(Sigma_c).  Returns (ok, worst_eigenvalue, threshold).
    """
    pts = np.asarray(points, dtype=np.float64)
    n, k = pts.shape
    c = np.asarray(weights.c_sq, dtype=np.float64)
    sigma = weighted_second_moment(pts, c)
    scaled = ((k + weights.delta) / n) * sigma
    mats = scaled[None, :, :] - c[:, None, None] * np.einsum("ni,nj->nij", pts, pts)
    mins = np.linalg.eigvalsh(mats)[:, 0]
    threshold = -RECHECK_TOL * float(np.trace(sigma))
    return bool(mins.min() >= threshold), float(mins.min()), threshold


def _normalized(c_sq):
    return c_sq / c_sq.min()


# The fixed point's divergence stop: an iterate whose weight range passes
# this is taken to be running off towards a heavy flat, and the run ends.
WEIGHT_RANGE_CAP = 1e10


def _unit_rows(points):
    pts = np.asarray(points, dtype=np.float64)
    norms2 = np.einsum("ni,ni->n", pts, pts)
    return pts / np.sqrt(norms2)[:, None], norms2


def fixed_point_scaling(points, delta, max_iters=4000, mults=None):
    """Fixed-point accelerator: c <- 1 / ||Sigma^{-1/2} x||, min-normalized.

    Returns certified ScalingWeights or None.  The points are unit-normalized
    internally (the weights absorb the norms), which keeps the iteration
    well-scaled when coordinate magnitudes span many octaves.  Candidates
    that ``_surely_violated`` rejects skip the oracle.
    """
    unit, norms2 = _unit_rows(points)
    n, k = unit.shape
    m = np.ones(n) if mults is None else np.asarray(mults, dtype=np.float64)
    M = m.sum()
    c = np.ones(n)
    check_gap = 10
    last_check = -check_gap
    for t in range(1, max_iters + 1):
        sigma = weighted_second_moment(unit, c, m) / M
        jitter = 1e-30 * max(np.trace(sigma), 1e-300)
        try:
            L = np.linalg.cholesky(sigma + jitter * np.eye(k))
        except np.linalg.LinAlgError:
            return None
        sol = np.linalg.solve(L, unit.T)
        quads = np.einsum("kn,kn->n", sol, sol)
        if not np.all(quads > 0):
            return None
        c_new = 1.0 / quads
        c_new = c_new / c_new.min()
        rel = np.max(np.abs(c_new - c) / np.maximum(c, 1e-300))
        c = c_new
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


NEWTON_ITERS = 100


def _newton_scaling(points, delta, m):
    """Damped Newton on Barthe's potential over log-weights t of unit rows u,
    Phi(t) = log det(sum_i m_i e^{t_i} u_i u_i^T) - (k/M) sum_i m_i t_i: convex,
    and bounded below exactly when no strictly heavy flat exists (Barthe 1998).

    With Sigma = L L^T and b_i = L^{-1} u_i, the gradient is m_i (l_i - k/M)
    for the leverages l_i = e^{t_i} ||b_i||^2, and the Hessian is
    diag(m l) - K K^T with K_i = m_i e^{t_i} (b_i kron b_i).  H 1 = 0 and
    sum g = 0, so the step solves (H + a 1 1^T) s = -g by Woodbury through a
    (k^2 + 1)-dimensional capacitance; no nu x nu array is formed.  Armijo
    backtracking also shortens steps that leave binary64 or break the Cholesky.
    Returns certified weights at the first iterate whose leverages all lie
    within delta/4 of k/M (in units of 1/M) and that ``separation_oracle``
    accepts; None once the leverages converge uncertified, the first Cholesky
    or a solve fails, the step underflows, or NEWTON_ITERS steps pass.
    """
    unit, norms2 = _unit_rows(points)
    n, k = unit.shape
    M = m.sum()
    inv_c = np.diag(np.r_[-np.ones(k * k), n * n / k])   # 1/a for a = k/n^2
    # Keeps both e^{t - min t} and the returned weights finite.
    range_cap = np.log(np.finfo(np.float64).max) - np.ptp(np.log(norms2))

    def potential(t):
        e = np.exp(t - t.max())
        L = np.linalg.cholesky(weighted_second_moment(unit, e, m))
        return 2.0 * np.log(np.diag(L)).sum() + k * t.max() - (k / M) * (m @ t), L, e

    t = np.zeros(n)
    try:
        phi, L, e = potential(t)
        for _ in range(NEWTON_ITERS):
            b = np.linalg.solve(L, unit.T).T
            lev = e * np.einsum("ni,ni->n", b, b)
            err = np.abs(M * lev - k).max()
            if err <= delta / 4.0:
                c = np.exp(t - t.min())
                if separation_oracle(unit, ScalingWeights(c, delta), mults=m) is None:
                    return ScalingWeights(_normalized(c / norms2), delta)
            g = m * (lev - k / M)
            d_inv = 1.0 / (m * lev)
            U = np.c_[np.einsum("n,ni,nj->nij", m * e, b, b).reshape(n, -1), np.ones(n)]
            s = d_inv * (U @ np.linalg.solve(inv_c + (U.T * d_inv) @ U, U.T @ (g * d_inv)) - g)
            slope = float(g @ s)
            if err < 1e-13 * k or not slope < 0:
                return None
            for j in range(41):
                trial = t + 0.5 ** j * s
                if np.ptp(trial) < range_cap:
                    try:
                        new = potential(trial)
                    except np.linalg.LinAlgError:
                        continue
                    if new[0] <= phi + 1e-4 * 0.5 ** j * slope:
                        break
            else:
                return None
            t, (phi, L, e) = trial, new
    except np.linalg.LinAlgError:
        pass
    return None


def solve_scaling_sdp(points, delta, mults=None, fp_budget=4000):
    """Certified scaling weights for points (coordinates in V) at relaxation delta.

    Tries the fixed point, then Newton; failure raises Infeasible carrying the
    violated constraint at unit weights (a heavy subspace, or numerics).
    """
    raw = np.asarray(points, dtype=np.float64)
    n, k = raw.shape
    m = np.ones(n) if mults is None else np.asarray(mults, dtype=np.float64)
    unit, _ = _unit_rows(raw)
    if k == 1 or n == 1:
        w = ScalingWeights(np.ones(n), delta)
        if separation_oracle(unit, w, mults=m) is None:
            return w
        raise Infeasible("degenerate instance fails the 1-d constraint")
    w = (fixed_point_scaling(raw, delta, max_iters=fp_budget, mults=m)
         or _newton_scaling(raw, delta, m))
    if w is not None:
        return w
    raise Infeasible(
        "scaling solvers failed to certify (heavy subspace or numerical failure)",
        violation=separation_oracle(unit, ScalingWeights(np.ones(n), delta), mults=m))
