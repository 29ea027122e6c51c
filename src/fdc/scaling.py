"""Per-point scaling weights putting a point set into radial isotropic position.

The feasibility target, for points x spanning a k-dimensional space V with
multiplicities m(x) summing to M, is the matrix inequality

    c^2(x) x x^T  <=  ((k + delta)/M) * sum_y m(y) c^2(y) y y^T     for all x,

with the normalization c^2 >= 1.  A fixed-point iteration is the cheap first
try and damped Newton on Barthe's convex potential the fallback.  Weights
from either are returned only once the leverage test (``separation_oracle``)
accepts them, so correctness never depends on which solver produced them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible


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
    indexed by (point_index, witness w), is violated; violation_gap is the
    point's leverage minus 1 (see ``separation_oracle``).
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


LEVERAGE_TOL = 1e-9


def separation_oracle(points, candidate, mults=None):
    """Most-violated constraint at the candidate weights, or None.

    With S = ((k+delta)/M) Sigma_c = L L^T, the matrix S - c^2(x) x x^T is
    positive semidefinite exactly when the leverage q(x) = c^2(x) x^T S^{-1} x
    = c^2(x) ||L^{-1} x||^2 is at most 1 (Schur complement), so one triangular
    solve tests every point.  The point of largest q is reported once q passes
    1 + LEVERAGE_TOL, with gap q - 1; v = S^{-1} x has
    v^T (S - c^2 x x^T) v = (q/c^2)(1 - q) < 0, and the witness is v
    normalized.  S must be finite and positive definite, so the points must
    span R^k: an overflowed S or a failed Cholesky certifies nothing and is
    reported with point_index and witness None and an infinite gap.
    """
    pts = np.asarray(points, dtype=np.float64)
    n, k = pts.shape
    c = np.asarray(candidate.c_sq, dtype=np.float64)
    m = np.ones(n) if mults is None else np.asarray(mults, dtype=np.float64)
    S = ((k + candidate.delta) / m.sum()) * weighted_second_moment(pts, c, m)
    try:
        if not np.isfinite(S).all():
            raise np.linalg.LinAlgError("S overflows binary64")
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return ViolatedConstraint(None, None, np.inf)
    sol = np.linalg.solve(L, pts.T)
    q = c * np.einsum("kn,kn->n", sol, sol)
    worst = int(np.argmax(q))
    if q[worst] > 1.0 + LEVERAGE_TOL:
        w = np.linalg.solve(L.T, sol[:, worst])
        return ViolatedConstraint(worst, w / np.linalg.norm(w), float(q[worst] - 1.0))
    return None


def _normalized(c_sq):
    return c_sq / c_sq.min()


# The fixed point's divergence stop: an iterate whose weight range passes
# this is taken to be running off towards a heavy flat, and the run ends.
WEIGHT_RANGE_CAP = 1e10


def _unit_rows(points):
    pts = np.asarray(points, dtype=np.float64)
    norms2 = np.einsum("ni,ni->n", pts, pts)
    return pts / np.sqrt(norms2)[:, None], norms2


def fixed_point_scaling(points, delta, max_iters, mults=None):
    """Fixed-point accelerator: c <- 1 / ||Sigma^{-1/2} x||, min-normalized.

    Returns certified ScalingWeights or None.  The points are unit-normalized
    internally (the weights absorb the norms), which keeps the iteration
    well-scaled when coordinate magnitudes span many octaves.
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
            if separation_oracle(unit, cand, mults=m) is None:
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


def solve_scaling_sdp(points, delta, mults=None):
    """Certified scaling weights for points (coordinates in V) at relaxation delta.

    Tries the fixed point, then Newton; when neither certifies, raises
    Infeasible (a heavy subspace, or numerics).
    """
    raw = np.asarray(points, dtype=np.float64)
    m = np.ones(raw.shape[0]) if mults is None else np.asarray(mults, dtype=np.float64)
    w = (fixed_point_scaling(raw, delta, max_iters=4000, mults=m)
         or _newton_scaling(raw, delta, m))
    if w is not None:
        return w
    raise Infeasible("scaling solvers failed to certify (heavy subspace or numerical failure)")
