"""Heavy-subspace decision: does a proper subspace W of V hold at least a
dim(W)/dim(V) fraction of the points, and if so, which one.

The decision is exact over the integer coordinates.  While the number of
distinct directions is small it enumerates every flat they span.  At scale it
uses a certified scaling solution: a certificate at relaxation delta <= 1/(2M)
pins every proper flat's weighted fraction below kappa/k + 1/(kM), so
integrality rules out strictly heavy flats.  Otherwise it hunts candidates in
the eigenstructure of the scaling dynamics, and every candidate is verified by
exact integer membership counts.  The literal feasibility-LP engine that
decides the same predicate lives in ``fdc.harness`` as a reference.

Counts are multiset counts; proportional points are pooled into one direction
with a multiplicity (``exact.directions``), which leaves every fraction
unchanged.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import exact, scaling
from .dataset import as_point_array
from .errors import IterationBudgetExceeded
from .linalg import Subspace, jacobi_eigh, span_of

ENUM_COMBO_CAP = 4096    # flat enumeration runs while sum C(nu, <=k-1) stays below this
CERT_BUDGETS = (800, 3200, 12800)


@dataclass
class HeavySubspaceResult:
    found: bool
    subspace: Subspace = None
    member_indices: list = None


# ---------------------------------------------------------------------------
# Exact flat enumeration (canonical witness selection + equality stage)
# ---------------------------------------------------------------------------

def _enum_combo_count(nu, k):
    total = 0
    for j in range(1, min(k - 1, nu) + 1):
        total += math.comb(nu, j)
        if total > ENUM_COMBO_CAP:
            return total
    return total


def _enumerate_flats(dirs, mult, k):
    """All proper flats spanned by direction subsets, each exactly once, as
    (excess, dim, member_mask) with excess = k*count - M*dim.

    Subsets grow depth first in index order, one direction at a time, each
    extending its prefix's complement basis by one elimination step; a
    direction already in the prefix's flat is skipped.  A flat is reached
    only through its greedy basis (each element the least index of the flat
    outside the span of the elements before it): a child whose flat holds a
    lower index than the new direction that its prefix's flat lacks is not a
    greedy basis, and neither is any extension of it, so its subtree is
    pruned."""
    nu = dirs.shape[0]
    M = int(mult.sum())
    rows = exact.as_int_rows(dirs)
    out = []
    # One (prefix complement, prefix flat's mask, next direction to try)
    # entry per subset size.
    stack = [(exact.IntSpan(dirs.shape[1]).perp, np.zeros(nu, dtype=bool), 0)]
    while stack:
        perp, prefix_mask, i = stack[-1]
        if i == nu:
            stack.pop()
            continue
        stack[-1] = (perp, prefix_mask, i + 1)
        if prefix_mask[i]:
            continue
        sub = exact.extend_perp(perp, rows[i])
        mask = exact.annihilated(sub, dirs)
        if (mask[:i] & ~prefix_mask[:i]).any():
            continue
        size = len(stack)
        out.append((k * int(mult[mask].sum()) - M * size, size, mask))
        if size < k - 1:
            stack.append((sub, mask, i + 1))
    return out


def _best_flat(dirs, flats, inverse, threshold):
    """The flat reaching the excess threshold with max excess, then min dim,
    then lexicographically smallest original member tuple; None if none."""
    best_key = None
    for excess, dim, mask in flats:
        if excess < threshold:
            continue
        key = (-excess, dim, tuple(int(i) for i in np.nonzero(mask[inverse])[0]))
        if best_key is None or key < best_key:
            best_key, best_mask = key, mask
    if best_key is None:
        return None
    return HeavySubspaceResult(True, span_of(dirs[best_mask]), list(best_key[2]))


# ---------------------------------------------------------------------------
# Certificate + dynamics hunt (production scale)
# ---------------------------------------------------------------------------

def _certify_no_strict(coords, mult, k):
    """Prove no strictly heavy flat exists via a certified scaling solution.

    A certificate of the scaling inequality at relaxation delta* with PSD
    slack tau <= lambda_min(Sigma_c)/(8 M^2) bounds every proper flat's
    weighted fraction by (kappa + delta_eff)/(k + delta_eff) with
    delta_eff <= 1/(4M) < 1/M, and integer counts then forbid
    k*count >= M*kappa + 1.  Returns (proven, snapshots).

    The fixed point runs under CERT_BUDGETS in turn, escalating to the next
    budget only when a run used its budget up (its snapshot hook fired at
    t == budget); any other run ends the loop.
    """
    M = float(mult.sum())
    delta_star = 1.0 / (8.0 * M)
    snapshots = []
    for budget in CERT_BUDGETS:
        w = scaling.fixed_point_scaling(
            coords, delta_star, max_iters=budget, mults=mult,
            snapshot_hook=lambda *snap: snapshots.append(snap),
        )
        if w is not None:
            sigma = scaling.weighted_second_moment(coords, w.c_sq, mult)
            eigvals, _ = jacobi_eigh(sigma)
            lam_min = float(eigvals[-1])
            if lam_min > 0:
                tau_proof = lam_min / (8.0 * M * M)
                if scaling.separation_oracle(coords, w, mults=mult, tau=tau_proof) is None:
                    return True, snapshots
        # The iterates do not depend on the budget, so a run that stopped
        # before using it up would stop at the same step under a larger one.
        if not snapshots or snapshots[-1][0] != budget:
            break
    return False, snapshots


def _verified_candidates(dirs, mult, k, coords, snapshots, threshold):
    """Exact-verified heavy-flat candidates harvested from the scaling
    dynamics' eigenstructure plus per-direction multiplicity rays."""
    nu = dirs.shape[0]
    M = int(mult.sum())
    norms = np.linalg.norm(coords, axis=1)
    unit = coords / norms[:, None]
    seen = set()
    flats = []

    def consider(sel_idx):
        span = exact.IntSpan(dirs.shape[1])
        rest = dirs[sel_idx]
        while rest.shape[0]:
            # The first selected direction outside the span so far.
            span.add(rest[0])
            if span.rank == k:
                return
            rest = rest[~span.members(rest)]
        mask = span.members(dirs)
        key = mask.tobytes()
        if key in seen:
            return
        seen.add(key)
        cnt = int(mult[mask].sum())
        excess = k * cnt - M * span.rank
        if excess >= threshold:
            flats.append((excess, span.rank, mask))

    # Rays: a proportional cluster is itself a candidate line.
    for i in range(nu):
        if k * int(mult[i]) - M >= threshold:
            consider([i])
    # One batched eigendecomposition for the snapshots' moment matrices.
    recent = snapshots[-12:]
    if recent:
        _, frames = jacobi_eigh(np.array([sigma for _, _, sigma in recent]))
        for eigvecs in frames:
            for j in range(1, k):
                U = eigvecs[:, :j]
                resid = np.linalg.norm(unit - (unit @ U) @ U.T, axis=1)
                for theta in (1e-9, 1e-6, 1e-3, 3e-2):
                    sel = np.nonzero(resid <= theta)[0]
                    if 1 <= sel.size <= max(4 * M, 64):
                        consider(sel)
    return flats


def hunt_heavy_subspace(dirs, mult, k, coords, snapshots, threshold, inverse):
    """Best exact-verified flat with excess k*count - M*dim >= threshold among
    candidates read off the scaling snapshots (t, c_sq, sigma) of ``coords``
    and the per-direction rays; None if no candidate reaches it.

    ``dirs`` are the pooled directions with multiplicities ``mult``; members
    are reported as the indices i with dirs[inverse[i]] in the flat.
    """
    flats = _verified_candidates(dirs, mult, k, coords, snapshots, threshold)
    return _best_flat(dirs, flats, inverse, threshold)


# ---------------------------------------------------------------------------
# Full decision
# ---------------------------------------------------------------------------

def find_heavy_subspace(point_set, V=None, mults=None):
    """Decide whether a proper subspace W of V holds at least a
    dim(W)/dim(V) fraction of the points; return one if so.

    The returned subspace always satisfies the exact integer inequality
    |members| * dim(V) >= dim(W) * |S| (counts weighted by ``mults`` when
    given), with members computed by exact membership, and the winning flat is
    selected by a rule invariant under per-point positive rescaling and global
    invertible maps (max count excess, then min dimension, then lexicographic
    member indices).

    Decides by exact flat enumeration while the subset count is small and by
    the certificate/hunt route at scale.  ``harness.lp_heavy_subspace`` decides
    the same predicate with the literal cutting-plane LP (the feasibility proof
    of the basis-threshold LP is exactly the existence of a heavy flat); the
    two are cross-checked in the test suite.
    """
    pts = as_point_array(point_set)
    n = pts.shape[0]
    span_S = span_of(pts)
    if V is None:
        V = span_S
    if span_S.dim < V.dim:
        return HeavySubspaceResult(True, span_S, list(range(n)))
    k = V.dim
    if k == 1:
        return HeavySubspaceResult(False)

    dirs, mult, inverse = exact.directions(pts)
    if mults is not None:
        mult = np.zeros(dirs.shape[0], dtype=np.int64)
        np.add.at(mult, inverse, np.asarray(mults, dtype=np.int64))
    if _enum_combo_count(dirs.shape[0], k) <= ENUM_COMBO_CAP:
        best = _best_flat(dirs, _enumerate_flats(dirs, mult, k), inverse, 0)
        return best or HeavySubspaceResult(False)

    # Production scale: strict stage by certificate or verified candidates.
    coords = dirs.astype(np.float64) @ span_S.basis
    proven, snapshots = _certify_no_strict(coords, mult, k)
    if not proven:
        best = hunt_heavy_subspace(dirs, mult, k, coords, snapshots, 1, inverse)
        if best is None:
            raise IterationBudgetExceeded(
                "could not certify absence of a strictly heavy subspace nor extract one"
            )
        return best
    # Equality stage (exact-threshold flats), best effort at scale: the
    # certificate already pins every flat at excess <= 0, so only excess == 0
    # flats remain; harvest rays and dynamics-tight candidates.
    M = int(mult.sum())
    if not any((M * kappa) % k == 0 for kappa in range(1, k)):
        return HeavySubspaceResult(False)
    best = hunt_heavy_subspace(dirs, mult, k, coords, snapshots, 0, inverse)
    return best or HeavySubspaceResult(False)
