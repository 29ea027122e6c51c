"""Forster transform and decomposition.

``forster_transform`` walks the heavy chain (span, then any heavy proper
subspace, then a heavy subspace of that, ...) until the surviving point set
has no heavy proper subspace, solves the scaling feasibility problem there,
and returns the transform A = [ (1/|S cap V|) sum c^2(x) x x^T ]^{-1/2}
together with a spectral certificate: all eigenvalues of the mapped
second-moment matrix lie in [1/(k+delta), (1+delta)/(k+delta)], hence within
delta of 1/k.  ``forster_decompose`` peels pieces until the set is exhausted.

Certificates are computed with the deterministic Jacobi eigensolver;
``verify_piece`` re-derives everything through LAPACK so the audit shares no
eigensolver code with construction.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .dataset import PointSet, as_point_array
from .errors import InternalInvariantViolated, SingularTransform
from .heavy import HeavySubspaceResult, find_heavy_subspace
from .linalg import Subspace, inv_sqrt_psd, jacobi_eigh, span_of
from .scaling import (
    ScalingWeights,
    fixed_point_scaling,
    solve_scaling_sdp,
    weighted_second_moment,
)

CERT_EPS = 1e-8
TRACE_EPS = 1e-10
# The size rule for deciding a heavy-chain step exactly first: total weight
# at most HEAVY_FIRST_CAP, or at most ENUM_COMBO_CAP direction subsets of
# size below dim V.  Larger steps (a learner's 1.47M draws on 400 lines) try
# the fixed point first, which takes milliseconds where the exact decision
# takes up to a second.
HEAVY_FIRST_CAP = 50_000
ENUM_COMBO_CAP = 4096


@dataclass
class ForsterPiece:
    """One certified piece: members, subspace, transform, weights, certificate.

    ``transform`` is dim(V) x dim(V), expressed in the coordinates of
    ``subspace.basis``.  ``weights.c_sq`` is aligned with ``member_indices``.
    ``certificate`` is (lambda_min, lambda_max, delta) for the mapped
    second-moment matrix.
    """

    member_indices: list
    subspace: Subspace
    transform: np.ndarray
    weights: ScalingWeights
    certificate: tuple


@dataclass
class ForsterDecomposition:
    pieces: list
    source: PointSet


@dataclass
class PieceReport:
    trace: float
    lambda_min: float
    lambda_max: float
    distance: float
    delta: float
    passed: bool


def mapped_unit_rows(A, coords):
    """Row-wise f_A for coordinate rows; raises SingularTransform on collapse."""
    imgs = coords @ np.asarray(A, dtype=np.float64).T
    norms = np.linalg.norm(imgs, axis=1)
    if np.any(norms <= 1e-300):
        raise SingularTransform("transform annihilates an input direction")
    return imgs / norms[:, None]


def _mapped_moment(A, coords, mult):
    f = mapped_unit_rows(A, coords)
    return weighted_second_moment(f, np.ones(len(f)), mult) / mult.sum()


def _certificate_window_ok(lam_min, lam_max, k, delta):
    lo = 1.0 / (k + delta) - CERT_EPS
    hi = (1.0 + delta) / (k + delta) + CERT_EPS
    return lo <= lam_min and lam_max <= hi


def _chain_to_solvable(dirs, mult, delta):
    """Heavy chain at direction level: returns (dir_members, V) such that the
    surviving directions have no detected heavy proper subspace of V.

    Counts are multiplicity-weighted throughout.  A step inside the size rule
    above is decided exactly by ``find_heavy_subspace``.  A larger step is
    scale-first: a fixed point that certifies scaling weights ends the chain
    (a flat of excess exactly 0 may then go undetected, which no downstream
    contract needs), and only a failed one asks ``find_heavy_subspace``.
    """
    nu = dirs.shape[0]
    members = np.arange(nu)
    V = span_of(dirs)
    heavy_first = int(mult.sum()) <= HEAVY_FIRST_CAP
    while True:
        sub = dirs[members]
        sub_mult = mult[members]
        if (heavy_first
                or sum(math.comb(sub.shape[0], j) for j in range(1, V.dim)) <= ENUM_COMBO_CAP
                or fixed_point_scaling(sub.astype(np.float64) @ V.basis, delta,
                                       max_iters=3000, mults=sub_mult) is None):
            hs = find_heavy_subspace(sub, V, mults=sub_mult)
        else:
            hs = HeavySubspaceResult(False)
        if not hs.found:
            return members, V
        new_members = members[np.asarray(hs.member_indices, dtype=np.int64)]
        if not (
            int(mult[new_members].sum()) * V.dim
            >= hs.subspace.dim * int(sub_mult.sum())
        ):
            raise InternalInvariantViolated("heavy step lost the fraction guarantee")
        if hs.subspace.dim >= V.dim:
            raise InternalInvariantViolated("heavy subspace is not proper")
        members = new_members
        V = hs.subspace


def _expand_weights(member_pts, member_dir_pos, pooled_c_sq):
    """Per-point weights from pooled per-direction weights: points are
    g * (+-direction), and c^2(x) = c_dir^2 / g^2 keeps every constraint
    matrix c^2(x) x x^T identical to the pooled one."""
    g = exact.primitive_rows(member_pts)[1].astype(np.float64)
    c = pooled_c_sq[member_dir_pos] / (g * g)
    return c / c.min()


def forster_transform(point_set, delta, counts=None):
    """Certified Forster piece for the point set at relaxation delta.

    Follows the heavy chain downward from span(S) until no heavy proper
    subspace remains, solves the scaling problem there, and builds
    A = Sigma_c^{-1/2}.  The returned piece satisfies the spectral certificate
    || (1/m) sum f_A(x) f_A(x)^T - I/k ||_2 <= delta and the exact fraction
    bound |members| * dim(span(S)) >= dim(V) * |S|.

    ``counts`` treats row i as appearing counts[i] times (a compressed
    multiset); all fractions and second moments are weighted accordingly.
    """
    return _forster_transform_once(as_point_array(point_set), delta, counts=counts)


def _forster_transform_once(pts, delta, counts=None):
    n = pts.shape[0]
    ambient_rank = span_of(pts).dim
    dirs, mult, inverse = exact.directions(pts)
    if counts is not None:
        weighted = np.zeros(dirs.shape[0], dtype=np.int64)
        np.add.at(weighted, inverse, np.asarray(counts, dtype=np.int64))
        mult = weighted
    dir_members, V = _chain_to_solvable(dirs, mult, delta)
    k = V.dim
    sel_dirs = dirs[dir_members]
    sel_mult = mult[dir_members]
    coords = sel_dirs.astype(np.float64) @ V.basis
    pooled = solve_scaling_sdp(coords, delta, mults=sel_mult)

    sigma = weighted_second_moment(coords, pooled.c_sq, sel_mult) / sel_mult.sum()
    A = inv_sqrt_psd(sigma, floor=1e-250 * max(np.trace(sigma), 1e-250))
    moment = _mapped_moment(A, coords, sel_mult)
    eigvals, _ = jacobi_eigh(moment)
    lam_max, lam_min = float(eigvals[0]), float(eigvals[-1])
    if not _certificate_window_ok(lam_min, lam_max, k, delta):
        raise InternalInvariantViolated(
            f"certificate window violated: [{lam_min:.3e}, {lam_max:.3e}] at k={k}"
        )
    if abs(float(np.trace(moment)) - 1.0) > TRACE_EPS:
        raise InternalInvariantViolated("mapped second moment lost unit trace")

    dir_pos = np.full(dirs.shape[0], -1, dtype=np.int64)
    dir_pos[dir_members] = np.arange(dir_members.size)
    member_mask = dir_pos[inverse] >= 0
    members = np.nonzero(member_mask)[0]
    if counts is None:
        member_weight, total_weight = members.size, n
    else:
        cc = np.asarray(counts, dtype=np.int64)
        member_weight, total_weight = int(cc[members].sum()), int(cc.sum())
    if not (member_weight * ambient_rank >= k * total_weight):
        raise InternalInvariantViolated("piece lost the dimension-fraction bound")

    weights = ScalingWeights(
        _expand_weights(pts[members], dir_pos[inverse[members]], pooled.c_sq),
        delta,
    )
    return ForsterPiece(
        member_indices=[int(i) for i in members],
        subspace=V,
        transform=A,
        weights=weights,
        certificate=(lam_min, lam_max, float(delta)),
    )


def forster_decompose(point_set, delta):
    """Partition the point set into certified Forster pieces.

    Repeatedly transforms the residual set and removes each piece's members;
    the piece count never exceeds d * (ceil(ln n) + 1), asserted.
    """
    source = point_set if isinstance(point_set, PointSet) else PointSet(
        np.asarray(point_set).shape[1], np.asarray(point_set, dtype=np.int64)
    )
    pts = source.points
    n, d = pts.shape
    remaining = np.arange(n)
    pieces = []
    bound = d * (math.ceil(math.log(n)) + 1) if n > 1 else d
    while remaining.size:
        rel = forster_transform(pts[remaining], delta)
        abs_members = remaining[np.asarray(rel.member_indices, dtype=np.int64)]
        pieces.append(
            ForsterPiece(
                member_indices=[int(i) for i in abs_members],
                subspace=rel.subspace,
                transform=rel.transform,
                weights=rel.weights,
                certificate=rel.certificate,
            )
        )
        keep = np.ones(remaining.size, dtype=bool)
        keep[np.asarray(rel.member_indices, dtype=np.int64)] = False
        remaining = remaining[keep]
        if len(pieces) > bound:
            raise InternalInvariantViolated(
                f"piece count exceeded d*(ceil(ln n)+1) = {bound}"
            )
    covered = sorted(i for p in pieces for i in p.member_indices)
    if covered != list(range(n)):
        raise InternalInvariantViolated("pieces do not partition the index set")
    return ForsterDecomposition(pieces, source)


def verify_piece(piece, point_set):
    """Recompute the mapped second-moment matrix of a piece and report.

    Report-only: trace (must be 1 within 1e-10 for unit images), extreme
    eigenvalues, spectral distance to I/k, and pass/fail at distance <=
    delta + 1e-8.  Uses LAPACK end to end, independent of the Jacobi-based
    construction path.
    """
    pts = as_point_array(point_set)
    members = np.asarray(piece.member_indices, dtype=np.int64)
    V = piece.subspace
    k = V.dim
    coords = pts[members].astype(np.float64) @ V.basis
    f = mapped_unit_rows(piece.transform, coords)
    moment = (f.T @ f) / f.shape[0]
    eigvals = np.linalg.eigvalsh(moment)
    lam_min, lam_max = float(eigvals[0]), float(eigvals[-1])
    distance = max(abs(lam_max - 1.0 / k), abs(1.0 / k - lam_min))
    trace = float(np.trace(moment))
    delta = float(piece.certificate[2])
    passed = distance <= delta + CERT_EPS and abs(trace - 1.0) <= TRACE_EPS
    return PieceReport(trace, lam_min, lam_max, distance, delta, passed)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def source_digest(point_set):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(point_set.points).tobytes())
    h.update(str(point_set.points.shape).encode())
    return h.hexdigest()


def piece_to_dict(piece):
    return {
        "subspace_basis": piece.subspace.basis.tolist(),
        "subspace_int_rows": [list(map(int, r)) for r in (piece.subspace.int_rows or [])],
        "transform": np.asarray(piece.transform).tolist(),
        "weights": np.asarray(piece.weights.c_sq).tolist(),
        "members": list(piece.member_indices),
        "certificate": {
            "lambda_min": piece.certificate[0],
            "lambda_max": piece.certificate[1],
            "delta": piece.certificate[2],
        },
    }


def piece_from_dict(doc):
    basis = np.asarray(doc["subspace_basis"], dtype=np.float64)
    int_rows = [tuple(r) for r in doc.get("subspace_int_rows", [])] or None
    sub = Subspace(basis.shape[0], basis, int_rows=int_rows)
    cert = doc["certificate"]
    return ForsterPiece(
        member_indices=[int(i) for i in doc["members"]],
        subspace=sub,
        transform=np.asarray(doc["transform"], dtype=np.float64),
        weights=ScalingWeights(np.asarray(doc["weights"], dtype=np.float64),
                               float(cert["delta"])),
        certificate=(float(cert["lambda_min"]), float(cert["lambda_max"]),
                     float(cert["delta"])),
    )


def decomposition_to_dict(dec):
    return {
        "source_digest": source_digest(dec.source),
        "dim": dec.source.dim,
        "n": dec.source.n,
        "pieces": [piece_to_dict(p) for p in dec.pieces],
    }
