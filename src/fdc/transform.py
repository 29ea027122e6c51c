"""Forster transform and decomposition.

``forster_transform`` walks the heavy chain (span, then any heavy proper
subspace, then a heavy subspace of that, ...) until the surviving point set
has no heavy proper subspace, solves the scaling feasibility problem there,
and returns the transform A = R^{-T}, where R is the triangular factor of a
Householder QR of the weighted rows sqrt(c^2(x) / |S cap V|) x.  Then
A Sigma_c A^T = I for Sigma_c = (1/|S cap V|) sum c^2(x) x x^T, which is never
formed.  The piece carries a spectral certificate: all eigenvalues of the
mapped second-moment matrix lie in [1/(k+delta), (1+delta)/(k+delta)], hence
within delta of 1/k.  ``forster_decompose`` peels pieces until the set is
exhausted.

A piece is a union of whole directions, and rescaling a point changes no
transform, so ``_forster_transform_once`` builds every piece from pooled
directions (``exact.directions``): ``forster_transform`` pools its points,
``forster_decompose`` pools once and peels on the directions left, and the
learner passes its sampled lines.

The QR factor comes from LAPACK and certificates from the deterministic
Jacobi eigensolver; ``verify_piece`` re-derives everything through LAPACK's
``eigvalsh``, so the audit shares no eigensolver code with construction.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .dataset import PointSet, as_point_array, finite_array
from .errors import (
    InternalInvariantViolated,
    ParseError,
    PrecisionLimit,
    SingularTransform,
)
from .heavy import find_heavy_subspace
from .linalg import Subspace, jacobi_eigh, span_of, subspace_from_dict, subspace_to_dict
from .scaling import (
    ScalingWeights,
    fixed_point_scaling,
    solve_scaling_sdp,
    weighted_second_moment,
)

CERT_EPS = 1e-8
TRACE_EPS = 1e-10
# Every integer of magnitude at most 2^53 is a binary64 value; past it the
# float routes would round a direction's coordinates.
FLOAT_EXACT = 2 ** 53
# The size rule for deciding a heavy-chain step exactly first: total weight
# at most HEAVY_FIRST_CAP, or at most ENUM_COMBO_CAP direction subsets of
# size below dim V.  Larger steps (a learner's 1.47M draws on 400 lines) try
# the fixed point first, which takes milliseconds where the exact decision
# takes 0.09-0.11 s (400 lines in d = 10 with 1.52M weight, one core of a
# 2-core x86-64 machine, numpy 2.4).
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


def weighted_qr_transform(coords, c_sq, mult):
    """A = R^{-T}, lower triangular with a positive diagonal, where R is the
    triangular factor of the rows B = sqrt(c^2 m / M) x (M = sum m), sorted
    by decreasing norm.  B^T B = Sigma_c = R^T R, so A Sigma_c A^T = I; and
    Sigma_c, whose conditioning is the square of B's, is never formed (Cox
    and Higham 1998 on row sorting for weighted least squares)."""
    B = np.sqrt(c_sq * mult / mult.sum())[:, None] * coords
    B = B[np.argsort(-np.linalg.norm(B, axis=1), kind="stable")]
    R = np.linalg.qr(B, mode="r")
    R *= np.sign(np.diag(R))[:, None]
    return np.linalg.inv(R).T


def _certificate_window_ok(lam_min, lam_max, k, delta):
    lo = 1.0 / (k + delta) - CERT_EPS
    hi = (1.0 + delta) / (k + delta) + CERT_EPS
    return lo <= lam_min and lam_max <= hi


def _chain_to_solvable(dirs, mult, V, delta):
    """Heavy chain at direction level, from V = span(dirs): returns
    (dir_members, V, weights) such that the surviving directions have no
    detected heavy proper subspace of V; weights are the scaling weights a
    scale-first step certified for them, else None.

    Counts are multiplicity-weighted throughout.  A step inside the size rule
    above is decided exactly by ``find_heavy_subspace``.  A larger step is
    scale-first: a fixed point that certifies scaling weights ends the chain
    (a flat of excess exactly 0 may then go undetected, which no downstream
    contract needs), and only a failed one asks ``find_heavy_subspace``.
    """
    members = np.arange(dirs.shape[0])
    heavy_first = int(mult.sum()) <= HEAVY_FIRST_CAP
    # A line has no proper nonzero subspace, so the chain stops there.
    while V.dim > 1:
        sub = dirs[members]
        sub_mult = mult[members]
        weights = None
        if (not heavy_first
                and sum(math.comb(sub.shape[0], j) for j in range(1, V.dim)) > ENUM_COMBO_CAP):
            weights = fixed_point_scaling(sub.astype(np.float64) @ V.basis, delta,
                                          max_iters=3000, mults=sub_mult)
        if weights is not None:
            return members, V, weights
        hs = find_heavy_subspace(sub, V, mults=sub_mult)
        if not hs.found:
            break
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
    return members, V, None


def _forster_transform_once(dirs, mult, delta):
    """The certified piece of the pooled directions ``dirs`` (rows of
    ``exact.directions``, direction i carrying mult[i] points): returns
    (member direction indices, V, A, per-direction c^2, certificate)."""
    for v in dirs[np.abs(dirs) > FLOAT_EXACT].tolist():
        if float(v) != v:
            raise PrecisionLimit(
                f"primitive direction coordinate {v} is past 2^53 and not "
                "exactly representable in binary64"
            )
    span = span_of(dirs)
    members, V, pooled = _chain_to_solvable(dirs, mult, span, delta)
    k = V.dim
    sel_mult = mult[members]
    coords = dirs[members].astype(np.float64) @ V.basis
    if pooled is None:
        pooled = solve_scaling_sdp(coords, delta, mults=sel_mult)

    A = weighted_qr_transform(coords, pooled.c_sq, sel_mult)
    moment = _mapped_moment(A, coords, sel_mult)
    eigvals, _ = jacobi_eigh(moment)
    lam_max, lam_min = float(eigvals[0]), float(eigvals[-1])
    if not _certificate_window_ok(lam_min, lam_max, k, delta):
        raise InternalInvariantViolated(
            f"certificate window violated: [{lam_min:.3e}, {lam_max:.3e}] at k={k}"
        )
    if abs(float(np.trace(moment)) - 1.0) > TRACE_EPS:
        raise InternalInvariantViolated("mapped second moment lost unit trace")
    if not (int(sel_mult.sum()) * span.dim >= k * int(mult.sum())):
        raise InternalInvariantViolated("piece lost the dimension-fraction bound")
    return members, V, A, pooled.c_sq, (lam_min, lam_max, float(delta))


def _point_piece(pts, inverse, dir_ids, V, A, c_sq, certificate):
    """The ForsterPiece of the points pts[i] whose direction inverse[i] is
    one of ``dir_ids``, direction dir_ids[j] carrying the weight c_sq[j].
    A point is g * (+-direction), and c^2(x) = c_sq / g^2 keeps every
    constraint matrix c^2(x) x x^T identical to the pooled one."""
    dir_pos = np.full(inverse.max() + 1, -1, dtype=np.int64)
    dir_pos[dir_ids] = np.arange(dir_ids.size)
    members = np.flatnonzero(dir_pos[inverse] >= 0)
    g = exact.primitive_rows(pts[members])[1].astype(np.float64)
    c = c_sq[dir_pos[inverse[members]]] / (g * g)
    return ForsterPiece(members.tolist(), V, A, ScalingWeights(c / c.min(), certificate[2]),
                        certificate)


def forster_transform(point_set, delta):
    """Certified Forster piece for the point set at relaxation delta.

    Follows the heavy chain downward from span(S) until no heavy proper
    subspace remains, solves the scaling problem there, and builds
    A = R^{-T} from a QR factor of the weighted rows
    (``weighted_qr_transform``).  The returned piece satisfies the spectral
    certificate
    || (1/m) sum f_A(x) f_A(x)^T - I/k ||_2 <= delta and the exact fraction
    bound |members| * dim(span(S)) >= dim(V) * |S|.
    """
    pts = as_point_array(point_set)
    dirs, mult, inverse = exact.directions(pts)
    return _point_piece(pts, inverse, *_forster_transform_once(dirs, mult, delta))


def forster_decompose(point_set, delta):
    """Partition the point set into certified Forster pieces.

    Pools the points into directions once, then repeatedly transforms the
    directions left and removes each piece's; the piece count never exceeds
    d * (ceil(ln n) + 1), asserted.
    """
    source = point_set if isinstance(point_set, PointSet) else PointSet(
        np.asarray(point_set).shape[1], np.asarray(point_set, dtype=np.int64)
    )
    pts = source.points
    n, d = pts.shape
    dirs, mult, inverse = exact.directions(pts)
    left = np.arange(dirs.shape[0])
    pieces = []
    bound = d * (math.ceil(math.log(n)) + 1) if n > 1 else d
    while left.size:
        members, *piece = _forster_transform_once(dirs[left], mult[left], delta)
        pieces.append(_point_piece(pts, inverse, left[members], *piece))
        left = np.delete(left, members)
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
    passed = distance <= piece.certificate[2] + CERT_EPS and abs(trace - 1.0) <= TRACE_EPS
    return PieceReport(trace, lam_min, lam_max, distance, passed)


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
        **subspace_to_dict(piece.subspace),
        "transform": np.asarray(piece.transform).tolist(),
        "weights": np.asarray(piece.weights.c_sq).tolist(),
        "members": list(piece.member_indices),
        "certificate": {
            "lambda_min": piece.certificate[0],
            "lambda_max": piece.certificate[1],
            "delta": piece.certificate[2],
        },
    }


def piece_from_dict(doc, what="piece"):
    """Inverse of ``piece_to_dict``.  Checks the subspace
    (``subspace_from_dict``), keys, types, shapes (transform (k, k), one
    weight per member, integer members) and finiteness, raising ParseError
    naming the piece (``what``, e.g. "piece 1") and the field; a transform
    that is not invertible raises SingularTransform."""
    try:
        subspace = subspace_from_dict(doc, what)
        k = subspace.dim
        members = doc["members"]
        if not members or type(members) is not list or {*map(type, members)} != {int}:
            raise ParseError(f"{what} field 'members' is not a list of integers")
        A = finite_array(doc["transform"], what, "transform", (k, k))
        if np.linalg.matrix_rank(A) < k:
            raise SingularTransform(f"{what} field 'transform' is not invertible")
        cert = doc["certificate"]
        bounds = tuple(cert[key] for key in ("lambda_min", "lambda_max", "delta"))
        if not all(type(v) in (int, float) and math.isfinite(v) for v in bounds):
            raise ParseError(f"{what} field 'certificate' is not finite numbers")
        weights = finite_array(doc["weights"], what, "weights", (len(members),))
        return ForsterPiece(
            member_indices=members,
            subspace=subspace,
            transform=A,
            weights=ScalingWeights(weights, float(bounds[2])),
            certificate=tuple(map(float, bounds)),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed {what}: {exc!r}") from None


def decomposition_to_dict(dec):
    return {
        "source_digest": source_digest(dec.source),
        "dim": dec.source.dim,
        "n": dec.source.n,
        "pieces": [piece_to_dict(p) for p in dec.pieces],
    }
